import hashlib

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reachgen import autodiff as ag
from reachgen import body, geometry as geo
from reachgen import intention, latent_opt, rollout
from reachgen.dataset import standing_pose
from reachgen.errors import DegenerateRotationError, DimensionMismatchError
from reachgen.model import fresh_model


def random_pose(skeleton, rng):
    """Pose vector with orthonormal 6D slots from uniformly random rotations."""
    seeds = rng.integers(0, 2**31 - 1, size=skeleton.n_joints)
    rots = np.stack([
        geo.matrix_to_sixd(Rotation.random(random_state=int(s)).as_matrix())
        for s in seeds
    ])
    trans = rng.normal(scale=2.0, size=3)
    return np.concatenate([trans, rots.reshape(-1)])


@pytest.fixture(scope="module")
def skel():
    return body.desk_skeleton()


def test_desk_skeleton_layout(skel):
    assert skel.n_joints == 13
    assert skel.n_rotated == 12
    for name in ("pelvis", "right_wrist", "left_foot", "right_foot"):
        skel.joint_index(name)
    np.testing.assert_allclose(skel.forward_axis, [0, 1, 0])


def test_fk_identity_rotations_accumulate_offsets(skel):
    pose = body.rest_pose(skel, translation=(0, 0, 0))
    pos = body.forward_kinematics(pose, skel)
    # walk offsets by hand
    expected = np.zeros((skel.n_joints, 3))
    for j in range(1, skel.n_joints):
        expected[j] = expected[skel.parents[j]] + skel.offsets[j]
    np.testing.assert_allclose(pos, expected, atol=1e-15)


def test_fk_root_translation_shifts_every_joint(skel):
    base = body.forward_kinematics(body.rest_pose(skel, (0, 0, 0)), skel)
    moved = body.forward_kinematics(body.rest_pose(skel, (1, 2, 3)), skel)
    np.testing.assert_allclose(moved - base, np.tile([1.0, 2.0, 3.0], (skel.n_joints, 1)),
                               atol=1e-15)


def test_fk_single_chain_rotated_link():
    # two-joint chain, child offset +y, root rotated 90deg about z -> child at -x
    chain = body.Skeleton(
        names=("pelvis", "tip"),
        parents=(-1, 0),
        offsets=np.array([[0.0, 0, 0], [0.0, 1.0, 0]]),
        forward_axis=np.array([0.0, 1.0, 0.0]),
    )
    r90 = geo.matrix_to_sixd(geo.rotation_z_matrix(np.pi / 2))
    pose = np.concatenate([np.zeros(3), r90, geo.identity_sixd()])
    pos = body.forward_kinematics(pose, chain)
    np.testing.assert_allclose(pos[1], [-1.0, 0.0, 0.0], atol=1e-15)


def test_fk_rigid_equivariance(skel):
    rng = np.random.default_rng(20)
    pose = random_pose(skel, rng)
    angle = 1.1
    shifted = body.rotate_pose_z(pose, angle)
    pos = body.forward_kinematics(pose, skel)
    pos_rot = body.forward_kinematics(shifted, skel)
    expected = pos @ geo.rotation_z_matrix(angle).T
    np.testing.assert_allclose(pos_rot, expected, atol=1e-9)


def test_fk_dimension_mismatch(skel):
    bad = body.rest_pose(skel)[:9 + 6 * 5]
    with pytest.raises(DimensionMismatchError):
        body.forward_kinematics(bad, skel)


def test_joint_position_matches_full_fk(skel):
    """A one-joint read walks its chain in FK's op order, so it has FK's
    bits for every joint, unbatched, (B,) and (N, W)."""
    rng = np.random.default_rng(21)
    for pose in (random_pose(skel, rng), random_poses(skel, rng, (5,)),
                 random_poses(skel, rng, (4, 3))):
        full = body.forward_kinematics(pose, skel)
        for j in range(skel.n_joints):
            expected = np.ascontiguousarray(full[..., j, :]).tobytes()
            assert body.joint_position(pose, skel, j).tobytes() == expected, skel.names[j]
        # the root's read is a fresh array, not a view of the pose
        assert not np.shares_memory(body.joint_position(pose, skel, 0), pose)


def test_pose_delta_identical_poses_is_zero(skel):
    rng = np.random.default_rng(22)
    pose = random_pose(skel, rng)
    d = body.pose_delta(pose, pose)
    np.testing.assert_allclose(d[0:3], 0, atol=1e-15)
    np.testing.assert_allclose(d[3:9], 0, atol=1e-15)
    np.testing.assert_allclose(d[9:], 0, atol=1e-15)


def test_pose_delta_forward_step_and_yaw_invariance(skel):
    prev = body.rest_pose(skel)  # facing +y, yaw 0
    nxt = body.rest_pose(skel, translation=(0.1, 0.0, 0.90))
    d = body.pose_delta(prev, nxt)
    np.testing.assert_allclose(d[0:3], [0.1, 0.0, 0.0], atol=1e-15)
    # pre-rotating both poses 90deg about z yields the identical delta
    prev_r = body.rotate_pose_z(prev, np.pi / 2)
    nxt_r = body.rotate_pose_z(nxt, np.pi / 2)
    d_r = body.pose_delta(prev_r, nxt_r)
    np.testing.assert_allclose(d_r[0:3], d[0:3], atol=1e-12)
    np.testing.assert_allclose(d_r[3:9], d[3:9], atol=1e-12)


def test_roundtrip_and_yaw_invariance_over_random_pairs(skel):
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = random_pose(skel, rng)
        q = random_pose(skel, rng)
        d = body.pose_delta(p, q)
        q2 = body.integrate_delta(p, d)
        np.testing.assert_allclose(q2[0:3], q[0:3], atol=1e-9)
        np.testing.assert_allclose(q2[3:9], q[3:9], atol=1e-9)
        np.testing.assert_allclose(q2[9:], q[9:], atol=1e-9)

        phi = rng.uniform(-np.pi, np.pi)
        d_rot = body.pose_delta(body.rotate_pose_z(p, phi), body.rotate_pose_z(q, phi))
        np.testing.assert_allclose(d_rot[0:3], d[0:3], atol=1e-6)
        np.testing.assert_allclose(d_rot[3:9], d[3:9], atol=1e-6)
        np.testing.assert_allclose(d_rot[9:], d[9:], atol=1e-6)


def test_zero_delta_integrates_to_same_pose(skel):
    rng = np.random.default_rng(24)
    p = random_pose(skel, rng)
    out = body.integrate_delta(p, np.zeros(body.pose_dim(skel.n_rotated)))
    np.testing.assert_allclose(out[0:3], p[0:3], atol=1e-15)
    np.testing.assert_allclose(out[3:9], p[3:9], atol=1e-15)


def test_constant_forward_delta_walks_straight_along_heading(skel):
    # yawed start pose; delta pushes +y in the canonical frame, so the path
    # should advance along the yawed heading every step
    yaw0 = 0.8
    pose = body.rotate_pose_z(body.rest_pose(skel), yaw0)
    delta = np.zeros(body.pose_dim(skel.n_rotated))
    delta[0:3] = [0.0, 0.05, 0.0]
    heading = np.array([-np.sin(yaw0), np.cos(yaw0), 0.0])
    for k in range(1, 11):
        pose = body.integrate_delta(pose, delta)
        expected = np.array([0.0, 0.0, 0.90]) + 0.05 * k * heading
        np.testing.assert_allclose(pose[0:3], expected, atol=1e-12)


def test_heading_trivial_cases(skel):
    pose = body.rest_pose(skel)
    np.testing.assert_allclose(body.heading_of(pose, skel), [0.0, 1.0], atol=1e-15)
    pose90 = body.rotate_pose_z(pose, np.pi / 2)
    np.testing.assert_allclose(body.heading_of(pose90, skel), [-1.0, 0.0], atol=1e-12)
    # forward axis pointing straight up -> degenerate (0, 0)
    rx = geo.matrix_to_sixd(geo.axis_angle_matrix([1, 0, 0], np.pi / 2))
    tilted = pose.copy()
    tilted[3:9] = rx
    np.testing.assert_allclose(body.heading_of(tilted, skel), [0.0, 0.0], atol=1e-15)


def test_skeleton_file_roundtrip(tmp_path, skel):
    path = tmp_path / "skeleton.json"
    skel.save(path)
    with open(path) as f:     # the skeleton.json that gen-data writes
        loaded = body.skeleton_from_text(f.read())
    assert loaded.names == skel.names
    assert loaded.parents == skel.parents
    np.testing.assert_array_equal(loaded.offsets, skel.offsets)
    assert loaded.hash == skel.hash


def test_skeleton_hash_is_computed_once(monkeypatch):
    # the cached hash is the sha256 of to_text(), which runs once per skeleton
    skel = body.desk_skeleton()
    texts = []
    to_text = body.Skeleton.to_text
    monkeypatch.setattr(body.Skeleton, "to_text",
                        lambda self: texts.append(1) or to_text(self))
    first = skel.hash
    assert skel.hash == first == hashlib.sha256(to_text(skel).encode()).hexdigest()
    assert len(texts) == 1
    # the offsets it hashes cannot change under it
    with pytest.raises(ValueError):
        skel.offsets[3] *= 1.1


def test_fk_gradient_through_pose(skel):
    rng = np.random.default_rng(26)
    vec0 = random_pose(skel, rng)
    w = rng.normal(size=(skel.n_joints, 3))

    def ref(v):
        return np.sum(body.forward_kinematics(v, skel) * w)

    t = ag.Tensor(vec0, requires_grad=True)
    with ag.Tape() as tape:
        loss = ag.sum(body.forward_kinematics(t, skel) * w)
    tape.backward(loss)
    fd = ag.finite_difference_gradient(ref, vec0.copy())
    rel = np.abs(t.grad - fd) / np.maximum(np.abs(fd), 1e-6)
    assert np.max(rel) < 1e-4


def per_joint_fk(pose, skeleton):
    """The per-joint tree walk that FK by depth level replaced: one decode
    and one matmul per joint, in joint order."""
    rots = {0: geo.sixd_to_matrix(pose[..., 3:9])}
    pos = {0: pose[..., 0:3]}
    for j in range(1, skeleton.n_joints):
        parent = skeleton.parents[j]
        pos[j] = pos[parent] + (rots[parent] @ skeleton.offsets[j].reshape(3, 1))[..., 0]
        rots[j] = rots[parent] @ geo.sixd_to_matrix(pose[..., 3 + 6 * j:9 + 6 * j])
    return np.stack([pos[j] for j in range(skeleton.n_joints)], axis=-2)


def random_poses(skeleton, rng, lead):
    return rng.normal(size=lead + (body.pose_dim(skeleton.n_rotated),))


def test_fk_by_depth_matches_per_joint_walk_bit_for_bit(skel):
    rng = np.random.default_rng(27)
    for lead in ((), (1,), (5,), (2, 3), (150,)):
        pose = random_poses(skel, rng, lead)
        fk = body.forward_kinematics(pose, skel)
        assert fk.shape == lead + (skel.n_joints, 3)
        assert fk.tobytes() == per_joint_fk(pose, skel).tobytes(), lead


def test_fk_records_one_node_per_decode_and_walk(skel):
    rng = np.random.default_rng(28)
    vec = ag.Tensor(random_poses(skel, rng, (2,)), requires_grad=True)
    with ag.Tape() as tape:
        body.forward_kinematics(vec, skel)
    # the decode and the walk, one node over the whole pose
    assert len(tape) == 1


def test_fk_gradient_batched(skel):
    rng = np.random.default_rng(29)
    vec0 = random_poses(skel, rng, (2, 2))
    w = rng.normal(size=(2, 2, skel.n_joints, 3))

    def ref(v):
        return np.sum(body.forward_kinematics(v, skel) * w)

    t = ag.Tensor(vec0, requires_grad=True)
    with ag.Tape() as tape:
        loss = ag.sum(body.forward_kinematics(t, skel) * w)
    tape.backward(loss)
    fd = ag.finite_difference_gradient(ref, vec0.copy())
    np.testing.assert_allclose(t.grad, fd, rtol=1e-5, atol=1e-7)


def add_at_positions_vjp(pd, ld, skeleton, g):
    """_positions's VJP as np.add.at wrote it: each level's child gradients
    added into their parents in one np.add.at call. Returns the gradients
    of the translation and of the local rotations."""
    lead = ld.shape[:-3]
    lt = np.moveaxis(ld, -3, 0)
    world = np.empty((skeleton.n_joints,) + lead + (3, 3))
    world[0] = lt[0]
    for lvl in skeleton.depth_levels:
        world[lvl.joints] = world.take(lvl.parents, axis=0) @ lt.take(lvl.joints, axis=0)
    gpos = np.moveaxis(g, -2, 0).copy()
    gworld = np.zeros(world.shape)
    glocal = np.zeros(world.shape)
    for lvl in reversed(skeleton.depth_levels):
        off = lvl.offsets.reshape(lvl.offsets.shape[:1] + (1,) * len(lead) + (3, 1))
        gw = gworld.take(lvl.joints, axis=0)
        gp = gpos.take(lvl.joints, axis=0)
        glocal[lvl.joints] = world.take(lvl.parents, axis=0).mT @ gw
        np.add.at(gworld, lvl.parents,
                  gw @ lt.take(lvl.joints, axis=0).mT + gp[..., None] * off.mT)
        np.add.at(gpos, lvl.parents, gp)
    glocal[0] = gworld[0]
    return gpos[0], np.moveaxis(glocal, 0, -3)


def test_fk_backward_adds_children_in_np_add_at_order(skel):
    # pelvis and spine each have three children, added over three rounds
    assert [len(lvl.rounds) for lvl in skel.depth_levels] == [3, 3, 1, 1]
    rng = np.random.default_rng(30)
    for lead in ((), (1,), (5,), (2, 3), (640,)):
        pd = random_poses(skel, rng, lead)
        ld = rng.normal(size=lead + (skel.n_joints, 3, 3))
        g = rng.normal(size=lead + (skel.n_joints, 3)) * rng.choice([1e-3, 1.0, 1e3])
        _, vjp = body._positions(pd, ld, skel)
        for got, want in zip(vjp(g), add_at_positions_vjp(pd, ld, skel, g)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), lead


def test_chain_steps_follow_the_parents(skel):
    wrist = skel.joint_index("right_wrist")
    assert [skel.names[j] for j, _ in skel.chains[wrist]] == [
        "spine", "right_shoulder", "right_elbow", "right_wrist"]
    assert skel.chains[0] == ()
    for j, off in skel.chains[wrist]:
        assert off.shape == (3, 1)
        np.testing.assert_array_equal(off[:, 0], skel.offsets[j])


def full_fk_joint_position(pose, skeleton, joint):
    """One joint read out of whole-body FK, as before the chain walk."""
    return body.forward_kinematics(pose, skeleton)[..., joint, :]


def full_fk_chain_walk(pd, ld, skeleton, joint):
    """The rollout frame's joint read out of whole-body FK, as (position,
    vjp) like the chain walk it stands in for."""
    pos, vjp = body._positions(pd, ld, skeleton)

    def joint_vjp(g):
        g_all = np.zeros(pos.shape)
        g_all[..., joint, :] = g
        return vjp(g_all)

    return pos[..., joint, :], joint_vjp


def test_latent_gradient_through_chain_walk_equals_full_fk(skel, monkeypatch):
    model = fresh_model(skel, latent_dim=4, hidden_dim=16, n_layers=2, seed=2)
    goal = intention.GoalSpec(np.array([0.8, 0.5, 1.1]), 30)
    record = rollout.generate(standing_pose(skel), rollout.GoalSchedule.single(goal),
                              30, model, np.random.default_rng(2))
    objective = latent_opt.OptObjective(waypoints=((15, np.array([0.1, 0.2]), 1.0),))

    def value_and_gradient():
        latents = ag.Tensor(record.latents.copy(), requires_grad=True)
        with ag.Tape() as tape:
            total = latent_opt._objective_terms(latents, record, goal, objective, model)[0]
        tape.backward(total)
        return total.data.tobytes() + latents.grad.tobytes()

    chain = value_and_gradient()
    monkeypatch.setattr(body, "_chain_walk", full_fk_chain_walk)
    monkeypatch.setattr(latent_opt, "joint_position", full_fk_joint_position)
    assert chain == value_and_gradient()


def test_degenerate_off_chain_rotation_still_faults_its_row(skel, monkeypatch):
    """The wrist read walks only the wrist's chain, but every rotation is
    still decoded: a left_foot 6D driven to zero faults its row on the frame
    after it was integrated, and the other row runs on."""
    check_collapsed_rotation_faults_its_row(skel, monkeypatch, "left_foot")


@pytest.mark.parametrize("name", ["right_elbow", "pelvis"])
def test_degenerate_chain_rotation_faults_on_the_same_frame(skel, monkeypatch, name):
    """The fused decode of the whole pose raises on the frame after a chain
    or root 6D was driven to zero, as the per-slice decode did."""
    check_collapsed_rotation_faults_its_row(skel, monkeypatch, name)


def check_collapsed_rotation_faults_its_row(skel, monkeypatch, name):
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=3)
    mlp = rollout._mlp    # the frame's decoder MLP, over [latent | condition]
    calls = []
    j = skel.joint_index(name)
    # joint j's 6D sits at [3+6j, 9+6j) of a delta and at [1+6j, 7+6j) of
    # the condition, which drops the x and y translation; the root's is
    # yaw-canonical in both, so the negated condition slot zeroes it too
    in_delta = slice(3 + 6 * j, 9 + 6 * j)
    in_condition = slice(1 + 6 * j, 7 + 6 * j)

    def collapsing_decoder(cfg, params, x, *args, **kwargs):
        delta, vjp = mlp(cfg, params, x, *args, **kwargs)
        delta = np.array(delta)
        cond_vec = x[..., model.spec.latent_dim:]
        calls.append(1)
        if len(calls) == 4:
            np.atleast_2d(delta)[0, in_delta] = -np.atleast_2d(cond_vec)[0, in_condition]
        return delta, vjp

    monkeypatch.setattr(rollout, "_mlp", collapsing_decoder)
    goal = intention.GoalSpec(np.array([1.0, 0.0, 1.0]), 8)
    with pytest.raises(DegenerateRotationError):
        rollout.generate(standing_pose(skel), rollout.GoalSchedule.single(goal), 8,
                         model, np.random.default_rng(0))

    calls.clear()
    start = np.stack([standing_pose(skel)] * 2)
    out = rollout.rollout_poses(start, rollout.GoalSchedule.single(goal), 8, model,
                                np.random.default_rng(1).normal(size=(2, 8, 4)))
    frame, err = out.faults[0]
    assert (frame, type(err)) == (4, DegenerateRotationError)
    assert out.faults[1] is None and len(out.poses) == 9
    np.testing.assert_array_equal(out.poses[-1][0], out.poses[3][0])


# ------------------------------------------------------ fused pose ops
#
# integrate_delta, pose_delta, forward_kinematics and joint_position each
# read the pose as a whole and record one node. The references are the
# compositions they replaced, run on plain arrays.

def ref_integrate_delta(prev, delta):
    return prev + body.rotate_pose_z(delta, geo.yaw_of(prev[..., 3:9]))


def ref_pose_delta(prev, nxt):
    return body.rotate_pose_z(nxt - prev, -geo.yaw_of(prev[..., 3:9]))


WRIST = body.desk_skeleton().joint_index("right_wrist")
FUSED_POSE_OPS = {
    "integrate_delta": lambda prev, delta, skel: body.integrate_delta(prev, delta),
    "pose_delta": lambda prev, nxt, skel: body.pose_delta(prev, nxt),
    "forward_kinematics": lambda pose, skel: body.forward_kinematics(pose, skel),
    "joint_position": lambda pose, skel: body.joint_position(pose, skel, WRIST),
}


def fused_pose_case(op, skel, rng, lead):
    pose = random_poses(skel, rng, lead)
    if op in ("integrate_delta", "pose_delta"):
        return [pose, pose + rng.normal(scale=0.1, size=pose.shape)]
    return [pose]


def test_fused_pose_ops_forward_bits(skel):
    rng = np.random.default_rng(34)
    for lead in ((), (3,), (2, 3)):
        pose, other = fused_pose_case("pose_delta", skel, rng, lead)
        out = body.integrate_delta(pose, other)
        assert out.tobytes() == ref_integrate_delta(pose, other).tobytes(), lead
        delta = body.pose_delta(pose, other)
        assert delta.shape == pose.shape
        assert delta.tobytes() == ref_pose_delta(pose, other).tobytes(), lead
        wrist = body.joint_position(pose, skel, WRIST)
        assert wrist.tobytes() == per_joint_fk(pose, skel)[..., WRIST, :].tobytes(), lead
        assert not np.shares_memory(body.joint_position(pose, skel, 0), pose)


@pytest.mark.parametrize("op", sorted(FUSED_POSE_OPS))
def test_fused_pose_op_gradients_and_one_node(skel, op):
    rng = np.random.default_rng(35)
    fn = FUSED_POSE_OPS[op]
    for lead in ((), (3,), (2, 3)):
        inputs = fused_pose_case(op, skel, rng, lead)
        weights = rng.normal(size=np.shape(fn(*inputs, skel)))
        ts = [ag.Tensor(x, requires_grad=True) for x in inputs]
        with ag.Tape() as tape:
            out = fn(*ts, skel)
            assert len(tape) == 1
            loss = ag.sum(out * weights)
        tape.backward(loss)
        for i, x0 in enumerate(inputs):
            def f(x, i=i):
                args = list(inputs)
                args[i] = x
                return np.sum(fn(*args, skel) * weights)
            fd = ag.finite_difference_gradient(f, x0.copy(), h=1e-6)
            np.testing.assert_allclose(ts[i].grad, fd, rtol=1e-5, atol=1e-7,
                                       err_msg=f"{op} input {i}, lead {lead}")


def test_pose_delta_with_one_plain_pose(skel):
    """Either pose may be plain: the other's gradient keeps its bits. Only
    prev's yaw, read from its root slots 3 and 4, tells prev's gradient from
    minus nxt's."""
    rng = np.random.default_rng(38)
    prev, nxt = fused_pose_case("pose_delta", skel, rng, (3,))
    weights = rng.normal(size=prev.shape)

    def grads(prev_in, nxt_in):
        with ag.Tape() as tape:
            loss = ag.sum(body.pose_delta(prev_in, nxt_in) * weights)
            assert len(tape) == 3    # pose_delta, multiply and sum
        tape.backward(loss)
        return [x.grad for x in (prev_in, nxt_in) if isinstance(x, ag.Tensor)]

    both = grads(ag.Tensor(prev, requires_grad=True), ag.Tensor(nxt, requires_grad=True))
    assert grads(prev, ag.Tensor(nxt, requires_grad=True))[0].tobytes() == both[1].tobytes()
    assert grads(ag.Tensor(prev, requires_grad=True), nxt)[0].tobytes() == both[0].tobytes()
    yaw_term = both[0] + both[1]
    np.testing.assert_array_equal(np.delete(yaw_term, [3, 4], axis=-1), 0.0)
    assert np.all(yaw_term[:, 3:5] != 0.0)


def test_integrate_delta_skips_a_plain_prev(skel):
    """A plain prev gets no gradient; the delta's keeps its bits."""
    rng = np.random.default_rng(36)
    prev, delta = fused_pose_case("integrate_delta", skel, rng, (3,))
    weights = rng.normal(size=prev.shape)
    grads = []
    for prev_in in (prev, ag.Tensor(prev, requires_grad=True)):
        d = ag.Tensor(delta, requires_grad=True)
        with ag.Tape() as tape:
            loss = ag.sum(body.integrate_delta(prev_in, d) * weights)
        tape.backward(loss)
        grads.append(d.grad.tobytes())
    assert grads[0] == grads[1]


def test_fused_decode_raises_on_a_degenerate_rotation(skel):
    pose = random_poses(skel, np.random.default_rng(37), (2,))
    foot = skel.joint_index("left_foot")
    pose[1, 3 + 6 * foot:9 + 6 * foot] = 0.0
    for read in (lambda p: body.forward_kinematics(p, skel),
                 lambda p: body.joint_position(p, skel, WRIST)):
        with pytest.raises(DegenerateRotationError):
            read(pose)
        with pytest.raises(DegenerateRotationError), ag.Tape():
            read(ag.Tensor(pose, requires_grad=True))
