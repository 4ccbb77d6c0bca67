import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reachgen import autodiff as ag
from reachgen import body, geometry as geo
from reachgen.errors import DimensionMismatchError


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
    rng = np.random.default_rng(21)
    pose = random_pose(skel, rng)
    full = body.forward_kinematics(pose, skel)
    for name in ("right_wrist", "left_foot", "head"):
        j = skel.joint_index(name)
        np.testing.assert_allclose(body.joint_position(pose, skel, j), full[j], atol=1e-12)
        pos, heading = body.joint_position_and_heading(pose, skel, j)
        assert pos.tobytes() == body.joint_position(pose, skel, j).tobytes()
        assert heading.tobytes() == body.heading_of(pose, skel).tobytes()


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
    loaded = body.load_skeleton(path)
    assert loaded.names == skel.names
    assert loaded.parents == skel.parents
    np.testing.assert_array_equal(loaded.offsets, skel.offsets)
    assert loaded.hash() == skel.hash()


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
    # (150,) runs in FK_ROWS chunks
    for lead in ((), (1,), (5,), (2, 3), (body.FK_ROWS * 2 + 22,)):
        pose = random_poses(skel, rng, lead)
        fk = body.forward_kinematics(pose, skel)
        assert fk.shape == lead + (skel.n_joints, 3)
        assert fk.tobytes() == per_joint_fk(pose, skel).tobytes(), lead


def test_fk_records_one_node_per_decode_and_walk(skel):
    rng = np.random.default_rng(28)
    vec = ag.Tensor(random_poses(skel, rng, (2,)), requires_grad=True)
    with ag.Tape() as tape:
        body.forward_kinematics(vec, skel)
    # pose[..., 0:3], pose[..., 3:], reshape, sixd_to_matrix, FK
    assert len(tape) == 5


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
