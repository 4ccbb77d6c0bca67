import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachgen import autodiff as ag, body, geometry as geo, intention as it
from reachgen.body import desk_skeleton, pose_dim, rest_pose, rotate_pose_z
from reachgen.intention import GoalSpec


@pytest.fixture(scope="module")
def skel():
    return desk_skeleton()


def test_wrist_intention_at_goal_is_zero():
    g = GoalSpec(np.array([1.0, 2.0, 3.0]), target_frame=50)
    out = it.wrist_intention(np.array([1.0, 2.0, 3.0]), g, current_frame=10)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_wrist_intention_direct_formula():
    g = GoalSpec(np.array([1.0, 0.0, 0.0]), target_frame=10)
    out = it.wrist_intention(np.zeros(3), g, current_frame=0)
    np.testing.assert_allclose(out, [0.1, 0.0, 0.0])


def test_wrist_intention_clamps_past_deadline():
    g = GoalSpec(np.array([0.3, 0.0, 0.0]), target_frame=10)
    out = it.wrist_intention(np.zeros(3), g, current_frame=15)
    np.testing.assert_allclose(out, [0.3, 0.0, 0.0])


def test_wrist_intention_scales_inversely_with_remaining_frames():
    g1 = GoalSpec(np.array([1.0, -2.0, 0.5]), target_frame=20)
    g2 = GoalSpec(np.array([1.0, -2.0, 0.5]), target_frame=40)
    w = np.array([0.2, 0.2, 0.2])
    np.testing.assert_allclose(it.wrist_intention(w, g1, 0),
                               2.0 * it.wrist_intention(w, g2, 0))


def test_pelvis_intention_exact_values():
    # d = 0 -> zero
    np.testing.assert_array_equal(
        it.pelvis_intention(np.zeros(3), np.zeros(3)), np.zeros(2))
    # v = (ln 2, 0) -> (1, 0)
    out = it.pelvis_intention(np.zeros(3), np.array([np.log(2.0), 0.0, 0.7]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)
    # far away saturates below 2
    far = it.pelvis_intention(np.zeros(3), np.array([100.0, 0.0, 0.0]))
    # mathematically < 2; in float64 the bound is reached exactly once e^-d
    # underflows relative to 1.0
    assert np.linalg.norm(far) <= 2.0
    np.testing.assert_allclose(far, [2.0, 0.0], atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=50.0),
       st.floats(min_value=-np.pi, max_value=np.pi))
def test_pelvis_intention_norm_closed_form(d, angle):
    goal = np.array([d * np.cos(angle), d * np.sin(angle), 0.0])
    out = it.pelvis_intention(np.zeros(3), goal)
    expected = 2.0 * (1.0 - np.exp(-d))
    assert abs(np.linalg.norm(out) - expected) < 1e-12
    assert np.linalg.norm(out) <= 2.0 + 4 * np.finfo(float).eps


def test_pelvis_intention_strictly_increasing_in_distance():
    ds = np.linspace(0.01, 10.0, 200)
    norms = [np.linalg.norm(it.pelvis_intention(np.zeros(3), np.array([d, 0, 0])))
             for d in ds]
    assert np.all(np.diff(norms) > 0)


def orientation_intention(pose, goal, skel, goal_heading=None):
    """The orientation columns of the intention at frame 0, in the canonical
    frame."""
    _, intent = it.assemble_condition(pose, np.zeros(pose.shape), skel, goal, 0,
                                      goal_heading)
    return intent[3:5]


def test_orientation_intention_goal_ahead_is_zero(skel):
    pose = rest_pose(skel)  # heading (0, 1)
    g = GoalSpec(np.array([0.0, 5.0, 1.0]), target_frame=100)
    out = orientation_intention(pose, g, skel)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


def test_orientation_intention_goal_along_x(skel):
    pose = rest_pose(skel)  # yaw 0: the canonical frame is the world frame
    g = GoalSpec(np.array([5.0, 0.0, 1.0]), target_frame=100)
    out = orientation_intention(pose, g, skel)
    np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-12)


def test_orientation_intention_train_mode_matching_heading(skel):
    pose = rest_pose(skel)
    g = GoalSpec(np.array([3.0, 3.0, 1.0]), target_frame=100)
    out = orientation_intention(pose, g, skel, goal_heading=np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


def test_orientation_intention_zero_iff_heading_matches_goal_direction(skel):
    rng = np.random.default_rng(0)
    for _ in range(20):
        yaw = rng.uniform(-np.pi, np.pi)
        pose = rotate_pose_z(rest_pose(skel), yaw)
        heading = np.array([-np.sin(yaw), np.cos(yaw)])
        goal_aligned = GoalSpec(np.concatenate([heading * 3.0, [1.0]]), 100)
        out = orientation_intention(pose, goal_aligned, skel)
        np.testing.assert_allclose(out, [0, 0], atol=1e-9)
        goal_off = GoalSpec(np.concatenate([-heading * 3.0, [1.0]]), 100)
        assert np.linalg.norm(orientation_intention(pose, goal_off, skel)) > 1e-6


def test_condition_dim_formula(skel):
    assert it.condition_dim(skel.n_rotated) == (1 + 6 + 72) + (3 + 6 + 72) + 7
    assert it.condition_dim(skel.n_rotated) == 167


def test_assemble_condition_layout_and_zero_slots(skel):
    pose = rest_pose(skel)
    goal = GoalSpec(np.array([1.0, 2.0, 1.1]), target_frame=60)
    cond, intent = it.assemble_condition(pose, np.zeros(pose_dim(skel.n_rotated)),
                                         skel, goal, 0)
    assert cond.shape == (167,)
    # the delta slots are zero and the intention slots hold the intention
    np.testing.assert_array_equal(cond[79:160], np.zeros(81))
    assert cond[160:].tobytes() == intent.tobytes()
    assert intent.tobytes() == it.compute_intention(pose, skel, goal, 0).tobytes()
    assert cond[0] == 0.90  # z translation


def _move_goal(goal, angle, offset):
    c, s = np.cos(angle), np.sin(angle)
    xy = np.array([[c, -s], [s, c]]) @ goal.position[:2] + offset[:2]
    return GoalSpec(np.append(xy, goal.position[2]), goal.target_frame)


def test_assemble_condition_invariant_to_yaw_and_xy(skel):
    rng = np.random.default_rng(1)
    # random-ish pose via perturbed joints; yaw/xy moves of the pose and the
    # goal together must not show up
    pose = rest_pose(skel)
    pose[9:] += rng.normal(scale=0.1, size=6 * skel.n_rotated)
    delta = np.zeros(pose_dim(skel.n_rotated))
    delta[0:3] = rng.normal(size=3)
    goal = GoalSpec(rng.normal(size=3), target_frame=30)

    base, _ = it.assemble_condition(pose, delta, skel, goal, 0)
    offset = np.array([5.0, -2.0, 0.0])
    moved = rotate_pose_z(pose, 1.3)
    moved[0:3] += offset
    cond2, _ = it.assemble_condition(moved, delta, skel, _move_goal(goal, 1.3, offset), 0)
    np.testing.assert_allclose(cond2, base, atol=1e-9)


def test_compute_intention_canonical_is_yaw_invariant(skel):
    pose = rotate_pose_z(rest_pose(skel), 0.4)
    goal = GoalSpec(np.array([2.0, 1.0, 1.2]), target_frame=120)
    base = it.compute_intention(pose, skel, goal, current_frame=0)
    phi = 1.1
    pose_r = rotate_pose_z(pose, phi)
    goal_r = GoalSpec(np.append(
        np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]) @ goal.position[:2],
        goal.position[2]), target_frame=120)
    rotated = it.compute_intention(pose_r, skel, goal_r, current_frame=0)
    np.testing.assert_allclose(rotated, base, atol=1e-9)


def test_goal_spec_rejects_non_finite():
    with pytest.raises(ValueError):
        GoalSpec(np.array([np.nan, 0.0, 0.0]), 10)


# -------------------------------------------------------- fused condition op

def ref_rotate_z(v, angle):
    """xy of (..., k) vectors turned by angle, as the rotate_z op did it."""
    c, s = np.cos(angle), np.sin(angle)
    x, y = v[..., 0], v[..., 1]
    return np.concatenate([np.stack([c * x - s * y, s * x + c * y], axis=-1),
                           v[..., 2:]], axis=-1)


def ref_condition(pose, prev_delta, skel, goal, current_frame, goal_heading=None):
    """The elementary-op composition `assemble_condition` replaced, as the
    numpy calls those ops ran without a tape, in the same order."""
    wrist = body.joint_position(pose, skel, skel.joint_index(it.TARGET_JOINT))
    heading = body.heading_of(pose, skel)
    to_goal = goal.position[..., 0:2] - pose[..., 0:2]
    direction = geo.safe_unit(to_goal)
    neg_yaw = -np.arctan2(pose[..., 4], pose[..., 3])
    distance = np.sqrt((to_goal * to_goal).sum(axis=-1, keepdims=True))
    distance = np.where(distance < geo.DEGENERACY_EPS, 1.0, distance)
    desired = direction if goal_heading is None else geo.safe_unit(goal_heading)
    terms = [it.wrist_intention(wrist, goal, current_frame), desired - heading,
             it.PELVIS_SATURATION * (1.0 - np.exp(-distance)) * direction]
    intention = np.concatenate([ref_rotate_z(t, neg_yaw) for t in terms], axis=-1)
    local = rotate_pose_z(pose, neg_yaw)[..., 2:]
    return np.concatenate([local, prev_delta, intention], axis=-1), intention


def condition_case(skel, rng, lead, with_heading):
    """A random pose, previous delta, goal, frame and goal heading; the
    first row's goal sits on its pelvis, a degenerate direction."""
    pose = np.broadcast_to(rest_pose(skel), lead + (pose_dim(skel.n_rotated),)).copy()
    pose[..., :3] += rng.normal(size=lead + (3,))
    pose[..., 3:] += rng.normal(scale=0.3, size=lead + (pose.shape[-1] - 3,))
    prev_delta = rng.normal(scale=0.01, size=pose.shape)
    position = rng.normal(size=lead + (3,))
    if lead:
        position.reshape(-1, 3)[0, :2] = pose.reshape(-1, pose.shape[-1])[0, :2]
    frame = rng.integers(1, 60, size=lead)
    goal = GoalSpec(position, rng.integers(30, 90, size=lead))
    heading = rng.normal(size=lead + (2,)) if with_heading else None
    return pose, prev_delta, goal, frame, heading


def test_fused_condition_forward_bits(skel):
    rng = np.random.default_rng(50)
    for lead in ((), (1,), (3,), (2, 3)):
        for with_heading in (False, True):
            for _ in range(20):
                pose, prev, goal, frame, heading = condition_case(
                    skel, rng, lead, with_heading)
                cond, intent = it.assemble_condition(pose, prev, skel, goal, frame,
                                                     goal_heading=heading)
                ref_cond, ref_intent = ref_condition(pose, prev, skel, goal, frame,
                                                     heading)
                assert cond.shape == lead + (it.condition_dim(skel.n_rotated),)
                assert cond.tobytes() == ref_cond.tobytes(), (lead, with_heading)
                assert intent.tobytes() == ref_intent.tobytes()
                # a copy: a kept intention must not hold its condition row
                assert not np.shares_memory(intent, cond)


def test_fused_condition_gradients(skel):
    """One tape node over (pose, pose, previous delta), and a VJP that
    matches finite differences for the pose and the previous delta."""
    rng = np.random.default_rng(51)
    for lead in ((), (3,), (2, 3)):
        for with_heading in (False, True):
            pose, prev, goal, frame, heading = condition_case(
                skel, rng, lead, with_heading)
            goal = GoalSpec(goal.position + 3.0, goal.target_frame)  # off the pelvis
            inputs = [pose, prev]
            weights = rng.normal(size=lead + (it.condition_dim(skel.n_rotated),))

            def loss(*args):
                cond, _ = it.assemble_condition(*args, skel, goal, frame, heading)
                return np.sum(cond * weights)

            ts = [ag.Tensor(a, requires_grad=True) for a in inputs]
            with ag.Tape() as tape:
                cond, _ = it.assemble_condition(*ts, skel, goal, frame, heading)
                assert len(tape) == 1
                total = ag.sum(cond * weights)
            tape.backward(total)
            for i, (t, a0) in enumerate(zip(ts, inputs)):
                def f(v, i=i):
                    args = list(inputs)
                    args[i] = v
                    return loss(*args)
                fd = ag.finite_difference_gradient(f, a0.copy(), h=1e-6)
                np.testing.assert_allclose(t.grad, fd, rtol=1e-5, atol=1e-7,
                                           err_msg=f"input {i}, lead {lead}")


def test_fused_condition_gradient_is_zero_on_a_degenerate_direction(skel):
    """A goal on the pelvis gives the direction and the distance a locally
    constant value (zero vector, norm 1), so the pelvis term sends no
    gradient to the pelvis xy of that row; the other row gets one. (The
    wrist term reaches the pelvis xy through the translation, so only the
    pelvis columns are weighted.)"""
    rng = np.random.default_rng(52)
    pose, prev, goal, frame, _ = condition_case(skel, rng, (2,), False)
    t = ag.Tensor(pose, requires_grad=True)
    with ag.Tape() as tape:
        cond, _ = it.assemble_condition(t, prev, skel, goal, frame)
        weights = np.zeros(cond.shape)
        weights[..., -2:] = rng.normal(size=(2, 2))
        total = ag.sum(cond * weights)
    tape.backward(total)
    np.testing.assert_array_equal(t.grad[0, 0:2], 0.0)
    assert np.all(t.grad[1, 0:2] != 0.0)
