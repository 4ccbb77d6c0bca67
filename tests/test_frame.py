"""The fused rollout frame against the composition of public ops it replaced.

`reference_rollout` is the closed loop with a frame of five live tape nodes:
`assemble_condition`, the latent take, the decoder's concatenate and MLP,
and `integrate_delta`. (Its goal switch test reads the wrist with one more
`joint_position`, whose node gets no gradient.) The fused frame must give
the same poses, goal indices, L_opt and latent gradient, bit for bit. The
intention is not compared on its own: it feeds the decoder, so any change in
its bits shows in the poses and the latent gradient.
"""
import numpy as np
import pytest

from reachgen import autodiff as ag
from reachgen import latent_opt as lo
from reachgen import rollout as ro
from reachgen.body import desk_skeleton, integrate_delta, joint_position, pose_dim
from reachgen.dataset import standing_pose
from reachgen.errors import DegenerateRotationError
from reachgen.geometry import degenerate_sixd
from reachgen.intention import TARGET_JOINT, GoalSpec, assemble_condition
from reachgen.model import decode, fresh_model

DURATION = 20


@pytest.fixture(scope="module")
def model():
    return fresh_model(desk_skeleton(), latent_dim=6, hidden_dim=24, n_layers=3, seed=5)


def reference_rollout(initial_pose, schedule, duration, model, latents, decoder=decode):
    """rollout_poses as the composition of public ops, frame by frame; a
    held row freezes as in rollout_poses and cuts the tape."""
    skeleton = model.skeleton
    cur = initial_pose
    lead = ag.value(cur).shape[:-1]
    at_frame = (slice(None),) * len(lead)
    goals = ro._GoalRows(schedule, lead)
    prev_delta = np.zeros(lead + (pose_dim(skeleton.n_rotated),))
    active = np.zeros(lead, dtype=np.int64)
    frozen = np.zeros(lead, dtype=bool)
    out = ro.Rollout([cur], [], [None] * frozen.size)
    joint = skeleton.joint_index(TARGET_JOINT)

    def hold(bad, frame, error):
        for r in np.flatnonzero(bad & ~frozen):
            out.faults[r] = (frame, error)
        np.logical_or(frozen, bad, out=frozen)

    for i in range(1, duration + 1):
        try:
            wrist = joint_position(cur, skeleton, joint)
        except DegenerateRotationError:
            pd = ag.value(cur)
            bad = degenerate_sixd(pd[..., 3:].reshape(lead + (-1, 6))).any(axis=-1)
            hold(bad, i - 1, DegenerateRotationError())
            cur = np.where(bad[..., None], ag.value(out.poses[-2]), pd)
            prev_delta = np.where(bad[..., None], 0.0, ag.value(prev_delta))
            out.poses[-1] = cur
            wrist = joint_position(cur, skeleton, joint)
        active = goals.advance(active, ag.value(wrist), i - 1)
        cond, _ = assemble_condition(cur, prev_delta, skeleton, goals.goal(active),
                                          i - 1)
        delta = decoder(model.spec, model.params, latents[at_frame + (i - 1,)], cond, None)
        hold(~np.isfinite(ag.value(delta)).all(axis=-1), i, ValueError())
        nxt = integrate_delta(cur, delta)
        if frozen.any():
            delta = np.where(frozen[..., None], 0.0, ag.value(delta))
            nxt = np.where(frozen[..., None], ag.value(cur), ag.value(nxt))
        prev_delta = delta
        cur = nxt
        out.poses.append(cur)
        out.goal_indices.append(active)
    return out


def schedule_for(kind, wrist, rows):
    """A single goal, or two goals switched on_frame or on_reach; with rows,
    each row has its own goals and target frames."""
    shift = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [-0.2, 0.4, -0.1]])[:rows]
    far = np.array([0.6, 0.9, 1.2]) + shift
    if kind == "single":
        return ro.GoalSchedule.single(GoalSpec(far[0], 25))
    near = wrist + np.array([0.05, 0.35, 0.0]) + 0.5 * shift
    frames = (np.array([6, 9, 12])[:rows], np.array([30, 28, 26])[:rows])
    if rows == 1:
        near, far, frames = near[0], far[0], (int(frames[0][0]), int(frames[1][0]))
    return ro.GoalSchedule((GoalSpec(near, frames[0]), GoalSpec(far, frames[1])),
                           policy=kind, radius=0.3)


def objective(out, latents, goal_position, skeleton):
    """L_opt's terms over a batched or single rollout: the prior, the final
    wrist's squared distance and a waypoint on frame 3's pelvis."""
    wrist = joint_position(out.poses[-1], skeleton, skeleton.joint_index("right_wrist"))
    gap = wrist - goal_position
    way = out.poses[3][..., 0:2] - np.array([0.1, -0.2])
    return (1e-3 * (0.5 * ag.sum(latents * latents)) + ag.sum(gap * gap)
            + 0.5 * ag.sum(way * way))


def run(rollout, initial, schedule, model, latents):
    """Outputs of one taped rollout: pose and goal-index bytes,
    L_opt and the bytes of its gradients in the latents and in the
    decoder's parameters, and the faults."""
    t = ag.Tensor(latents.copy(), requires_grad=True)
    model.params.zero_grad()
    with ag.Tape() as tape:
        out = rollout(initial, schedule, DURATION, model, t)
        total = objective(out, t, schedule.goals[-1].position, model.skeleton)
    tape.backward(total)
    poses = np.stack([ag.value(p) for p in out.poses])
    decoder = b"".join(g.tobytes() for name, g in model.params.gradients().items()
                       if name.startswith("dec."))
    return ((poses.tobytes(), np.stack(out.goal_indices).tobytes(),
             ag.value(total).tobytes(), t.grad.tobytes(), decoder),
            [f and f[0] for f in out.faults], np.stack(out.goal_indices))


@pytest.mark.parametrize("kind,rows", [("single", 1), ("on_frame", 1), ("on_reach", 1),
                                       ("on_frame", 3), ("on_reach", 3)])
def test_fused_frame_matches_the_composition(model, kind, rows):
    skel = model.skeleton
    pose = standing_pose(skel)
    wrist = joint_position(pose, skel, skel.joint_index("right_wrist"))
    schedule = schedule_for(kind, wrist, rows)
    shape = (DURATION, model.spec.latent_dim) if rows == 1 else \
        (rows, DURATION, model.spec.latent_dim)
    latents = np.random.default_rng(rows).standard_normal(shape)
    initial = pose if rows == 1 else np.stack([pose] * rows)
    fused, faults, goal_indices = run(ro.rollout_poses, initial, schedule, model, latents)
    reference, ref_faults, _ = run(reference_rollout, initial, schedule, model, latents)
    assert fused == reference
    assert faults == ref_faults == [None] * rows
    if kind != "single":    # every row switches goals during the rollout
        assert (goal_indices[0] == 0).all() and (goal_indices[-1] == 1).all()


def test_fused_frame_matches_the_composition_with_held_rows(model, monkeypatch):
    """Row 1 decodes NaN at frame 6 and row 2's root 6D collapses at frame
    4; both are held, the tape is cut from frame 4 on, and the waypoint on
    frame 3 still sends gradient to the early latents."""
    skel = model.skeleton
    k = model.spec.latent_dim
    calls = []

    def tamper(delta, cond):
        calls.append(1)
        if len(calls) in (4, 6):
            delta = np.array(ag.value(delta))
            if len(calls) == 4:
                delta[2, 3:9] = -ag.value(cond)[2, 1:7]
            else:
                delta[1, 4] = np.nan
        return delta

    def reference_decoder(spec, store, z, cond, dropout):
        return tamper(decode(spec, store, z, cond, dropout), cond)

    mlp = ro._mlp

    def fused_decoder(cfg, params, x, *args, **kwargs):
        delta, vjp = mlp(cfg, params, x, *args, **kwargs)
        return tamper(delta, x[..., k:]), vjp

    pose = standing_pose(skel)
    wrist = joint_position(pose, skel, skel.joint_index("right_wrist"))
    schedule = schedule_for("on_frame", wrist, 3)
    latents = np.random.default_rng(7).standard_normal((3, DURATION, k))
    initial = np.stack([pose] * 3)
    reference, ref_faults, _ = run(
        lambda *a: reference_rollout(*a, decoder=reference_decoder),
        initial, schedule, model, latents)
    calls.clear()
    monkeypatch.setattr(ro, "_mlp", fused_decoder)
    fused, faults, _ = run(ro.rollout_poses, initial, schedule, model, latents)
    assert faults == ref_faults == [None, 6, 4]
    assert fused == reference
    gradient = np.frombuffer(fused[3]).reshape(latents.shape)
    assert np.abs(gradient[:, :3]).min() > 0.0   # the waypoint's frames


def test_latent_refinement_objective_matches_the_composition(model, monkeypatch):
    """L_opt and its latent gradient as latent_opt computes them, with the
    record's 2-goal schedule and a waypoint."""
    skel = model.skeleton
    pose = standing_pose(skel)
    wrist = joint_position(pose, skel, skel.joint_index("right_wrist"))
    schedule = schedule_for("on_reach", wrist, 1)
    record = ro.generate(pose, schedule, DURATION, model, np.random.default_rng(4))
    goal = schedule.goals[-1]
    objective = lo.OptObjective(waypoints=((8, np.array([0.2, 0.1]), 0.7),))

    def value_and_gradient():
        latents = ag.Tensor(record.latents.copy(), requires_grad=True)
        with ag.Tape() as tape:
            total = lo._objective_terms(latents, record, goal, objective, model)[0]
        tape.backward(total)
        return total.data.tobytes() + latents.grad.tobytes()

    fused = value_and_gradient()
    monkeypatch.setattr(lo, "rollout_poses", reference_rollout)
    assert fused == value_and_gradient()


def test_frame_gradients_match_finite_differences(model):
    """The frame VJP in the latents and in the initial pose, through a
    2-goal on_frame schedule and two rows, against central differences of
    a random projection of every pose."""
    skel = model.skeleton
    duration = 5
    rng = np.random.default_rng(11)
    pose = standing_pose(skel)
    wrist = joint_position(pose, skel, skel.joint_index("right_wrist"))
    schedule = ro.GoalSchedule((GoalSpec(wrist + 0.2, 2),
                                GoalSpec(np.array([0.5, 0.6, 1.1]), 12)))
    initial0 = np.stack([pose, pose]) + 0.05 * rng.standard_normal((2, pose.size))
    latents0 = rng.standard_normal((2, duration, model.spec.latent_dim))
    weights = rng.standard_normal((duration + 1, 2, pose.size))

    def loss(initial, latents):
        out = ro.rollout_poses(initial, schedule, duration, model, latents)
        return sum(ag.sum(p * w) for p, w in zip(out.poses, weights))

    initial = ag.Tensor(initial0.copy(), requires_grad=True)
    latents = ag.Tensor(latents0.copy(), requires_grad=True)
    with ag.Tape() as tape:
        total = loss(initial, latents)
    tape.backward(total)
    for tensor, fd in (
            (latents, ag.finite_difference_gradient(
                lambda z: loss(initial0, z), latents0.copy(), h=1e-6)),
            (initial, ag.finite_difference_gradient(
                lambda p: loss(p, latents0), initial0.copy(), h=1e-6))):
        np.testing.assert_allclose(tensor.grad, fd, rtol=1e-5, atol=1e-6)
