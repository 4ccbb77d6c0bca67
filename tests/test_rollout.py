import numpy as np
import pytest

from reachgen import body, evaluation as ev, rollout as ro
from reachgen.body import desk_skeleton, joint_position, rest_pose, rotate_pose_z
from reachgen.errors import InvalidInputError, ModelMismatchError, NumericFault
from reachgen.geometry import rotation_z_matrix
from reachgen.intention import GoalSpec
from reachgen.model import fresh_model


@pytest.fixture(scope="module")
def skel():
    return desk_skeleton()


@pytest.fixture(scope="module")
def model(skel):
    return fresh_model(skel, latent_dim=8, hidden_dim=32, n_layers=3, seed=12)


def goal_at(x, y, z, t=120):
    return GoalSpec(np.array([x, y, z]), t)


def test_duration_one_single_new_pose(model, skel):
    rec = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal_at(1, 1, 1)),
                      duration=1, model=model, rng=np.random.default_rng(0))
    assert rec.sequence.n_frames == 2
    assert rec.latents.shape == (1, model.spec.latent_dim)
    assert rec.goal_indices.shape == (1,)


def test_mean_mode_deterministic(model, skel):
    sched = ro.GoalSchedule.single(goal_at(2, 0, 1))
    a = ro.generate(rest_pose(skel), sched, 30, model, np.random.default_rng(0),
                    mode="mean")
    b = ro.generate(rest_pose(skel), sched, 30, model, np.random.default_rng(99),
                    mode="mean")
    np.testing.assert_array_equal(a.sequence.poses, b.sequence.poses)
    np.testing.assert_array_equal(a.latents, 0.0)


def test_sample_mode_seeded_reproducible(model, skel):
    sched = ro.GoalSchedule.single(goal_at(2, 0, 1))
    a = ro.generate(rest_pose(skel), sched, 20, model, np.random.default_rng(5))
    b = ro.generate(rest_pose(skel), sched, 20, model, np.random.default_rng(5))
    np.testing.assert_array_equal(a.sequence.poses, b.sequence.poses)
    np.testing.assert_array_equal(a.latents, b.latents)


def test_replay_bit_exact(model, skel):
    sched = ro.GoalSchedule.single(goal_at(1.5, 0.5, 1.0))
    rec = ro.generate(rest_pose(skel), sched, 40, model, np.random.default_rng(3))
    seq = ro.replay(rec, model)
    np.testing.assert_array_equal(seq.poses, rec.sequence.poses)


def test_replay_rejects_other_model(model, skel):
    rec = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal_at(1, 0, 1)),
                      10, model, np.random.default_rng(0))
    other = fresh_model(skel, latent_dim=8, hidden_dim=32, n_layers=3, seed=13)
    with pytest.raises(ModelMismatchError):
        ro.replay(rec, other)


def test_perturbing_latent_diverges_from_that_frame_on(model, skel):
    sched = ro.GoalSchedule.single(goal_at(1, 1, 1))
    rec = ro.generate(rest_pose(skel), sched, 30, model, np.random.default_rng(1))
    latents = rec.latents.copy()
    latents[10] += 0.5
    rec2 = ro.with_latents(rec, latents, model)
    # frames up to and including 10 unchanged (pose 10 is produced by z_9)
    np.testing.assert_array_equal(rec2.sequence.poses[:11], rec.sequence.poses[:11])
    assert np.any(rec2.sequence.poses[11] != rec.sequence.poses[11])


def test_causality_goal_change_does_not_touch_past(model, skel):
    a = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal_at(1, 1, 1, t=200)),
                    20, model, np.random.default_rng(7))
    b = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal_at(1, 1, 1, t=200)),
                    40, model, np.random.default_rng(7))
    np.testing.assert_array_equal(a.sequence.poses, b.sequence.poses[:21])


def test_yaw_equivariance_mean_mode(model, skel):
    phi = 0.9
    goal = np.array([1.2, 0.4, 1.0])
    sched = ro.GoalSchedule.single(GoalSpec(goal, 60))
    base = ro.generate(rest_pose(skel), sched, 25, model,
                       np.random.default_rng(0), mode="mean")
    rz = rotation_z_matrix(phi)
    goal_r = rz @ goal
    start_r = rotate_pose_z(rest_pose(skel), phi)
    rot = ro.generate(start_r, ro.GoalSchedule.single(GoalSpec(goal_r, 60)),
                      25, model, np.random.default_rng(0), mode="mean")
    for p, q in zip(base.sequence.poses, rot.sequence.poses):
        np.testing.assert_allclose(rz @ p[0:3], q[0:3], atol=1e-6)
        np.testing.assert_allclose(q[9:], p[9:], atol=1e-6)


def test_on_frame_schedule_advances(model, skel):
    g1 = GoalSpec(np.array([0.5, 0.5, 1.0]), 5)
    g2 = GoalSpec(np.array([-0.5, 0.5, 1.0]), 30)
    sched = ro.GoalSchedule((g1, g2), policy="on_frame")
    rec = ro.generate(rest_pose(skel), sched, 20, model, np.random.default_rng(0))
    assert rec.goal_indices[0] == 0
    assert rec.goal_indices[-1] == 1
    assert np.all(np.diff(rec.goal_indices) >= 0)


def test_on_reach_schedule_advances_only_within_radius(model, skel):
    # teleporting oracle: place the second goal exactly at the current wrist
    pose = rest_pose(skel)
    wrist = np.asarray(joint_position(pose, skel, skel.joint_index("right_wrist")))
    g1 = GoalSpec(wrist, 10)          # already reached at frame 0
    g2 = GoalSpec(wrist + 5.0, 200)   # far away
    sched = ro.GoalSchedule((g1, g2), policy="on_reach", radius=0.10)
    rec = ro.generate(pose, sched, 10, model, np.random.default_rng(0))
    assert rec.goal_indices[0] == 1   # switched immediately
    assert np.all(np.diff(rec.goal_indices) >= 0)
    # far goal: never switches
    sched2 = ro.GoalSchedule((GoalSpec(wrist + 5.0, 10), GoalSpec(wrist + 10.0, 50)),
                             policy="on_reach", radius=0.10)
    rec2 = ro.generate(pose, sched2, 10, model, np.random.default_rng(0))
    assert np.all(rec2.goal_indices == 0)


def test_schedule_radius_is_a_number_not_a_bool():
    with pytest.raises(InvalidInputError, match="radius"):
        ro.GoalSchedule((GoalSpec(np.zeros(3), 10),), radius=True)


def test_on_reach_reads_the_wrist_once_per_frame(model, skel, monkeypatch):
    """The switch test and the condition share one decode of the pose."""
    calls = []
    decode = body._decode

    def counting(rd):
        calls.append(1)
        return decode(rd)

    monkeypatch.setattr(body, "_decode", counting)
    pose = rest_pose(skel)
    sched = ro.GoalSchedule((goal_at(3.0, 3.0, 1.0, 10), goal_at(-3.0, 3.0, 1.0, 40)),
                            policy="on_reach")
    rec = ro.generate(pose, sched, 12, model, np.random.default_rng(0))
    assert np.all(rec.goal_indices == 0)
    assert len(calls) == 12


def test_non_finite_decoder_row_holds_only_that_row(model, skel):
    # an inf latent makes the real decoder MLP's row 1 non-finite at frame
    # 11; the frame's per-row check holds that row and its siblings run on
    goal = ro.GoalSchedule.single(goal_at(1.0, 0.5, 1.0, t=20))
    latents = np.random.default_rng(4).standard_normal((3, 20, model.spec.latent_dim))
    initial = np.tile(rest_pose(skel), (3, 1))
    clean = np.stack(ro.rollout_poses(initial, goal, 20, model, latents).poses, axis=1)
    latents[1, 10] = np.inf
    out = ro.rollout_poses(initial, goal, 20, model, latents)
    assert out.faults[0] is None and out.faults[2] is None
    frame, fault = out.faults[1]
    assert frame == 11 and isinstance(fault, NumericFault)
    assert str(fault) == "non-finite delta (at rollout frame 11)"
    poses = np.stack(out.poses, axis=1)
    np.testing.assert_array_equal(poses[[0, 2]], clean[[0, 2]])
    np.testing.assert_array_equal(poses[1, :11], clean[1, :11])
    np.testing.assert_array_equal(poses[1, 11:], np.broadcast_to(poses[1, 10], (10, 81)))

    single = ro.rollout_poses(rest_pose(skel), goal, 20, model, latents[1])
    with pytest.raises(NumericFault, match=r"non-finite delta \(at rollout frame 11\)"):
        single.raise_fault()


def test_raise_fault_checks_every_row(model, skel):
    # only row 2 of three faults: raise_fault still raises it
    goal = ro.GoalSchedule.single(goal_at(1.0, 0.5, 1.0, t=20))
    latents = np.random.default_rng(4).standard_normal((3, 20, model.spec.latent_dim))
    latents[2, 5] = np.inf
    out = ro.rollout_poses(np.tile(rest_pose(skel), (3, 1)), goal, 20, model, latents)
    assert out.faults[:2] == [None, None]
    with pytest.raises(NumericFault, match=r"non-finite delta \(at rollout frame 6\)"):
        out.raise_fault()


def test_non_finite_delta_raises_numeric_fault_with_its_frame(model, skel,
                                                              monkeypatch):
    mlp = ro._mlp    # the frame's decoder MLP
    calls = []

    def nan_decoder(cfg, params, x, *args, **kwargs):
        calls.append(1)
        delta, vjp = mlp(cfg, params, x, *args, **kwargs)
        delta = np.array(delta)
        if len(calls) == 3:
            delta[..., 4] = np.nan
        return delta, vjp

    monkeypatch.setattr(ro, "_mlp", nan_decoder)
    with pytest.raises(NumericFault, match="rollout frame 3"):
        ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal_at(1, 1, 1)),
                    10, model, np.random.default_rng(0))


@pytest.mark.parametrize("policy", ["on_frame", "on_reach"])
def test_rows_switch_goals_on_their_own(model, skel, policy):
    """Two rows with their own goals and target frames in one rollout: each
    row's goal indices equal those of its batch-1 generate, and its poses
    agree to rounding."""
    pose = rest_pose(skel)
    wrist = np.asarray(joint_position(pose, skel, skel.joint_index("right_wrist")))
    # row 0 starts on its first goal, so on_reach switches it at frame 0
    first = np.stack([wrist, wrist + 3.0])
    second = np.array([[-0.5, 0.5, 1.0], [0.5, -0.5, 1.2]])
    frames = (np.array([4, 9]), np.array([20, 30]))
    rows = [ro.GoalSchedule((GoalSpec(first[r], frames[0][r]),
                             GoalSpec(second[r], frames[1][r])), policy=policy)
            for r in range(2)]
    batched = ro.GoalSchedule((GoalSpec(first, frames[0]),
                               GoalSpec(second, frames[1])), policy=policy)
    recs = [ro.generate(pose, sched, 15, model, np.random.default_rng(r))
            for r, sched in enumerate(rows)]
    out = ro.rollout_poses(np.stack([pose, pose]), batched, 15, model,
                           np.stack([rec.latents for rec in recs]))
    assert out.faults == [None, None]
    goal_idx = np.stack(out.goal_indices, axis=1)
    poses = np.stack(out.poses, axis=1)
    for r, rec in enumerate(recs):
        np.testing.assert_array_equal(goal_idx[r], rec.goal_indices)
        np.testing.assert_allclose(poses[r], rec.sequence.poses, rtol=0, atol=1e-10)
    assert goal_idx[0].tolist() != goal_idx[1].tolist()


# ------------------------------------------------------------ latent draws

def per_frame_latents(rngs, duration, latent_dim, mode="sample"):
    """The reference draw: one default_rng built per frame from its seed."""
    if mode == "mean":
        return np.zeros((len(rngs), duration, latent_dim))
    return np.stack([np.stack([
        np.random.default_rng(int(s)).standard_normal(latent_dim)
        for s in rng.integers(0, 2**63 - 1, size=duration, dtype=np.uint64)])
        for rng in rngs])


class FixedSeeds:
    """A generator stand-in whose frame seeds are the given ones."""

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        assert size == len(self.seeds) and dtype == np.uint64
        return self.seeds


def test_seed_words_and_draws_match_seed_sequence():
    drawn = np.random.default_rng(11).integers(0, 2**63 - 1, size=2000,
                                               dtype=np.uint64)
    seeds = np.concatenate([np.array([0, 1, 2**32 - 1, 2**32, 2**63 - 2],
                                     dtype=np.uint64), drawn])
    words = ro.seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.flags.c_contiguous
    expected = np.stack([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                         for s in seeds])
    np.testing.assert_array_equal(words, expected)
    k = 16
    got = ro.draw_latents([FixedSeeds(seeds)], len(seeds), k, "sample")[0]
    want = np.stack([np.random.default_rng(int(s)).standard_normal(k) for s in seeds])
    assert got.tobytes() == want.tobytes()


def test_generate_draws_the_per_frame_bits(skel, monkeypatch):
    model16 = fresh_model(skel, latent_dim=16, hidden_dim=16, n_layers=2, seed=4)
    sched = ro.GoalSchedule.single(goal_at(1.0, 0.5, 1.0, t=20))

    def run():
        return ro.generate(rest_pose(skel), sched, 30, model16,
                           np.random.default_rng([3, 1]))

    rec = run()
    monkeypatch.setattr(ro, "draw_latents", per_frame_latents)
    ref = run()
    assert rec.latents.tobytes() == ref.latents.tobytes()
    assert rec.sequence.poses.tobytes() == ref.sequence.poses.tobytes()


def small_grid(duration):
    """An evaluation config of one 32-row chunk."""
    cfg = ev.EvalConfig(n_angles=2, n_heights=2, n_distances=2, n_initial_poses=1,
                        samples_per_pair=4, duration=duration,
                        height_range=(0.8, 1.2), distance_range=(0.6, 1.5))
    assert cfg.n_rollouts == ev.ROLLOUT_ROWS
    return cfg


def test_benchmark_chunk_draws_the_per_frame_bits(skel, monkeypatch):
    model16 = fresh_model(skel, latent_dim=16, hidden_dim=16, n_layers=2, seed=4)
    cfg = small_grid(20)
    report = ev.run_benchmark(model16, cfg, seed=5)
    monkeypatch.setattr(ev, "draw_latents", per_frame_latents)
    assert ev.run_benchmark(model16, cfg, seed=5).rows == report.rows


def test_draws_build_no_generator_per_frame(model, skel, monkeypatch):
    """generate builds no default_rng or SeedSequence for its frames, and a
    run_benchmark chunk builds one default_rng per row."""
    counts = {"default_rng": 0, "SeedSequence": 0}
    default_rng = np.random.default_rng

    def counting_default_rng(*args, **kwargs):
        counts["default_rng"] += 1
        return default_rng(*args, **kwargs)

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            counts["SeedSequence"] += 1
            super().__init__(*args, **kwargs)

    rng = np.random.default_rng(0)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    rec = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal_at(1, 1, 1, t=200)),
                      240, model, rng)
    assert rec.duration == 240
    assert counts == {"default_rng": 0, "SeedSequence": 0}
    ev.run_benchmark(model, small_grid(20), seed=0)
    assert counts == {"default_rng": ev.ROLLOUT_ROWS, "SeedSequence": 0}


def test_draw_latents_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        ro.draw_latents([np.random.default_rng(0)], 5, 4, mode="median")
