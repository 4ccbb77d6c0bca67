import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from reachgen import dataset as ds
from reachgen import evaluation as ev
from reachgen import rollout
from reachgen import worker as wk
from reachgen.body import desk_skeleton, forward_kinematics, joint_position, rest_pose
from reachgen.errors import DegenerateRotationError, NumericFault, WorkerDiedError
from reachgen.intention import GoalSpec
from reachgen.model import fresh_model
from reachgen.rollout import GoalSchedule, draw_latents, generate, rollout_poses


@pytest.fixture(scope="module")
def skel():
    return desk_skeleton()


def parse_report_csv(path) -> list[ev.EvalRow]:
    """The rows of the report.csv that evaluate writes."""
    rows = []
    with open(path) as f:
        for line in f:
            if line.startswith("#") or line.startswith("pose_id"):
                continue
            p = line.rstrip("\n").split(",")
            rows.append(ev.EvalRow(int(p[0]), float(p[1]), float(p[2]), float(p[3]),
                                   int(p[4]), float(p[5]), bool(int(p[6])), float(p[7]),
                                   p[8]))
    return rows


def sequence_from_translations(skel, offsets):
    """Rest pose rigidly translated per frame; the wrist follows exactly."""
    poses = np.tile(rest_pose(skel), (len(offsets), 1))
    poses[:, :3] += np.asarray(offsets)
    return ds.MotionSequence(poses, skel, None, "locomotion", "hand")


def test_grid_125_goals_and_3750_rollouts(skel):
    cfg = ev.EvalConfig()
    grid = ev.build_goal_grid(rest_pose(skel), cfg)
    assert len(grid.goals) == 125
    assert cfg.n_rollouts == 3750


@pytest.mark.parametrize("field, value", [
    ("n_angles", 0), ("n_heights", -1), ("n_distances", 2.0), ("n_initial_poses", 0),
    ("samples_per_pair", -1), ("duration", 0), ("duration", "240"),
    ("height_range", (1.0,)), ("height_range", (1.3, 0.7)),
    ("height_range", (0.0, float("nan"))), ("distance_range", (0.5, float("inf"))),
    ("distance_range", ("0.5", "5.0")), ("distance_range", 2.0),
    ("height_range", (False, True)),
])
def test_eval_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        ev.EvalConfig(**{field: value})


def test_eval_config_accepts_edge_values():
    cfg = ev.EvalConfig(n_angles=1, duration=1, height_range=(1.0, 1.0),
                        distance_range=[0.8, 0.8])
    assert cfg.n_rollouts == 5 * 5 * 6 * 5
    assert cfg.distance_range == (0.8, 0.8)     # a list is stored as a tuple


def test_grid_values_match_paper_endpoints(skel):
    grid = ev.build_goal_grid(rest_pose(skel), ev.EvalConfig())
    np.testing.assert_allclose(grid.angles,
                               [0, 2 * np.pi / 5, 4 * np.pi / 5, 6 * np.pi / 5,
                                8 * np.pi / 5])
    np.testing.assert_allclose(grid.heights, [0.0, 0.45, 0.90, 1.35, 1.80])
    np.testing.assert_allclose(grid.distances, [0.5, 1.625, 2.75, 3.875, 5.0])


def test_grid_centered_on_pose(skel):
    pose = rest_pose(skel, translation=(3.0, -2.0, 0.9))
    grid = ev.build_goal_grid(pose, ev.EvalConfig())
    # angle 0, height 0, distance 0.5 -> first goal
    np.testing.assert_allclose(grid.goals[0].position, [3.5, -2.0, 0.0])


def test_distance_to_goal_hand_values(skel):
    wrist0 = np.asarray(joint_position(rest_pose(skel), skel,
                                       skel.joint_index("right_wrist")))
    # wrist passes at distances 0.5, 0.08, 0.3 from the goal
    seq = sequence_from_translations(
        skel, [[0.5, 0, 0], [0.08, 0, 0], [0.3, 0, 0]])
    goal = GoalSpec(wrist0, 100)
    assert ev.distance_to_goal(seq, goal, skel) == pytest.approx(0.08, abs=1e-12)


def test_distance_exact_pass_through_is_zero(skel):
    wrist0 = np.asarray(joint_position(rest_pose(skel), skel,
                                       skel.joint_index("right_wrist")))
    seq = sequence_from_translations(skel, [[0.4, 0, 0], [0.0, 0, 0]])
    assert ev.distance_to_goal(seq, GoalSpec(wrist0, 10), skel) == 0.0


def test_static_sequence_constant_distance(skel):
    wrist0 = np.asarray(joint_position(rest_pose(skel), skel,
                                       skel.joint_index("right_wrist")))
    seq = sequence_from_translations(skel, [[0.25, 0, 0]] * 5)
    assert ev.distance_to_goal(seq, GoalSpec(wrist0, 10), skel) == \
        pytest.approx(0.25, abs=1e-12)


def test_success_boundary_rules(skel, monkeypatch):
    wrist0 = np.asarray(joint_position(rest_pose(skel), skel,
                                       skel.joint_index("right_wrist")))
    goal = GoalSpec(wrist0, 10)
    assert ev.is_success(sequence_from_translations(skel, [[0.09, 0, 0]] * 2),
                         goal, skel)
    assert not ev.is_success(sequence_from_translations(skel, [[0.11, 0, 0]] * 2),
                             goal, skel)
    # boundary is inclusive: a sequence at exactly the radius counts
    seq10 = sequence_from_translations(skel, [[0.10, 0, 0]] * 2)
    monkeypatch.setattr(ev, "SUCCESS_RADIUS", ev.distance_to_goal(seq10, goal, skel))
    assert ev.is_success(seq10, goal, skel)


def test_foot_skate_hand_values(skel):
    # static -> 0
    static = sequence_from_translations(skel, [[0, 0, 0]] * 6)
    assert ev.foot_skate(static, skel) == 0.0
    # lowest joint sliding 1 cm/frame -> 1.0
    sliding = sequence_from_translations(
        skel, [[0.01 * k, 0, 0] for k in range(6)])
    assert ev.foot_skate(sliding, skel) == 1.0
    # displacements 0.5, 0.7, 0.6 cm -> exactly one above 0.66 -> 1/3
    steps = np.cumsum([0.0, 0.005, 0.007, 0.006])
    four = sequence_from_translations(skel, [[x, 0, 0] for x in steps])
    assert ev.foot_skate(four, skel) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_metrics_permutation_invariant(skel):
    rows = [
        ev.EvalRow(0, 0.0, 0.0, 0.5, 0, 8.0, True, 0.1),
        ev.EvalRow(0, 0.0, 0.0, 1.0, 0, 20.0, False, 0.2),
        ev.EvalRow(1, 1.0, 0.5, 0.5, 0, 12.0, False, 0.0),
    ]
    a = ev.summarize(rows)
    b = ev.summarize(rows[::-1])
    assert a.sr == b.sr and a.fs == b.fs and a.dtg_cm == b.dtg_cm
    assert a.sr_by_distance == b.sr_by_distance


def test_sr_recomputable_from_rows(skel):
    rows = [ev.EvalRow(0, 0.0, 0.0, 0.5, i, d, d <= 10.0, 0.0)
            for i, d in enumerate([5.0, 9.0, 10.0, 11.0, 30.0])]
    rep = ev.summarize(rows)
    assert rep.sr == pytest.approx(3 / 5)
    assert rep.dtg_cm == pytest.approx(np.mean([5, 9, 10, 11, 30]))


def test_benchmark_oracle_teleporting_wrist(skel, monkeypatch):
    """A generator whose wrist lands on every goal gives SR=1, DTG=0."""
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=1, seed=0)
    cfg = ev.EvalConfig(n_angles=2, n_heights=2, n_distances=2,
                        n_initial_poses=1, samples_per_pair=1, duration=3,
                        height_range=(0.5, 1.0), distance_range=(0.5, 1.0))

    wrist_idx = skel.joint_index("right_wrist")

    def oracle_metrics(model, cfg, tasks):
        wrist_rest = np.asarray(joint_position(rest_pose(skel), skel, wrist_idx))
        rows = []
        for task in tasks:
            # translate the whole body so the wrist sits exactly on the goal
            seq = sequence_from_translations(
                skel, [task.goal.position - wrist_rest] * 3)
            dtg = ev.distance_to_goal(seq, task.goal, skel)
            rows.append(ev.EvalRow(task.pose_id, *task.combo, task.sample,
                                   dtg * 100.0, dtg <= ev.SUCCESS_RADIUS, 0.0))
        return rows

    monkeypatch.setattr(ev, "_chunk_metrics", oracle_metrics)
    report = ev.run_benchmark(model, cfg, seed=1)
    assert len(report.rows) == 8
    assert report.sr == 1.0
    assert report.dtg_cm == pytest.approx(0.0, abs=1e-9)


def test_benchmark_seeded_determinism(skel):
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=3)
    cfg = ev.EvalConfig(n_angles=2, n_heights=1, n_distances=1,
                        n_initial_poses=1, samples_per_pair=2, duration=5,
                        height_range=(1.0, 1.0), distance_range=(1.0, 1.0))
    a = ev.run_benchmark(model, cfg, seed=7)
    b = ev.run_benchmark(model, cfg, seed=7)
    assert a.rows == b.rows
    c = ev.run_benchmark(model, cfg, seed=8)
    assert a.rows != c.rows


def test_report_emission_and_reparse(tmp_path, skel):
    rows = [ev.EvalRow(0, 0.0, 0.9, 0.5, 0, 7.5, True, 0.01),
            ev.EvalRow(0, np.pi, 0.9, 0.5, 0, 22.0, False, 0.03)]
    report = ev.summarize(rows)
    paths = ev.emit_report(report, tmp_path / "out")
    assert len(paths) == 5
    parsed = parse_report_csv(paths[0])
    assert len(parsed) == 2
    assert parsed[0].dtg_cm == 7.5
    assert parsed[1].success is False
    # byte-stable
    paths2 = ev.emit_report(report, tmp_path / "out2")
    assert (tmp_path / "out" / "report.csv").read_bytes() == \
        (tmp_path / "out2" / "report.csv").read_bytes()
    svg = (tmp_path / "out" / "sr_by_angle.svg").read_text()
    assert svg.startswith("<svg")


def test_corpus_scores_low_fs(skel):
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=8, n_reaching=3, n_walk_reach=3, seed=2),
        skel)
    values = [ev.foot_skate(seq, skel) for seq in corpus]
    assert float(np.mean(values)) < 0.02


def test_degenerate_rotation_mid_rollout_fails_one_row(skel, monkeypatch):
    """A rollout whose root 6D collapses becomes a failed row; the rest of
    the benchmark still runs."""
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=3)
    cfg = ev.EvalConfig(n_angles=2, n_heights=1, n_distances=1,
                        n_initial_poses=1, samples_per_pair=1, duration=8,
                        height_range=(1.0, 1.0), distance_range=(1.0, 1.0))
    mlp = rollout._mlp    # the frame's decoder MLP, over [latent | condition]
    calls = []

    def collapsing_decoder(cfg, params, x, *args, **kwargs):
        delta, vjp = mlp(cfg, params, x, *args, **kwargs)
        delta = np.array(delta)
        cond_vec = x[..., model.spec.latent_dim:]
        calls.append(1)
        if len(calls) == 4:
            # the condition holds the yaw-canonical root 6D at [1:7], so this
            # root delta cancels the first row's root orientation on
            # integration; generate decodes one unbatched row and
            # run_benchmark (B, ...) rows, one decode call per frame
            np.atleast_2d(delta)[0, 3:9] = -np.atleast_2d(cond_vec)[0, 1:7]
        return delta, vjp

    monkeypatch.setattr(rollout, "_mlp", collapsing_decoder)
    goal = GoalSpec(np.array([1.0, 0.0, 1.0]), cfg.duration)
    with pytest.raises(DegenerateRotationError):
        generate(rest_pose(skel), GoalSchedule.single(goal), cfg.duration, model,
                 np.random.default_rng(0))

    calls.clear()
    report = ev.run_benchmark(model, cfg, seed=1)
    assert report.n_failures == 1
    failed, ok = report.rows
    assert failed.dtg_cm == float("inf") and failed.fs == 1.0 and not failed.success
    assert np.isfinite(ok.dtg_cm)


def test_report_keeps_failed_rows_error_and_fs_ok(tmp_path):
    rows = [ev.EvalRow(0, 0.0, 0.9, 0.5, 0, 7.5, True, 0.25),
            ev.EvalRow(0, np.pi, 0.9, 0.5, 0, float("inf"), False, 1.0,
                       "NumericFault@rollout frame 7")]
    report = ev.summarize(rows)
    assert report.n_failures == 1
    assert report.fs == 0.625 and report.fs_ok == 0.25
    assert report.dtg_cm == 7.5
    paths = ev.emit_report(report, tmp_path)
    assert parse_report_csv(paths[0]) == rows
    assert "fs_ok,0.25\n" in (tmp_path / "aggregates.csv").read_text()


def test_chunk_rows_match_batch1_generate_within_tolerance(skel):
    """Every row of one chunk against a batch-1 generate of its seed key,
    40 frames, desk-size model. OpenBLAS rounds a 12-row matmul differently
    from a 1-row one and the closed loop amplifies it: measured at most
    2.0e-13 in pose over four model seeds, so the bound leaves 500x."""
    model = fresh_model(skel, latent_dim=16, hidden_dim=64, n_layers=4, seed=0)
    cfg = ev.EvalConfig(n_angles=3, n_heights=2, n_distances=2,
                        n_initial_poses=1, samples_per_pair=1, duration=40,
                        height_range=(0.8, 1.2), distance_range=(0.6, 1.5))
    pose = ev.default_initial_poses(skel, 1)[0]
    grid = ev.build_goal_grid(pose, cfg)
    keys = [[7, 0, g, 0] for g in range(len(grid.goals))]
    assert len(keys) <= ev.ROLLOUT_ROWS    # one chunk
    latents = draw_latents([np.random.default_rng(k) for k in keys], 40, 16)
    goal = GoalSpec(np.stack([g.position for g in grid.goals]), 40)
    out = rollout_poses(np.tile(pose, (len(keys), 1)), GoalSchedule.single(goal),
                        40, model, latents)
    assert out.faults == [None] * len(keys)
    chunk = np.stack(out.poses, axis=1)
    report = ev.run_benchmark(model, cfg, [pose], seed=7)
    for row, goal_k, key, chunk_row in zip(report.rows, grid.goals, keys, chunk):
        rec = generate(pose, GoalSchedule.single(goal_k), 40, model,
                       np.random.default_rng(key))
        np.testing.assert_allclose(chunk_row, rec.sequence.poses, rtol=0, atol=1e-10)
        dtg = ev.distance_to_goal(rec.sequence, goal_k, skel)
        assert row.dtg_cm == pytest.approx(dtg * 100.0, rel=0, abs=1e-8)
        assert row.fs == ev.foot_skate(rec.sequence, skel)


def test_faulting_row_leaves_siblings_bit_identical(skel, monkeypatch):
    """Row 1 collapses its root 6D at frame 4 and row 2 decodes NaN at frame
    7; both are held, and rows 0 and 3 keep every bit of the clean chunk."""
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=3)
    cfg = ev.EvalConfig(n_angles=4, n_heights=1, n_distances=1,
                        n_initial_poses=1, samples_per_pair=1, duration=12,
                        height_range=(1.0, 1.0), distance_range=(1.0, 1.0))
    pose = ev.default_initial_poses(skel, 1)[0]
    grid = ev.build_goal_grid(pose, cfg)
    latents = np.random.default_rng(0).standard_normal((4, 12, 4))
    goal = GoalSpec(np.stack([g.position for g in grid.goals]), 12)

    def chunk():
        return rollout_poses(np.tile(pose, (4, 1)), GoalSchedule.single(goal), 12, model,
                             latents)

    clean = chunk()
    clean_rows = ev.run_benchmark(model, cfg, seed=1).rows
    mlp = rollout._mlp    # the frame's decoder MLP, over [latent | condition]
    calls = []

    def faulting_decoder(cfg, params, x, *args, **kwargs):
        delta, vjp = mlp(cfg, params, x, *args, **kwargs)
        delta = np.array(delta)
        cond_vec = x[..., model.spec.latent_dim:]
        calls.append(1)
        if len(calls) == 4:
            delta[1, 3:9] = -cond_vec[1, 1:7]
        if len(calls) == 7:
            delta[2, 5] = np.nan
        return delta, vjp

    monkeypatch.setattr(rollout, "_mlp", faulting_decoder)
    out = chunk()
    assert [f and (f[0], type(f[1])) for f in out.faults] == \
        [None, (4, DegenerateRotationError), (7, NumericFault), None]
    poses, clean_poses = np.stack(out.poses, axis=1), np.stack(clean.poses, axis=1)
    np.testing.assert_array_equal(poses[[0, 3]], clean_poses[[0, 3]])
    np.testing.assert_array_equal(poses[1, 3:], np.broadcast_to(poses[1, 3], (10, 81)))
    np.testing.assert_array_equal(poses[2, 6:], np.broadcast_to(poses[2, 6], (7, 81)))

    calls.clear()
    report = ev.run_benchmark(model, cfg, seed=1)
    assert [r.error for r in report.rows] == [
        "", "DegenerateRotationError@rollout frame 4",
        "NumericFault@rollout frame 7", ""]
    assert report.rows[0] == clean_rows[0] and report.rows[3] == clean_rows[3]
    assert report.n_failures == 2


def test_non_finite_latent_fails_one_row_of_its_chunk(skel, monkeypatch):
    """The real decoder MLP going non-finite on one row fails that row
    alone; the chunk's other rows keep their bits."""
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=3)
    cfg = ev.EvalConfig(n_angles=2, n_heights=1, n_distances=2,
                        n_initial_poses=1, samples_per_pair=1, duration=12,
                        height_range=(1.0, 1.0), distance_range=(0.5, 1.0))
    clean = ev.run_benchmark(model, cfg, seed=1).rows

    def draw_with_inf(*args):
        latents = draw_latents(*args)
        latents[2, 6] = np.inf
        return latents

    monkeypatch.setattr(ev, "draw_latents", draw_with_inf)
    report = ev.run_benchmark(model, cfg, seed=1)
    assert report.n_failures == 1
    assert [r.error for r in report.rows] == ["", "", "NumericFault@rollout frame 7", ""]
    assert [report.rows[i] for i in (0, 1, 3)] == [clean[i] for i in (0, 1, 3)]


@pytest.fixture
def fresh_worker():
    """A worker forked inside the test, so it runs the test's patches, and
    stopped after it, so no later test does."""
    wk._stop_worker()
    yield
    wk._stop_worker()


def two_chunk_benchmark(skel, monkeypatch):
    """(model, config) of a benchmark of two one-row chunks, run as two
    halves, the second in the worker."""
    monkeypatch.setattr(ev, "ROLLOUT_ROWS", 1)
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=5)
    cfg = ev.EvalConfig(n_angles=2, n_heights=1, n_distances=1,
                        n_initial_poses=1, samples_per_pair=1, duration=6,
                        height_range=(1.0, 1.0), distance_range=(1.0, 1.0))
    return model, cfg


def test_report_identical_for_any_worker_count(skel, monkeypatch, tmp_path, fresh_worker):
    # 9 rollouts in chunks of 2: five chunks, split 3/2 between two processes
    monkeypatch.setattr(ev, "ROLLOUT_ROWS", 2)
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=5)
    cfg = ev.EvalConfig(n_angles=3, n_heights=1, n_distances=1,
                        n_initial_poses=1, samples_per_pair=3, duration=6,
                        height_range=(1.0, 1.0), distance_range=(1.0, 1.0))
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / str(workers)
        ev.emit_report(ev.run_benchmark(model, cfg, seed=4, workers=workers), out)
        outputs.append([(out / name).read_bytes()
                        for name in ("report.csv", "aggregates.csv")])
        assert (wk._worker is None) == (workers == 1)
    assert outputs[0] == outputs[1] == outputs[2]


chunk_metrics = ev._chunk_metrics


def dying_chunk(model, cfg, tasks):
    """_chunk_metrics, but the worker exits."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return chunk_metrics(model, cfg, tasks)


def test_dead_worker_raises(skel, monkeypatch, fresh_worker):
    model, cfg = two_chunk_benchmark(skel, monkeypatch)
    monkeypatch.setattr(ev, "_chunk_metrics", dying_chunk)
    with pytest.raises(WorkerDiedError, match="exited with code 3"):
        ev.run_benchmark(model, cfg)
    assert wk._worker is None


def thread_count_rows(model, cfg, tasks):
    """_chunk_metrics, each row's error naming the process that ran it and
    its OpenBLAS thread count."""
    get = wk._blas_thread_calls()[0]
    return [dataclasses.replace(row, error=f"{os.getpid()}:{get()}")
            for row in chunk_metrics(model, cfg, tasks)]


def test_chunks_run_with_one_blas_thread_in_either_process(skel, monkeypatch,
                                                          fresh_worker):
    calls = wk._blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread-count calls to set")
    get, put = calls
    model, cfg = two_chunk_benchmark(skel, monkeypatch)
    monkeypatch.setattr(ev, "_chunk_metrics", thread_count_rows)
    before = get()
    put(2)
    try:
        rows = ev.run_benchmark(model, cfg).rows
        assert get() == 2
    finally:
        put(before)
    pids, threads = zip(*(row.error.split(":") for row in rows))
    assert threads == ("1", "1")
    assert pids[0] == str(os.getpid()) != pids[1]
