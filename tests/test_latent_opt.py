from dataclasses import replace

import numpy as np
import pytest

from reachgen import autodiff as ag
from reachgen import latent_opt as lo
from reachgen import rollout as ro
from reachgen.autodiff import Tape, Tensor
from reachgen.body import desk_skeleton, joint_position, rest_pose
from reachgen.errors import InvalidInputError, NumericFault
from reachgen.intention import GoalSpec
from reachgen.model import fresh_model


@pytest.fixture(scope="module")
def skel():
    return desk_skeleton()


@pytest.fixture(scope="module")
def model(skel):
    return fresh_model(skel, latent_dim=6, hidden_dim=24, n_layers=2,
                       dropout=0.0, seed=21)


@pytest.fixture(scope="module")
def short_record(model, skel):
    goal = GoalSpec(np.array([1.0, 0.8, 1.1]), 40)
    return ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal), 5,
                       model, np.random.default_rng(2))


def test_prior_only_keeps_zero_latents(model, skel, short_record):
    zero_rec = ro.with_latents(short_record, np.zeros_like(short_record.latents), model)
    goal = GoalSpec(np.array([1.0, 0.8, 1.1]), 40)
    objective = lo.OptObjective(goal_weight=0.0, prior_weight=1.0)
    refined, report = lo.optimize_latents(zero_rec, goal, objective, model,
                                          steps=10, lr=1e-2)
    np.testing.assert_array_equal(refined.latents, 0.0)
    assert report.l_norm[-1] == 0.0


def test_lopt_gradient_matches_finite_differences(model, skel, short_record):
    # 5-frame rollout, 2-layer decoder: every latent entry
    goal = GoalSpec(np.array([0.6, 0.7, 1.2]), 30)
    objective = lo.OptObjective(goal_weight=1.0, prior_weight=1e-3,
                                waypoints=((3, np.array([0.2, 0.3]), 0.5),))
    z0 = short_record.latents.copy()

    t = Tensor(z0, requires_grad=True)
    with Tape() as tape:
        total, _, _, _ = lo._objective_terms(t, short_record, goal, objective, model)
    tape.backward(total)

    def f(z):
        val, _, _, _ = lo._objective_terms(z, short_record, goal, objective, model)
        return float(ag.value(val))

    fd = ag.finite_difference_gradient(f, z0.copy(), h=1e-5)
    rel = np.abs(t.grad - fd) / np.maximum(np.abs(fd), 1e-8)
    assert np.max(rel) < 1e-4, np.max(rel)


def test_goal_gradient_reaches_every_frame(model, short_record):
    goal = GoalSpec(np.array([2.0, 2.0, 1.5]), 30)  # unmet goal
    objective = lo.OptObjective(goal_weight=1.0, prior_weight=0.0)
    t = Tensor(short_record.latents.copy(), requires_grad=True)
    with Tape() as tape:
        total, _, l_goal, _ = lo._objective_terms(t, short_record, goal,
                                                  objective, model)
    tape.backward(total)
    per_frame = np.linalg.norm(t.grad, axis=1)
    assert np.all(per_frame > 0), per_frame


def test_huge_prior_pulls_latents_toward_zero(model, short_record):
    goal = GoalSpec(np.array([0.6, 0.7, 1.2]), 30)
    objective = lo.OptObjective(goal_weight=1.0, prior_weight=1e6)
    refined, _ = lo.optimize_latents(short_record, goal, objective, model,
                                     steps=60, lr=5e-2)
    assert np.linalg.norm(refined.latents) < 0.05 * np.linalg.norm(short_record.latents)


def test_optimization_reduces_final_distance(model, skel):
    goal = GoalSpec(np.array([0.8, 0.9, 1.2]), 60)
    rec = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal), 30,
                      model, np.random.default_rng(8))
    before = lo.final_wrist_distance(rec, goal, model)
    refined, report = lo.optimize_latents(
        rec, goal, lo.OptObjective(), model, steps=60, lr=1e-2)
    after = report.final_distance
    assert after < before
    np.testing.assert_allclose(lo.final_wrist_distance(refined, goal, model),
                               after, atol=1e-12)


@pytest.mark.parametrize("fields", [
    {"goal_weight": float("nan")}, {"goal_weight": -1.0},
    {"prior_weight": float("inf")}, {"prior_weight": float("nan")},
    {"goal_weight": True}, {"prior_weight": "1e-3"},
    {"waypoints": ((3, np.zeros(2), True),)}, {"waypoints": ((3, np.zeros(2), "1"),)},
    {"waypoints": ((3, np.zeros(2), float("nan")),)},
    {"waypoints": ((3, np.zeros(2), -0.5),)},
    {"waypoints": ((3, np.array([0.0, float("inf")]), 1.0),)},
    {"waypoints": ((3, np.zeros(3), 1.0),)},
    {"waypoints": ((10, 5.0, 1.0),)},
    {"waypoints": ((2.5, np.zeros(2), 1.0),)},
    {"waypoints": ((-1, np.zeros(2), 1.0),)},
    {"waypoints": ((3, np.zeros(2)),)},
])
def test_objective_rejects_non_finite_or_negative_terms(fields):
    with pytest.raises(InvalidInputError):
        lo.OptObjective(**fields)


def test_waypoint_past_the_duration_fails_before_any_rollout(model, short_record,
                                                            monkeypatch):
    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out")

    monkeypatch.setattr(lo, "rollout_poses", no_rollout)
    monkeypatch.setattr(lo, "with_latents", no_rollout)
    goal = GoalSpec(np.array([1.0, 0.8, 1.1]), 40)
    past = lo.OptObjective(waypoints=((short_record.duration + 1, np.zeros(2), 1.0),))
    for steps in (0, 1):
        with pytest.raises(InvalidInputError, match="outside rollout duration"):
            lo.optimize_latents(short_record, goal, past, model, steps=steps, lr=1e-2)


def test_refinement_rolls_out_the_records_own_schedule(model, skel):
    """A 2-goal record: the first step's goal term is the squared final
    wrist distance of the record itself, not of a single-goal rollout."""
    first = GoalSpec(np.array([0.9, -0.6, 1.0]), 15)
    goal = GoalSpec(np.array([-0.6, 0.9, 1.2]), 30)
    record = ro.generate(rest_pose(skel), ro.GoalSchedule((first, goal)), 30,
                         model, np.random.default_rng(3))
    assert record.goal_indices[0] == 0 and record.goal_indices[-1] == 1
    _, report = lo.optimize_latents(record, goal, lo.OptObjective(), model,
                                    steps=1, lr=1e-12)
    wrist = joint_position(record.sequence.poses[-1], skel,
                           skel.joint_index("right_wrist"))
    gap = wrist - goal.position
    assert report.l_goal[0] == np.sum(gap * gap)


def test_waypoint_optimization_reduces_xy_error(model, skel):
    goal = GoalSpec(np.array([0.5, 1.2, 1.1]), 60)
    rec = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal), 24,
                      model, np.random.default_rng(6))
    frame = 12
    pelvis = rec.sequence.poses[frame][:2]
    target_xy = pelvis + np.array([0.3, -0.2])
    objective = lo.OptObjective(goal_weight=0.2, prior_weight=1e-4,
                                waypoints=((frame, target_xy, 2.0),))
    before = np.linalg.norm(pelvis - target_xy)
    refined, report = lo.optimize_latents(rec, goal, objective, model,
                                          steps=60, lr=2e-2)
    after = np.linalg.norm(refined.sequence.poses[frame][:2] - target_xy)
    assert after < before
    assert report.l_waypoint[-1] < report.l_waypoint[0]


def test_report_csv(tmp_path, model, short_record):
    goal = GoalSpec(np.array([0.6, 0.7, 1.2]), 30)
    _, report = lo.optimize_latents(short_record, goal, lo.OptObjective(),
                                    model, steps=5, lr=1e-2)
    path = tmp_path / "opt.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,l_opt,l_norm,l_goal,l_waypoint,wrist_distance"
    assert len(lines) == 6


@pytest.mark.parametrize("steps,lr", [(-2, 1e-2), (1, 0.0), (1, -1e-2),
                                      (1, float("nan")), (1, float("inf")), (1, True)])
def test_optimize_rejects_negative_steps_and_bad_lr(model, short_record, steps, lr):
    goal = GoalSpec(np.array([1.0, 0.8, 1.1]), 40)
    with pytest.raises(InvalidInputError):
        lo.optimize_latents(short_record, goal, lo.OptObjective(), model,
                            steps=steps, lr=lr)


def test_zero_steps_returns_the_record_unchanged(model, short_record):
    goal = GoalSpec(np.array([1.0, 0.8, 1.1]), 40)
    refined, report = lo.optimize_latents(short_record, goal, lo.OptObjective(), model,
                                          steps=0, lr=1e-2)
    assert report.iterations == 0
    np.testing.assert_array_equal(refined.sequence.poses, short_record.sequence.poses)


def test_report_csv_cells_parse_as_floats(tmp_path, model, short_record):
    goal = GoalSpec(np.array([0.6, 0.7, 1.2]), 30)
    _, report = lo.optimize_latents(short_record, goal, lo.OptObjective(),
                                    model, steps=3, lr=1e-2)
    path = tmp_path / "opt.csv"
    report.to_csv(path)
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    values = [[float(cell) for cell in row] for row in rows]
    assert len(values) == 3 and all(len(row) == 6 for row in values)
    np.testing.assert_array_equal([row[5] for row in values],
                                  np.sqrt(report.l_goal))


def assert_model_untouched(model):
    for name, param in model.params.items():
        assert param.grad is None, name
        assert param.requires_grad is True, name


def test_optimize_latents_leaves_the_model_as_it_found_it(skel):
    """The model is frozen for the steps: no parameter gradient is kept,
    and every parameter requires gradients again afterwards, also when a
    step raises."""
    model = fresh_model(skel, latent_dim=6, hidden_dim=24, n_layers=2,
                        dropout=0.0, seed=22)
    goal = GoalSpec(np.array([1.0, 0.8, 1.1]), 40)
    rec = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal), 5,
                      model, np.random.default_rng(3))
    refined, _ = lo.optimize_latents(rec, goal, lo.OptObjective(), model, steps=2,
                                     lr=1e-2)
    assert np.any(refined.latents != rec.latents)
    assert_model_untouched(model)
    outside = lo.OptObjective(waypoints=((rec.duration + 1, np.zeros(2), 1.0),))
    with pytest.raises(ValueError, match="outside rollout duration"):
        lo.optimize_latents(rec, goal, outside, model, steps=2, lr=1e-2)
    assert_model_untouched(model)
    # non-finite latents make the first step's decoder raise
    with pytest.raises(NumericFault):
        lo.optimize_latents(replace(rec, latents=np.full_like(rec.latents, np.nan)),
                            goal, lo.OptObjective(), model, steps=2, lr=1e-2)
    assert_model_untouched(model)
