"""Tape-node budgets of the recorded workloads.

Node counts are deterministic and do not depend on the machine, so they pin
the size of the autodiff graph. The budgets are the measured counts: 101
nodes for a 90-frame latent refinement (one fused node a frame, 11 for the
objective), and for one shard of a 32-window training step, the tape each
of its TRAIN_SHARDS shards records, 36 at s=0 and 60 at s=10, where the
ten rollout steps add one fused node a frame and one loss over all ten. A
change that records more nodes fails here; one that records fewer should
lower the budget. A last guard checks that these workloads record every op
the tape offers, so no op outlives its last recorded caller.
"""
import inspect

import numpy as np
import pytest

from reachgen import autodiff as ag
from reachgen import dataset as ds
from reachgen import latent_opt as lo
from reachgen import rollout as ro
from reachgen import training
from reachgen import worker
from reachgen.autodiff import Tape, Tensor
from reachgen.body import desk_skeleton
from reachgen.cli import PRESETS
from reachgen.intention import GoalSpec
from reachgen.model import fresh_model
from reachgen.nn import AdamState

DESK = PRESETS["desk"]


@pytest.fixture(scope="module")
def desk_model():
    return fresh_model(desk_skeleton(), seed=1, **DESK["model"])


def test_latent_refinement_tape_budget(desk_model):
    goal = GoalSpec(np.array([0.9, 0.4, 1.1]), 90)
    record = ro.generate(ds.standing_pose(desk_model.skeleton),
                         ro.GoalSchedule.single(goal), 90, desk_model,
                         np.random.default_rng(1))
    latents = Tensor(record.latents.copy(), requires_grad=True)
    with Tape() as tape:
        lo._objective_terms(latents, record, goal, lo.OptObjective(), desk_model)
    assert len(tape) <= 101


def test_training_step_tape_budgets(desk_model):
    skel = desk_model.skeleton
    cfg = training.TrainConfig(seed=1, **{**DESK["train"], "windows_per_sequence": 8})
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(seed=1, n_locomotion=2, n_reaching=1, n_walk_reach=1), skel)
    windows = training.build_training_windows(corpus, cfg, skel)[:cfg.batch_size]
    assert (len(windows), windows.deltas.shape[1]) == (32, 40)
    lo, hi = training._shard_bounds(len(windows))[0]
    nodes = {}
    for s in (0, 10):
        with Tape() as tape:
            training._batch_loss(windows[lo:hi], desk_model, s, cfg,
                                 np.random.default_rng(0), dropout_seed=0,
                                 batch_rows=(lo, len(windows)))
        nodes[s] = len(tape)
    assert nodes[0] <= 36
    assert nodes[10] <= 60


# autodiff's public functions that are helpers, not ops
NOT_OPS = {"value", "unbroadcast", "finite_difference_gradient"}


def tape_ops():
    """(owner, attribute, name) of every autodiff op and Tensor operator."""
    ops = [(ag, name, name) for name, fn in vars(ag).items()
           if inspect.isfunction(fn) and fn.__module__ == ag.__name__
           and not name.startswith("_") and name not in NOT_OPS]
    ops += [(Tensor, name, f"Tensor.{name}") for name, fn in vars(Tensor).items()
            if inspect.isfunction(fn) and name.startswith("__")
            and name not in ("__init__", "__repr__")]
    return ops


def test_every_tape_op_is_recorded(monkeypatch):
    """Spy on every op during an s=0 and an s>0 training step, both shards
    in this process, and one latent refinement step with a waypoint; each
    op must add a node to the active tape at least once."""
    ops = tape_ops()
    recorded = set()

    def spy(fn, name):
        def wrapper(*args, **kwargs):
            tape = Tape._stack[-1] if Tape._stack else None
            before = len(tape) if tape is not None else 0
            out = fn(*args, **kwargs)
            if tape is not None and len(tape) > before:
                recorded.add(name)
            return out
        return wrapper

    for owner, attr, name in ops:
        monkeypatch.setattr(owner, attr, spy(vars(owner)[attr], name))
    monkeypatch.setattr(worker, "_process_count", lambda: 1)

    skel = desk_skeleton()
    model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=2)
    cfg = training.TrainConfig(seed=2, batch_size=4, window_len=12, ramp_epochs=1)
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(seed=2, n_locomotion=2, n_reaching=1, n_walk_reach=1), skel)
    windows = training.build_training_windows(corpus, cfg, skel)[:4]
    adam = AdamState(cfg.lr_base, cfg.lr_final, total_steps=2)
    for epoch in (0, 1):
        training.train_epoch(windows, model, adam, epoch, cfg)
    assert [training.rollout_steps_for_epoch(e, cfg) for e in (0, 1)] == [0, 10]

    goal = GoalSpec(np.array([0.9, 0.4, 1.1]), 20)
    record = ro.generate(ds.standing_pose(skel), ro.GoalSchedule.single(goal), 20,
                         model, np.random.default_rng(2))
    objective = lo.OptObjective(waypoints=((10, np.array([0.3, 0.2]), 1.0),))
    lo.optimize_latents(record, goal, objective, model, steps=1)

    unrecorded = {name for *_, name in ops} - recorded
    assert unrecorded == set(), "tape ops that no step records"
