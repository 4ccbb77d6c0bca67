"""Tape-node budgets of the recorded workloads.

Node counts are deterministic and do not depend on the machine, so they pin
the size of the autodiff graph. The budgets are the measured counts: 102
nodes for a 90-frame latent refinement (one fused node a frame, 12 for the
objective), and for one shard of a 32-window training step, the tape each
of its TRAIN_SHARDS shards records, 287 at s=10 and 37 at s=0. A change
that records more nodes fails here; one that records fewer should lower
the budget.
"""
import numpy as np
import pytest

from reachgen import dataset as ds
from reachgen import latent_opt as lo
from reachgen import rollout as ro
from reachgen import training
from reachgen.autodiff import Tape, Tensor
from reachgen.body import desk_skeleton
from reachgen.cli import PRESETS
from reachgen.intention import GoalSpec
from reachgen.model import fresh_model

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
    assert len(tape) <= 102


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
        shard = training._shard_windows(windows, np.arange(lo, hi), s > 0)
        with Tape() as tape:
            training._batch_loss(shard, desk_model, s, cfg, np.random.default_rng(0),
                                 dropout_seed=0, batch_rows=(lo, len(windows)))
        nodes[s] = len(tape)
    assert nodes[0] <= 37
    assert nodes[10] <= 287
