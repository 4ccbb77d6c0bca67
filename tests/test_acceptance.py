"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers: 1 formula exactness, 2 representation invariants,
3 gradient correctness and 6 benchmark protocol fidelity. Each builds its
own small inputs; none trains a model or runs the command line.
"""
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reachgen import autodiff as ag
from reachgen import dataset as ds
from reachgen import evaluation as ev
from reachgen import latent_opt as lo
from reachgen import rollout as ro
from reachgen import training as tr
from reachgen.autodiff import Tape, Tensor
from reachgen.body import desk_skeleton, integrate_delta, pose_delta, rotate_pose_z
from reachgen.dataset import standing_pose
from reachgen.geometry import matrix_to_sixd
from reachgen.intention import GoalSpec, pelvis_intention, wrist_intention
from reachgen.model import fresh_model
from reachgen.nn import GaussianParams, kl_divergence

SKEL = desk_skeleton()


def _report(name, runtime, detail):
    print(f"\nACCEPTANCE {name}: PASS in {runtime:.1f}s ({detail})")


# ------------------------------------------------------------- criterion 1

def kl_as_written(mu, ls):
    """KL(N(0, I) || N(mu, sigma)) in closed form, the direction the paper
    writes; training uses the standard direction, nn.kl_divergence."""
    return ls + (1.0 + mu * mu) * np.exp(-2.0 * ls) * 0.5 - 0.5


def test_criterion_1_formula_exactness():
    start = time.time()
    rng = np.random.default_rng(101)

    # pelvis intention norm == 2(1 - e^-d) within 1e-12 over 1000 random d
    ds_ = rng.uniform(1e-6, 20.0, size=1000)
    worst = 0.0
    for d in ds_:
        angle = rng.uniform(-np.pi, np.pi)
        goal = np.array([d * np.cos(angle), d * np.sin(angle), rng.normal()])
        out = pelvis_intention(np.zeros(3), goal)
        worst = max(worst, abs(np.linalg.norm(out) - 2.0 * (1.0 - np.exp(-d))))
    assert worst < 1e-12, worst

    # wrist intention == (g - w) / clamp(dt) exactly
    for _ in range(200):
        g = rng.normal(size=3)
        w = rng.normal(size=3)
        t_g = int(rng.integers(0, 300))
        i = int(rng.integers(0, 300))
        out = wrist_intention(w, GoalSpec(g, t_g), i)
        expected = (g - w) / max(t_g - i, 1)
        np.testing.assert_array_equal(out, expected)

    # KL closed forms vs Monte-Carlo (1e6 samples) within 1% for 20 Gaussians
    n = 1_000_000
    mc_rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        mu = mc_rng.normal(scale=1.0)
        ls = mc_rng.normal(scale=0.5)
        sig = np.exp(ls)
        g = GaussianParams(np.array([mu]), np.array([ls]))
        closed_std = float(ag.value(kl_divergence(g)))
        closed_rev = float(kl_as_written(mu, ls))
        if closed_std < 0.05 or closed_rev < 0.05:
            continue  # 1% of a near-zero KL is below Monte-Carlo resolution
        z = mu + sig * mc_rng.standard_normal(n)
        log_q = -0.5 * ((z - mu) / sig) ** 2 - np.log(sig)
        log_p = -0.5 * z ** 2
        mc_std = float(np.mean(log_q - log_p))
        y = mc_rng.standard_normal(n)
        log_p2 = -0.5 * y ** 2
        log_q2 = -0.5 * ((y - mu) / sig) ** 2 - np.log(sig)
        mc_rev = float(np.mean(log_p2 - log_q2))
        assert abs(closed_std - mc_std) <= 0.01 * abs(closed_std)
        assert abs(closed_rev - mc_rev) <= 0.01 * abs(closed_rev)
        checked += 1

    runtime = time.time() - start
    assert runtime < 10.0
    _report("criterion 1 (formula exactness)", runtime,
            f"pelvis worst err {worst:.2e}; 20 KL pairs within 1% of MC")


# ------------------------------------------------------------- criterion 2

def test_criterion_2_representation_invariants():
    start = time.time()
    rng = np.random.default_rng(202)
    n = SKEL.n_rotated
    worst_rt, worst_yaw = 0.0, 0.0
    for k in range(1000):
        rots = Rotation.random(2 * (n + 1), random_state=1000 + k).as_matrix()
        six = matrix_to_sixd(rots)
        p = np.concatenate([rng.normal(scale=2.0, size=3), six[:n + 1].reshape(-1)])
        q = np.concatenate([rng.normal(scale=2.0, size=3), six[n + 1:].reshape(-1)])
        d = pose_delta(p, q)
        q2 = integrate_delta(p, d)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(q2[0:3] - q[0:3]))),
            float(np.max(np.abs(q2[3:9] - q[3:9]))),
            float(np.max(np.abs(q2[9:] - q[9:]))))

        phi = rng.uniform(-np.pi, np.pi)
        d_rot = pose_delta(rotate_pose_z(p, phi), rotate_pose_z(q, phi))
        worst_yaw = max(
            worst_yaw,
            float(np.max(np.abs(d_rot[0:3] - d[0:3]))),
            float(np.max(np.abs(d_rot[3:9] - d[3:9]))),
            float(np.max(np.abs(d_rot[9:] - d[9:]))))
    assert worst_rt < 1e-9, worst_rt
    assert worst_yaw < 1e-6, worst_yaw
    runtime = time.time() - start
    assert runtime < 10.0
    _report("criterion 2 (representation invariants)", runtime,
            f"roundtrip {worst_rt:.2e} < 1e-9; yaw invariance {worst_yaw:.2e} < 1e-6")


# ------------------------------------------------------------- criterion 3

def test_criterion_3_gradient_correctness():
    start = time.time()
    model = fresh_model(SKEL, latent_dim=4, hidden_dim=8, n_layers=2,
                        dropout=0.0, seed=33)
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=1, n_reaching=1, n_walk_reach=0,
                              seed=5), SKEL)
    cfg = tr.TrainConfig(alpha=1e-2, batch_size=2, epochs=1, seed=0,
                         window_len=3, s_max=1, ramp_epochs=1)
    windows = tr.build_training_windows(corpus, cfg, SKEL)[:2]

    def full_loss():
        total, _, _, _ = tr._batch_loss(windows, model, 1, cfg,
                                        np.random.default_rng(0), 0, (0, 2))
        return total

    model.params.zero_grad()
    with Tape() as tape:
        total = full_loss()
    tape.backward(total)
    grads = model.params.gradients()

    worst_rel = 0.0
    n_checked = 0
    for name, param in model.params.items():
        base = param.data.copy()

        def f(v, param=param, base=base):
            param.data = v
            out = float(ag.value(full_loss()))
            param.data = base
            return out

        fd = ag.finite_difference_gradient(f, base.copy(), h=1e-5)
        denom = np.maximum(np.abs(fd), 1e-6)
        worst_rel = max(worst_rel, float(np.max(np.abs(grads[name] - fd) / denom)))
        n_checked += base.size
    assert worst_rel < 1e-4, worst_rel

    # L_opt on a 5-frame rollout: every latent and every decoder parameter
    goal = GoalSpec(np.array([0.8, 0.9, 1.1]), 40)
    rec = ro.generate(standing_pose(SKEL), ro.GoalSchedule.single(goal), 5,
                      model, np.random.default_rng(1))
    objective = lo.OptObjective(goal_weight=1.0, prior_weight=1e-3,
                                waypoints=((3, np.array([0.1, 0.2]), 0.7),))

    latents = Tensor(rec.latents.copy(), requires_grad=True)
    model.params.zero_grad()
    with Tape() as tape:
        l_opt, _, _, _ = lo._objective_terms(latents, rec, goal, objective, model)
    tape.backward(l_opt)

    def f_lat(z):
        val, _, _, _ = lo._objective_terms(z, rec, goal, objective, model)
        return float(ag.value(val))

    fd = ag.finite_difference_gradient(f_lat, rec.latents.copy(), h=1e-5)
    rel = np.abs(latents.grad - fd) / np.maximum(np.abs(fd), 1e-6)
    worst_lat = float(np.max(rel))
    assert worst_lat < 1e-4, worst_lat
    n_checked += rec.latents.size

    opt_grads = model.params.gradients()
    worst_opt = 0.0
    for name, param in model.params.items():
        if not name.startswith("dec"):
            continue  # L_opt never evaluates the encoder
        base = param.data.copy()

        def f(v, param=param, base=base):
            param.data = v
            out = f_lat(rec.latents)
            param.data = base
            return out

        fd = ag.finite_difference_gradient(f, base.copy(), h=1e-5)
        denom = np.maximum(np.abs(fd), 1e-6)
        worst_opt = max(worst_opt, float(np.max(np.abs(opt_grads[name] - fd) / denom)))
        n_checked += base.size
    assert worst_opt < 1e-4, worst_opt

    runtime = time.time() - start
    assert runtime < 120.0
    _report("criterion 3 (gradient correctness)", runtime,
            f"{n_checked} values; worst rel err full loss {worst_rel:.2e}, "
            f"latents {worst_lat:.2e}, L_opt params {worst_opt:.2e}")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_benchmark_protocol_fidelity():
    start = time.time()
    cfg = ev.EvalConfig()
    grid = ev.build_goal_grid(standing_pose(SKEL), cfg)
    assert len(grid.goals) == 125
    assert cfg.n_rollouts == 3750

    from reachgen.body import joint_position, rest_pose

    def sequence_from_translations(skel, offsets):
        poses = np.tile(rest_pose(skel), (len(offsets), 1))
        poses[:, :3] += np.asarray(offsets)
        return ds.MotionSequence(poses, skel, None, "locomotion", "hand")

    wrist0 = np.asarray(joint_position(rest_pose(SKEL), SKEL,
                                       SKEL.joint_index("right_wrist")))
    goal = GoalSpec(wrist0, 100)

    # DTG: min over frames
    seq = sequence_from_translations(SKEL, [[0.5, 0, 0], [0.08, 0, 0], [0.3, 0, 0]])
    assert ev.distance_to_goal(seq, goal, SKEL) == pytest.approx(0.08, abs=1e-12)

    # 10 cm rule
    assert ev.is_success(sequence_from_translations(SKEL, [[0.09, 0, 0]] * 2),
                         goal, SKEL)
    assert not ev.is_success(sequence_from_translations(SKEL, [[0.11, 0, 0]] * 2),
                             goal, SKEL)

    # 0.66 cm/frame rule on a hand-built 4-frame sequence
    steps = np.cumsum([0.0, 0.005, 0.007, 0.006])
    four = sequence_from_translations(SKEL, [[x, 0, 0] for x in steps])
    assert ev.foot_skate(four, SKEL) == pytest.approx(1.0 / 3.0, abs=1e-12)
    static = sequence_from_translations(SKEL, [[0, 0, 0]] * 4)
    assert ev.foot_skate(static, SKEL) == 0.0

    runtime = time.time() - start
    assert runtime < 5.0
    _report("criterion 6 (benchmark protocol fidelity)", runtime,
            "125 goals, 3750 rollouts, hand metric values exact")
