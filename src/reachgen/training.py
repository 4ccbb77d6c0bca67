"""Training loop: per-frame auto-encoding of deltas with goal-conditioned
conditions, plus a scheduled-rollout curriculum that feeds the model's own
integrated predictions back in for up to s steps per window.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ag
from .autodiff import Tape
from .body import Skeleton, forward_kinematics, integrate_delta, pose_delta
from .dataset import MotionSequence, TrainingWindow, sample_training_window
from .errors import NumericFault, SkipWindow
from .intention import GoalSpec, assemble_condition
from .model import (LossBreakdown, MotionModel, compute_loss, decode, encode,
                    fresh_model)
from .nn import AdamState, adam_step, reparameterize


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults; the paper-scale preset lives in cli presets."""

    alpha: float = 1e-2
    batch_size: int = 32
    epochs: int = 60
    lr_base: float = 1e-3
    lr_final: float = 1e-4
    s_max: int = 10
    ramp_epochs: int = 50
    seed: int = 0
    window_len: int = 40
    windows_per_sequence: int = 1
    kl_direction: str = "standard"
    hindsight_horizon: tuple[int, int] = (15, 150)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.ramp_epochs <= 0 or self.s_max < 0:
            raise ValueError("rollout schedule parameters must be positive")


def rollout_steps_for_epoch(epoch: int, cfg: TrainConfig) -> int:
    """s(epoch) = round(s_max * min(epoch / ramp_epochs, 1))."""
    return int(round(cfg.s_max * min(epoch / cfg.ramp_epochs, 1.0)))


@dataclass
class PreparedWindow:
    """Precomputed teacher-forcing inputs for one training window.

    Entry j targets the delta p_j -> p_{j+1}; conditions depend only on the
    data and the window's goal, so they are computed once, outside any tape.
    """

    deltas: np.ndarray            # (W, delta_dim)
    conditions: np.ndarray        # (W, condition_dim)
    prev_pose_vecs: np.ndarray    # (W, pose_dim)
    next_pose_vecs: np.ndarray    # (W, pose_dim)
    target_positions: np.ndarray  # (W, n_joints, 3)
    goal_position: np.ndarray
    goal_frame: int
    goal_heading: np.ndarray
    start_frame: int
    source_id: str = ""


def prepare_window(win: TrainingWindow, skeleton: Skeleton) -> PreparedWindow:
    w = win.poses.shape[0] - 1
    prev, nxt = win.poses[:-1], win.poses[1:]
    deltas = pose_delta(prev, nxt)
    prev_deltas = np.vstack([np.zeros((1, deltas.shape[1])), deltas[:-1]])

    frames = win.start_frame - 1 + np.arange(w)
    conditions, _ = assemble_condition(
        prev, prev_deltas, skeleton, win.goal, frames,
        goal_heading=np.broadcast_to(win.goal_heading, (w, 2)))
    targets = forward_kinematics(nxt, skeleton)
    return PreparedWindow(
        deltas=np.asarray(deltas), conditions=np.asarray(conditions),
        prev_pose_vecs=win.poses[:-1].copy(), next_pose_vecs=win.poses[1:].copy(),
        target_positions=np.asarray(targets),
        goal_position=win.goal.position.copy(), goal_frame=win.goal.target_frame,
        goal_heading=np.asarray(win.goal_heading, dtype=np.float64).copy(),
        start_frame=win.start_frame, source_id=win.source_id)


def build_training_windows(sequences: list[MotionSequence], cfg: TrainConfig,
                           skeleton: Skeleton) -> list[PreparedWindow]:
    """Fixed window set for a run: deterministic per (seed, sequence index)."""
    out = []
    for idx, seq in enumerate(sorted(sequences, key=lambda s: s.ident)):
        for k in range(cfg.windows_per_sequence):
            rng = np.random.default_rng([cfg.seed, idx, k])
            try:
                win = sample_training_window(seq, cfg.window_len, rng,
                                             horizon=cfg.hindsight_horizon)
            except SkipWindow:
                continue
            out.append(prepare_window(win, skeleton))
    return out


def _batched_goal(windows: list[PreparedWindow]) -> GoalSpec:
    # GoalSpec broadcasts: position (B, 3) and per-window target frames
    return GoalSpec(np.stack([w.goal_position for w in windows]),
                    np.array([w.goal_frame for w in windows]))


def _batch_loss(windows: list[PreparedWindow], model: MotionModel,
                s_steps: int, cfg: TrainConfig, noise_rng: np.random.Generator,
                dropout_seed: int, train_mode: bool = True):
    """Teacher-forced pass over every frame plus s generated rollout steps.

    Returns (total_loss_node, LossBreakdown floats, sample counts).
    """
    spec, store, skeleton = model.spec, model.params, model.skeleton
    b = len(windows)
    w = windows[0].deltas.shape[0]

    deltas = np.concatenate([win.deltas for win in windows])            # (B*W, Dd)
    conds = np.concatenate([win.conditions for win in windows])         # (B*W, C)
    prev_vecs = np.concatenate([win.prev_pose_vecs for win in windows])

    gauss = encode(spec, store, deltas, conds, train=train_mode,
                   dropout_seed=dropout_seed)
    noise = noise_rng.standard_normal((b * w, spec.latent_dim))
    z = reparameterize(gauss, noise)
    pred = decode(spec, store, z, conds, train=train_mode,
                  dropout_seed=dropout_seed + 1)
    teacher = compute_loss(deltas, pred, gauss, prev_vecs, skeleton, cfg.alpha,
                           cfg.kl_direction)

    n_teacher = b * w
    rec_parts = [(teacher.rec, n_teacher)]
    joint_parts = [(teacher.joint, n_teacher)]

    s_eff = min(s_steps, w - 1)
    if s_eff > 0:
        start = w - s_eff
        cur_pose = np.stack([win.prev_pose_vecs[start] for win in windows])
        prev_delta = np.stack([win.deltas[start - 1] for win in windows])
        goal = _batched_goal(windows)
        heading = np.stack([win.goal_heading for win in windows])
        for j in range(start, w):
            frames = np.array([win.start_frame - 1 + j for win in windows])
            cond, _ = assemble_condition(cur_pose, prev_delta, skeleton, goal,
                                         frames, goal_heading=heading)
            zr = noise_rng.standard_normal((b, spec.latent_dim))
            pred = decode(spec, store, zr, cond, train=train_mode,
                          dropout_seed=dropout_seed + 100 + j)
            gt_next = np.stack([win.next_pose_vecs[j] for win in windows])
            # target: the correcting delta onto the ground-truth frame
            diff = pred - pose_delta(cur_pose, gt_next)
            rec_parts.append((ag.mean(diff * diff), b))
            cur_pose = integrate_delta(cur_pose, pred)
            target_pos = np.stack([win.target_positions[j] for win in windows])
            jd = forward_kinematics(cur_pose, skeleton) - target_pos
            joint_parts.append((ag.mean(jd * jd), b))
            prev_delta = pred

    n_total = n_teacher + b * s_eff
    rec = sum(r * (c / n_total) for r, c in rec_parts)
    joint = sum(jl * (c / n_total) for jl, c in joint_parts)
    kl = teacher.kl
    total = rec + cfg.alpha * kl + joint
    breakdown = LossBreakdown(rec, kl, joint, total).as_floats()
    return total, breakdown, n_total, n_teacher


def train_epoch(windows: list[PreparedWindow], model: MotionModel,
                adam: AdamState, epoch: int, cfg: TrainConfig) -> LossBreakdown:
    """One pass over all windows; one Adam step per batch."""
    if not windows:
        raise ValueError("empty window set")
    order_rng = np.random.default_rng([cfg.seed, epoch, 0xC0FFEE])
    order = order_rng.permutation(len(windows))
    s_steps = rollout_steps_for_epoch(epoch, cfg)

    sums = {"rec": 0.0, "kl": 0.0, "joint": 0.0}
    n_all = 0
    n_kl = 0
    for bi, lo in enumerate(range(0, len(order), cfg.batch_size)):
        batch = [windows[i] for i in order[lo:lo + cfg.batch_size]]
        noise_rng = np.random.default_rng([cfg.seed, epoch, bi, 1])
        dropout_seed = int(np.random.default_rng([cfg.seed, epoch, bi, 2])
                           .integers(0, 2**31 - 1))
        model.params.zero_grad()
        try:
            with Tape() as tape:
                total, breakdown, n_total, n_teacher = _batch_loss(
                    batch, model, s_steps, cfg, noise_rng, dropout_seed)
            tape.backward(total)
        except NumericFault as e:
            raise NumericFault(
                f"epoch {epoch} batch {bi}: {e}", where="train_epoch") from e
        adam_step(adam, model.params, model.params.gradients())
        sums["rec"] += breakdown.rec * n_total
        sums["joint"] += breakdown.joint * n_total
        sums["kl"] += breakdown.kl * n_teacher
        n_all += n_total
        n_kl += n_teacher
    rec = sums["rec"] / n_all
    kl = sums["kl"] / n_kl
    joint = sums["joint"] / n_all
    return LossBreakdown(rec, kl, joint, rec + cfg.alpha * kl + joint)


LOG_HEADER = ("# kl summed over latent dims, averaged over teacher-forced "
              "samples; rec/joint averaged over all samples; "
              "total = rec + alpha*kl + joint\n"
              "epoch,s,rec,kl,joint,total,lr\n")


def train(sequences: list[MotionSequence], skeleton: Skeleton, cfg: TrainConfig,
          model: MotionModel | None = None, log_path=None):
    """Full training run; returns (model, adam_state, log_rows)."""
    if model is None:
        model = fresh_model(skeleton, seed=cfg.seed)
    windows = build_training_windows(sequences, cfg, skeleton)
    if not windows:
        raise ValueError("no usable training windows")
    batches_per_epoch = (len(windows) + cfg.batch_size - 1) // cfg.batch_size
    adam = AdamState(cfg.lr_base, cfg.lr_final,
                     total_steps=cfg.epochs * batches_per_epoch)
    rows = []
    for epoch in range(cfg.epochs):
        lr = adam.lr_at(adam.step)
        breakdown = train_epoch(windows, model, adam, epoch, cfg)
        s = rollout_steps_for_epoch(epoch, cfg)
        rows.append((epoch, s, breakdown.rec, breakdown.kl, breakdown.joint,
                     breakdown.total, lr))
    model.meta = dict(model.meta)
    model.meta["train"] = asdict(cfg)
    if log_path is not None:
        write_training_log(rows, log_path)
    return model, adam, rows


def write_training_log(rows, path) -> None:
    with open(path, "w") as f:
        f.write(LOG_HEADER)
        for epoch, s, rec, kl, joint, total, lr in rows:
            f.write(f"{epoch},{s},{rec!r},{kl!r},{joint!r},{total!r},{lr!r}\n")
