"""Training loop: per-frame auto-encoding of deltas with goal-conditioned
conditions, plus a scheduled-rollout curriculum that feeds the model's own
integrated predictions back in for up to s steps per window, through the
closed-loop frame generation runs. The corpus runs at dataset.FPS and its
goals, stored or hindsight, are TARGET_JOINT goals, as generation's are.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ag
from .autodiff import Tape
from .body import (FK_ROWS, Skeleton, forward_kinematics, integrate_delta,
                   pose_delta)
from .dataset import MotionSequence, sample_training_window
from .errors import (CorpusTooSmallError, NumericFault, SkipWindow, check_count,
                     check_positive)
from .intention import (HINDSIGHT_HORIZON, GoalSpec, assemble_condition,
                        condition_dim)
from .model import MotionModel, compute_loss, decode, encode, fresh_model
from .nn import AdamState, adam_step, kl_divergence, reparameterize
from .rollout import GoalSchedule, rollout_poses
from .worker import _stop_worker, run_jobs

# Row shards of every training batch, cut from the batch size alone. Each
# shard's loss is weighted by its share of the batch rows and the shard
# gradients are summed in shard order, so the bits depend on this constant
# and never on how many processes ran the shards (worker.run_jobs). A
# 32-window step costs about twice a 16-window one.
TRAIN_SHARDS = 2


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults, except windows_per_sequence: 1 here, 2 in the
    desk preset. Both presets live in cli.PRESETS."""

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

    def __post_init__(self):
        for name in ("alpha", "lr_base", "lr_final"):
            check_positive(name, getattr(self, name))
        for name in ("epochs", "batch_size", "ramp_epochs", "window_len",
                     "windows_per_sequence"):
            check_count(name, getattr(self, name))
        check_count("s_max", self.s_max, 0)


def rollout_steps_for_epoch(epoch: int, cfg: TrainConfig) -> int:
    """s(epoch) = round(s_max * min(epoch / ramp_epochs, 1))."""
    return int(round(cfg.s_max * min(epoch / cfg.ramp_epochs, 1.0)))


@dataclass
class LossBreakdown:
    """rec + alpha * kl + joint; `total` is assembled from the parts."""

    rec: object
    kl: object
    joint: object
    total: object

    def as_floats(self) -> "LossBreakdown":
        return LossBreakdown(*(float(ag.value(v)) for v in
                               (self.rec, self.kl, self.joint, self.total)))


@dataclass(frozen=True)
class WindowSet:
    """The run's N training windows as stacked arrays, computed once outside
    any tape; windows[idx] indexes every field along the window axis. The
    arrays build_training_windows returns are read-only: the training worker
    keeps its own copy of the set for the whole run (worker.run_jobs).

    Window i holds W + 1 poses, a context frame then W frames; poses[i, 1]
    is frame start_frame[i] of its source. Entry j of deltas, conditions and
    targets belongs to the step poses[i, j] -> poses[i, j + 1]. Every goal
    is a TARGET_JOINT goal.
    """

    poses: np.ndarray          # (N, W + 1, pose_dim)
    deltas: np.ndarray         # (N, W, pose_dim)
    conditions: np.ndarray     # (N, W, condition_dim)
    targets: np.ndarray        # (N, W, n_joints, 3): FK of poses[:, 1:]
    goal_position: np.ndarray  # (N, 3)
    goal_frame: np.ndarray     # (N,)
    goal_heading: np.ndarray   # (N, 2)
    start_frame: np.ndarray    # (N,)

    def __len__(self) -> int:
        return len(self.deltas)

    def __getitem__(self, idx) -> WindowSet:
        return WindowSet(*(getattr(self, f.name)[idx] for f in fields(self)))


def build_training_windows(sequences: list[MotionSequence], cfg: TrainConfig,
                           skeleton: Skeleton) -> WindowSet:
    """Fixed window set for a run: deterministic per (seed, sequence index).

    Deltas, conditions and FK targets are computed FK_ROWS windows at a
    time, which bounds the temporaries of one pass.
    """
    w = cfg.window_len
    picks = []
    for idx, seq in enumerate(sorted(sequences, key=lambda s: s.ident)):
        for k in range(cfg.windows_per_sequence):
            rng = np.random.default_rng([cfg.seed, idx, k])
            try:
                start, goal, heading = sample_training_window(seq, w, rng)
            except SkipWindow:
                continue
            picks.append((seq.poses[start - 1:start + w], start, goal, heading))
    if not picks:
        raise CorpusTooSmallError(
            f"no usable training windows in {len(sequences)} sequences for the "
            f"'train' window_len {w} and intention.HINDSIGHT_HORIZON "
            f"{HINDSIGHT_HORIZON}")
    poses, starts, goals, headings = zip(*picks)
    poses, start_frame = np.stack(poses), np.array(starts)
    goal_heading = np.stack(headings)
    goal_position = np.stack([g.position for g in goals])
    goal_frame = np.array([g.target_frame for g in goals])

    deltas = np.empty(poses[:, 1:].shape)
    conditions = np.empty((len(poses), w, condition_dim(skeleton.n_rotated)))
    for lo in range(0, len(poses), FK_ROWS):
        c = slice(lo, lo + FK_ROWS)
        deltas[c] = pose_delta(poses[c, :-1], poses[c, 1:])
        prev_deltas = np.concatenate(
            [np.zeros_like(deltas[c, :1]), deltas[c, :-1]], axis=1)
        conditions[c], _ = assemble_condition(
            poses[c, :-1], prev_deltas, skeleton,
            GoalSpec(goal_position[c, None], goal_frame[c, None]),
            start_frame[c, None] - 1 + np.arange(w),
            goal_heading=goal_heading[c, None])
    targets = forward_kinematics(poses[:, 1:], skeleton)
    arrays = (poses, deltas, conditions, targets, goal_position, goal_frame,
              goal_heading, start_frame)
    for a in arrays:
        a.flags.writeable = False
    return WindowSet(*arrays)


def _batch_loss(windows: WindowSet, model: MotionModel,
                s_steps: int, cfg: TrainConfig, noise_rng: np.random.Generator,
                dropout_seed: int, batch_rows: tuple[int, int]):
    """Teacher-forced pass over every frame plus s generated rollout steps
    from each window's step W - s on, one `rollout_poses` over the rows.
    compute_loss scores the teacher-forced poses once and the rollout
    steps' poses once, against the stored poses and targets; the KL term
    comes from the teacher-forced pass alone.

    With `batch_rows` = (lo, n), `windows` are rows lo.. of an n-row batch:
    a shard of it, or the whole batch at (0, n). The shard's noise is its
    rows of what `noise_rng` draws for the whole batch, its dropout masks
    likewise, and every term is weighted by its share of the batch rows, so
    the shards' losses, breakdowns and gradients sum to the batch's. A fault in any row's
    rollout is raised: a held row stops every row's frames recording.

    Returns (total loss node, LossBreakdown floats, samples scored,
    teacher-forced samples); the counts are the shard's own.
    """
    spec, store, skeleton = model.spec, model.params, model.skeleton
    b, w = windows.deltas.shape[:2]
    lo, n = batch_rows
    n_teacher = b * w

    deltas = windows.deltas.reshape(n_teacher, -1)
    conds = windows.conditions.reshape(n_teacher, -1)
    gauss = encode(spec, store, deltas, conds, train=True,
                   dropout_seed=dropout_seed, dropout_rows=(lo * w, n * w))
    noise = noise_rng.standard_normal((n, w, spec.latent_dim))[lo:lo + b]
    z = reparameterize(gauss, noise.reshape(n_teacher, -1))
    pred = decode(spec, store, z, conds, train=True,
                  dropout_seed=dropout_seed + 1, dropout_rows=(lo * w, n * w))
    pred_pose = integrate_delta(windows.poses[:, :w].reshape(n_teacher, -1), pred)
    parts = [(*compute_loss(pred_pose, windows.poses[:, 1:].reshape(n_teacher, -1),
                            windows.targets.reshape(n_teacher, -1, 3), skeleton),
              n_teacher)]
    kl = ag.mean(kl_divergence(gauss))

    s_eff = min(s_steps, w - 1)
    if s_eff > 0:
        start = w - s_eff
        # rollout frame i is window step start + i - 1, on a clock from 0
        goal = GoalSpec(windows.goal_position,
                        windows.goal_frame - (windows.start_frame - 1 + start))
        latents = noise_rng.standard_normal((s_eff, n, spec.latent_dim))[:, lo:lo + b]
        out = rollout_poses(windows.poses[:, start], GoalSchedule.single(goal), s_eff,
                            model, latents.swapaxes(0, 1), windows.deltas[:, start - 1],
                            windows.goal_heading, (dropout_seed + 100 + start, (lo, n)))
        out.raise_fault()
        # step-major rows, as the rollout's poses are joined
        parts.append((*compute_loss(
            ag.concatenate(out.poses[1:], axis=0),
            windows.poses[:, start + 1:].swapaxes(0, 1).reshape(b * s_eff, -1),
            windows.targets[:, start:].swapaxes(0, 1).reshape(b * s_eff, -1, 3),
            skeleton), b * s_eff))

    n_batch = n * (w + s_eff)
    share = b / n
    rec = sum(r * (c / n_batch) for r, _, c in parts)
    joint = sum(jl * (c / n_batch) for _, jl, c in parts)
    total = rec + (cfg.alpha * share) * kl + joint
    breakdown = LossBreakdown(rec, ag.value(kl) * share, joint, total).as_floats()
    return total, breakdown, n_teacher + b * s_eff, n_teacher


def _shard_bounds(n: int) -> list[tuple[int, int]]:
    """The [lo, hi) row ranges of the TRAIN_SHARDS contiguous shards of an
    n-row batch; a batch of fewer rows has empty shards."""
    cuts = [n * k // TRAIN_SHARDS for k in range(TRAIN_SHARDS + 1)]
    return list(zip(cuts, cuts[1:]))


def _shard_grads(windows: WindowSet, rows: np.ndarray, model: MotionModel,
                 cfg: TrainConfig, epoch: int, bi: int, batch_rows: tuple[int, int]):
    """(flat gradient, LossBreakdown, samples, teacher-forced samples) of
    the shard windows[rows] of batch `bi`, weighted by its share; the one
    place a shard is computed, in this process or the worker's, which reads
    `windows` from its resident copy of the run's set. The gradient is one
    float64 vector in params.names() order. The batch's noise
    generator and dropout seed come from (seed, epoch, bi), so every shard
    starts from the same draws."""
    noise_rng = np.random.default_rng([cfg.seed, epoch, bi, 1])
    dropout_seed = int(np.random.default_rng([cfg.seed, epoch, bi, 2])
                       .integers(0, 2**31 - 1))
    model.params.zero_grad()
    with Tape() as tape:
        total, breakdown, n_total, n_teacher = _batch_loss(
            windows[rows], model, rollout_steps_for_epoch(epoch, cfg), cfg, noise_rng,
            dropout_seed, batch_rows=batch_rows)
    tape.backward(total)
    return model.params.flat_gradient(), breakdown, n_total, n_teacher


def train_epoch(windows: WindowSet, model: MotionModel,
                adam: AdamState, epoch: int, cfg: TrainConfig) -> LossBreakdown:
    """One pass over all windows; one Adam step per batch, on the sum of
    its shards' gradients. A shard job carries its row indices, the model
    and the config; the window set stays resident in the worker."""
    if not windows:
        raise ValueError("empty window set")
    order_rng = np.random.default_rng([cfg.seed, epoch, 0xC0FFEE])
    order = order_rng.permutation(len(windows))

    rec = kl = joint = 0.0
    n_all = n_kl = 0
    for bi, lo in enumerate(range(0, len(order), cfg.batch_size)):
        rows = order[lo:lo + cfg.batch_size]
        model.params.zero_grad()    # the worker is sent the model without them
        jobs = [(_shard_grads, (rows[a:b], model, cfg, epoch, bi, (a, len(rows))))
                for a, b in _shard_bounds(len(rows)) if b > a]
        try:
            results = run_jobs(jobs, resident=windows)
        except NumericFault as e:
            raise NumericFault(
                f"epoch {epoch} batch {bi}: {e}", where="train_epoch") from e
        grad = results[0][0]
        for shard_grad, *_ in results[1:]:
            grad += shard_grad
        adam_step(adam, model.params, grad)
        n_total = sum(r[2] for r in results)
        n_teacher = sum(r[3] for r in results)
        rec += sum(r[1].rec for r in results) * n_total
        joint += sum(r[1].joint for r in results) * n_total
        kl += sum(r[1].kl for r in results) * n_teacher
        n_all += n_total
        n_kl += n_teacher
    rec, kl, joint = rec / n_all, kl / n_kl, joint / n_all
    return LossBreakdown(rec, kl, joint, rec + cfg.alpha * kl + joint)


LOG_HEADER = ("# kl summed over latent dims, averaged over teacher-forced "
              "samples; rec/joint averaged over all samples; "
              "total = rec + alpha*kl + joint\n"
              "epoch,s,rec,kl,joint,total,lr\n")


def train(sequences: list[MotionSequence], skeleton: Skeleton, cfg: TrainConfig,
          model: MotionModel | None = None):
    """Full training run; returns (model, log_rows), the rows as
    write_training_log takes them. On return the worker is stopped, so
    neither process keeps the run's window set."""
    if model is None:
        model = fresh_model(skeleton, seed=cfg.seed)
    windows = build_training_windows(sequences, cfg, skeleton)
    batches_per_epoch = (len(windows) + cfg.batch_size - 1) // cfg.batch_size
    adam = AdamState(cfg.lr_base, cfg.lr_final,
                     total_steps=cfg.epochs * batches_per_epoch)
    rows = []
    try:
        for epoch in range(cfg.epochs):
            lr = adam.lr_at(adam.step)
            lb = train_epoch(windows, model, adam, epoch, cfg)
            rows.append((epoch, rollout_steps_for_epoch(epoch, cfg), lb.rec, lb.kl,
                         lb.joint, lb.total, lr))
    finally:
        _stop_worker()
    model.meta = {**model.meta, "train": asdict(cfg)}
    return model, rows


def write_training_log(rows, path) -> None:
    with open(path, "w") as f:
        f.write(LOG_HEADER)
        for epoch, s, rec, kl, joint, total, lr in rows:
            f.write(f"{epoch},{s},{rec!r},{kl!r},{joint!r},{total!r},{lr!r}\n")
