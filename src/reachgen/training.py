"""Training loop: per-frame auto-encoding of deltas with goal-conditioned
conditions, plus a scheduled-rollout curriculum that feeds the model's own
integrated predictions back in for up to s steps per window.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ag
from .autodiff import Tape
from .body import (FK_ROWS, Skeleton, forward_kinematics, integrate_delta,
                   pose_delta)
from .dataset import MotionSequence, sample_training_window
from .errors import CorpusTooSmallError, NumericFault, SkipWindow, WorkerDiedError
from .intention import (DEFAULT_HINDSIGHT_HORIZON, GoalSpec, assemble_condition,
                        condition_dim)
from .model import MotionModel, compute_loss, decode, encode, fresh_model
from .nn import AdamState, adam_step, kl_divergence, reparameterize

# Row shards of every training batch, cut from the batch size alone. Each
# shard's loss is weighted by its share of the batch rows and the shard
# gradients are summed in shard order, so the bits depend on this constant
# and never on how many processes ran the shards: one per usable CPU, up to
# this many. A 32-window step costs about twice a 16-window one.
TRAIN_SHARDS = 2
# names the OpenBLAS builds numpy ships with give their thread-count calls
_BLAS_THREAD_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                      "openblas_{}_num_threads")


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
    hindsight_horizon: tuple[int, int] = DEFAULT_HINDSIGHT_HORIZON

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.ramp_epochs <= 0 or self.s_max < 0:
            raise ValueError("rollout schedule parameters must be positive")
        for name in ("epochs", "batch_size", "window_len", "windows_per_sequence"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        min_h, max_h = self.hindsight_horizon
        if not 0 <= min_h <= max_h:
            raise ValueError("hindsight_horizon must satisfy 0 <= min <= max")


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
    any tape; windows[idx] indexes every field along the window axis.

    Window i holds W + 1 poses, a context frame then W frames; poses[i, 1]
    is frame start_frame[i] of its source. Entry j of deltas, conditions and
    targets belongs to the step poses[i, j] -> poses[i, j + 1]. Every goal
    is a right-wrist goal. The shard a teacher-forced step is sent holds
    only the W poses each step starts from and None for the goal fields and
    start frames, which only rollout steps read.
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
                start, goal, heading = sample_training_window(
                    seq, w, rng, horizon=cfg.hindsight_horizon)
            except SkipWindow:
                continue
            picks.append((seq.poses[start - 1:start + w], start, goal, heading))
    if not picks:
        raise CorpusTooSmallError(
            f"no usable training windows in {len(sequences)} sequences for the "
            f"'train' window_len {w} and hindsight_horizon "
            f"{tuple(cfg.hindsight_horizon)}")
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
    return WindowSet(poses, deltas, conditions, targets, goal_position,
                     goal_frame, goal_heading, start_frame)


def _batch_loss(windows: WindowSet, model: MotionModel,
                s_steps: int, cfg: TrainConfig, noise_rng: np.random.Generator,
                dropout_seed: int, train_mode: bool = True,
                batch_rows: tuple[int, int] | None = None):
    """Teacher-forced pass over every frame plus s generated rollout steps,
    each scored by compute_loss against the stored targets; the KL term
    comes from the teacher-forced pass alone.

    With `batch_rows` = (lo, n), `windows` are rows lo.. of an n-row batch,
    a shard of it. The shard's noise is its rows of what `noise_rng` draws
    for the whole batch, its dropout masks likewise, and every term is
    weighted by its share of the batch rows, so the shards' losses,
    breakdowns and gradients sum to the batch's. The pass reads the W poses
    each step starts from as poses[:, :W]; only rollout steps read the last
    pose, the goal fields and the start frames.

    Returns (total loss node, LossBreakdown floats, samples scored,
    teacher-forced samples); the counts are the shard's own.
    """
    spec, store, skeleton = model.spec, model.params, model.skeleton
    b, w = windows.deltas.shape[:2]
    lo, n = batch_rows or (0, b)
    n_teacher = b * w

    deltas = windows.deltas.reshape(n_teacher, -1)
    conds = windows.conditions.reshape(n_teacher, -1)
    gauss = encode(spec, store, deltas, conds, train=train_mode,
                   dropout_seed=dropout_seed, dropout_rows=(lo * w, n * w))
    noise = noise_rng.standard_normal((n, w, spec.latent_dim))[lo:lo + b]
    z = reparameterize(gauss, noise.reshape(n_teacher, -1))
    pred = decode(spec, store, z, conds, train=train_mode,
                  dropout_seed=dropout_seed + 1, dropout_rows=(lo * w, n * w))
    pred_pose = integrate_delta(windows.poses[:, :w].reshape(n_teacher, -1), pred)
    parts = [(*compute_loss(deltas, pred, pred_pose,
                            windows.targets.reshape(n_teacher, -1, 3), skeleton),
              n_teacher)]
    kl = ag.mean(kl_divergence(gauss, cfg.kl_direction))

    s_eff = min(s_steps, w - 1)
    if s_eff > 0:
        start = w - s_eff
        cur_pose = windows.poses[:, start]
        prev_delta = windows.deltas[:, start - 1]
        goal = GoalSpec(windows.goal_position, windows.goal_frame)
        for j in range(start, w):
            cond, _ = assemble_condition(cur_pose, prev_delta, skeleton, goal,
                                         windows.start_frame - 1 + j,
                                         goal_heading=windows.goal_heading)
            zr = noise_rng.standard_normal((n, spec.latent_dim))[lo:lo + b]
            pred = decode(spec, store, zr, cond, train=train_mode,
                          dropout_seed=dropout_seed + 100 + j, dropout_rows=(lo, n))
            # target: the correcting delta onto the ground-truth frame
            true = pose_delta(cur_pose, windows.poses[:, j + 1])
            cur_pose = integrate_delta(cur_pose, pred)
            parts.append((*compute_loss(true, pred, cur_pose, windows.targets[:, j],
                                        skeleton), b))
            prev_delta = pred

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


def _shard_windows(windows: WindowSet, idx, rollout: bool) -> WindowSet:
    """The windows at `idx`, gathered field by field from the run's set:
    all of each when the step rolls out; otherwise only what a
    teacher-forced step reads, the deltas, conditions, targets and the W
    poses each step starts from, with None for the rest."""
    if rollout:
        return windows[idx]
    return WindowSet(windows.poses[idx, :-1], windows.deltas[idx],
                     windows.conditions[idx], windows.targets[idx],
                     None, None, None, None)


def _shard_grads(shard: WindowSet, model: MotionModel, cfg: TrainConfig,
                 epoch: int, bi: int, batch_rows: tuple[int, int]):
    """(gradients, LossBreakdown, samples, teacher-forced samples) of one
    shard of batch `bi`, weighted by its share; the one place a shard is
    computed, in this process or the worker's. The batch's noise generator
    and dropout seed come from (seed, epoch, bi), so every shard starts from
    the same draws."""
    noise_rng = np.random.default_rng([cfg.seed, epoch, bi, 1])
    dropout_seed = int(np.random.default_rng([cfg.seed, epoch, bi, 2])
                       .integers(0, 2**31 - 1))
    model.params.zero_grad()
    with Tape() as tape:
        total, breakdown, n_total, n_teacher = _batch_loss(
            shard, model, rollout_steps_for_epoch(epoch, cfg), cfg, noise_rng,
            dropout_seed, batch_rows=batch_rows)
    tape.backward(total)
    return model.params.gradients(), breakdown, n_total, n_teacher


@functools.cache
def _blas_thread_calls():
    """(get, set) thread-count calls of the OpenBLAS numpy loaded, or None
    where none is found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_THREAD_CALLS:
            get = getattr(handle, name.format("get"), None)
            put = getattr(handle, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _process_count() -> int:
    """Processes the shards of a batch run in: one per usable CPU, up to
    TRAIN_SHARDS, or one where OpenBLAS's thread count cannot be set; two
    processes each running BLAS threads oversubscribe the cores."""
    if _blas_thread_calls() is None:
        return 1
    return min(TRAIN_SHARDS, len(os.sched_getaffinity(0)))


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS runs one thread inside the block, where its thread count can
    be set: a matmul's bits can depend on it."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


_worker = None   # (owner pid, Process, Connection) of the shard worker


def _serve_shards(conn, parent_end) -> None:
    """The worker's loop: compute each shard it is sent and send back the
    result or the exception; exit once the parent's end is closed."""
    parent_end.close()
    _blas_thread_calls()[1](1)    # the worker only ever runs shards
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            result = _shard_grads(*job)
        except Exception as e:    # the parent raises it
            result = e
        conn.send(result)


def _worker_connection():
    """The connection to this process's shard worker, forked at first use
    (fork, since spawn would re-import __main__) and daemonic, so it ends
    with the interpreter; one that died is replaced."""
    global _worker
    if _worker is None or _worker[0] != os.getpid() or not _worker[1].is_alive():
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        proc = ctx.Process(target=_serve_shards, args=(there, here), daemon=True,
                           name="reachgen-train-shard")
        proc.start()
        there.close()
        _worker = (os.getpid(), proc, here)
    return _worker[2]


def _stop_worker() -> None:
    """Kill and reap this process's worker; the next sharded step forks a
    new one."""
    global _worker
    if _worker is not None and _worker[0] == os.getpid():
        _worker[1].kill()
        _worker[1].join()
        _worker[2].close()
    _worker = None


def _run_shards(jobs: list) -> list:
    """_shard_grads of each job, in job order, with one BLAS thread in each
    process, so the bits do not depend on where a job ran. With more than
    one process, the first job runs here and the rest in the worker."""
    with _one_blas_thread():
        if len(jobs) == 1 or _process_count() == 1:
            return [_shard_grads(*job) for job in jobs]
        conn = _worker_connection()
        try:
            for job in jobs[1:]:
                conn.send(job)
            results = [_shard_grads(*jobs[0])]
            results += [conn.recv() for _ in jobs[1:]]
        except BaseException as e:
            proc = _worker[1]
            _stop_worker()   # a live worker's answer may still be in the pipe
            if isinstance(e, (EOFError, OSError)):
                raise WorkerDiedError(f"training shard worker pid {proc.pid} exited "
                                      f"with code {proc.exitcode}") from e
            raise
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def train_epoch(windows: WindowSet, model: MotionModel,
                adam: AdamState, epoch: int, cfg: TrainConfig) -> LossBreakdown:
    """One pass over all windows; one Adam step per batch, on the sum of
    its shards' gradients."""
    if not windows:
        raise ValueError("empty window set")
    order_rng = np.random.default_rng([cfg.seed, epoch, 0xC0FFEE])
    order = order_rng.permutation(len(windows))
    rollout = rollout_steps_for_epoch(epoch, cfg) > 0

    rec = kl = joint = 0.0
    n_all = n_kl = 0
    for bi, lo in enumerate(range(0, len(order), cfg.batch_size)):
        rows = order[lo:lo + cfg.batch_size]
        model.params.zero_grad()    # the worker is sent the model without them
        jobs = [(_shard_windows(windows, rows[a:b], rollout), model, cfg, epoch, bi,
                 (a, len(rows))) for a, b in _shard_bounds(len(rows)) if b > a]
        try:
            results = _run_shards(jobs)
        except NumericFault as e:
            raise NumericFault(
                f"epoch {epoch} batch {bi}: {e}", where="train_epoch") from e
        grads = results[0][0]
        for shard_grads, *_ in results[1:]:
            grads = {name: g + shard_grads[name] for name, g in grads.items()}
        adam_step(adam, model.params, grads)
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
    """Full training run; returns (model, adam_state, log_rows), the rows
    as write_training_log takes them."""
    if model is None:
        model = fresh_model(skeleton, seed=cfg.seed)
    windows = build_training_windows(sequences, cfg, skeleton)
    batches_per_epoch = (len(windows) + cfg.batch_size - 1) // cfg.batch_size
    adam = AdamState(cfg.lr_base, cfg.lr_final,
                     total_steps=cfg.epochs * batches_per_epoch)
    rows = []
    for epoch in range(cfg.epochs):
        lr = adam.lr_at(adam.step)
        lb = train_epoch(windows, model, adam, epoch, cfg)
        rows.append((epoch, rollout_steps_for_epoch(epoch, cfg), lb.rec, lb.kl,
                     lb.joint, lb.total, lr))
    model.meta = {**model.meta, "train": asdict(cfg)}
    return model, adam, rows


def write_training_log(rows, path) -> None:
    with open(path, "w") as f:
        f.write(LOG_HEADER)
        for epoch, s, rec, kl, joint, total, lr in rows:
            f.write(f"{epoch},{s},{rec!r},{kl!r},{joint!r},{total!r},{lr!r}\n")
