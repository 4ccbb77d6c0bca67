"""Benchmark harness: cylindrical goal grid around the initial human,
SR/FS/DTG metrics, per-bucket breakdowns, CSV + SVG reports.

Metric conventions (documented deviations from mesh-based setups):
lowest joint stands in for the lowest mesh vertex; FS applies no
contact/height gating; DTG aggregates as the mean over sequences.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .body import Skeleton, forward_kinematics
from .dataset import MotionSequence, standing_pose
from .errors import ReachGenError, check_count, check_range
from .intention import TARGET_JOINT, GoalSpec
from .model import MotionModel
from .rollout import GoalSchedule, draw_latents, rollout_poses
from .worker import MAX_PROCESSES, run_split

# Rollouts per batched chunk of run_benchmark. Fixed, because a row's bits
# depend on the shape of the BLAS calls it shares with its siblings. On a
# 2-core machine 64 rows ran about 8% faster a rollout than 32, but peaked
# at 1.5x the memory and leave coarser parts to split between processes.
ROLLOUT_ROWS = 32

# Acceptance criterion 6: a rollout succeeds when the target joint comes
# within SUCCESS_RADIUS meters of the goal, boundary inclusive, and a frame
# skates when the lowest joint moves more than SKATE_THRESHOLD meters (3D)
# to the next frame.
SUCCESS_RADIUS = 0.10
SKATE_THRESHOLD = 0.0066


@dataclass(frozen=True)
class EvalConfig:
    n_angles: int = 5
    n_heights: int = 5
    n_distances: int = 5
    height_range: tuple[float, float] = (0.0, 1.8)
    distance_range: tuple[float, float] = (0.5, 5.0)
    n_initial_poses: int = 6
    samples_per_pair: int = 5
    duration: int = 240           # 8 s at 30 fps

    def __post_init__(self):
        for name in ("n_angles", "n_heights", "n_distances", "n_initial_poses",
                     "samples_per_pair", "duration"):
            check_count(name, getattr(self, name))
        for name in ("height_range", "distance_range"):
            check_range(name, getattr(self, name))
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def n_rollouts(self) -> int:
        return (self.n_angles * self.n_heights * self.n_distances
                * self.n_initial_poses * self.samples_per_pair)


@dataclass
class GoalGrid:
    goals: list        # GoalSpec per (angle, height, distance), angle-major
    combos: list       # parallel (angle, height, distance) values


def build_goal_grid(center_pose, cfg: EvalConfig) -> GoalGrid:
    """Goals covering a cylinder around the human: angles equally spaced over
    2 pi, heights and distances linearly spaced over their ranges."""
    angles = 2.0 * np.pi * np.arange(cfg.n_angles) / cfg.n_angles
    heights = np.linspace(*cfg.height_range, cfg.n_heights)
    distances = np.linspace(*cfg.distance_range, cfg.n_distances)
    center = np.asarray(center_pose, dtype=np.float64)[:2]
    goals, combos = [], []
    for a in angles:
        for h in heights:
            for d in distances:
                pos = np.array([center[0] + d * np.cos(a),
                                center[1] + d * np.sin(a), h])
                goals.append(GoalSpec(pos, cfg.duration))
                combos.append((float(a), float(h), float(d)))
    return GoalGrid(goals, combos)


def _closest_approach(pos, goal_position, joint: int):
    """(...) closest distance of one joint to the goal over the frames of
    joint positions pos (..., n_frames, n_joints, 3); goal_position (..., 3)."""
    gap = pos[..., joint, :] - np.asarray(goal_position)[..., None, :]
    return np.min(np.linalg.norm(gap, axis=-1), axis=-1)


def _skate_share(pos):
    """(...) share of frames whose lowest joint moves more than
    SKATE_THRESHOLD (3D displacement, meters) to the next frame; pos (...,
    n_frames, n_joints, 3)."""
    lowest = np.argmin(pos[..., :-1, :, 2], axis=-1)[..., None, None]
    a = np.take_along_axis(pos[..., :-1, :, :], lowest, axis=-2)
    b = np.take_along_axis(pos[..., 1:, :, :], lowest, axis=-2)
    disp = np.linalg.norm((b - a)[..., 0, :], axis=-1)
    return np.mean(disp > SKATE_THRESHOLD, axis=-1)


def distance_to_goal(seq: MotionSequence, goal: GoalSpec,
                     skeleton: Skeleton) -> float:
    """Closest the target joint ever gets to the goal, in meters."""
    pos = forward_kinematics(seq.poses, skeleton)
    return float(_closest_approach(pos, goal.position,
                                   skeleton.joint_index(TARGET_JOINT)))


def is_success(seq: MotionSequence, goal: GoalSpec, skeleton: Skeleton) -> bool:
    """Within SUCCESS_RADIUS counts, boundary inclusive."""
    return distance_to_goal(seq, goal, skeleton) <= SUCCESS_RADIUS


def foot_skate(seq: MotionSequence, skeleton: Skeleton) -> float:
    """Fraction of frames whose lowest joint moves more than SKATE_THRESHOLD
    (3D displacement, meters) to the next frame."""
    if seq.n_frames < 2:
        raise ValueError("foot skate needs at least 2 frames")
    return float(_skate_share(forward_kinematics(seq.poses, skeleton)))


@dataclass
class EvalRow:
    pose_id: int
    angle: float
    height: float
    distance: float
    sample: int
    dtg_cm: float
    success: bool
    fs: float
    error: str = ""     # "<ExceptionType>@<where>" when the rollout failed


@dataclass
class EvalReport:
    rows: list
    sr: float
    fs: float
    fs_ok: float        # FS over the rollouts that did not fail
    dtg_cm: float
    sr_by_angle: dict
    sr_by_height: dict
    sr_by_distance: dict
    n_failures: int = 0


def default_initial_poses(skeleton: Skeleton, n: int) -> list[np.ndarray]:
    """Corpus-style standing poses facing n evenly spread directions."""
    return [standing_pose(skeleton, yaw=2.0 * np.pi * k / n) for k in range(n)]


class EvalTask(NamedTuple):
    """One rollout of the benchmark; seed_key seeds its latents."""

    pose: np.ndarray
    goal: GoalSpec
    combo: tuple       # (angle, height, distance)
    pose_id: int
    sample: int
    seed_key: list


def _failed_row(task: EvalTask, err: ReachGenError, where: str) -> EvalRow:
    return EvalRow(task.pose_id, *task.combo, task.sample, float("inf"), False,
                   1.0, f"{type(err).__name__}@{where}")


def _chunk_metrics(model: MotionModel, cfg: EvalConfig, tasks: list) -> list[EvalRow]:
    """Rows of one chunk of tasks: one batched rollout, each row's latents
    drawn as generate draws them from the row's seed key (all rows in one
    draw_latents call), and all rows scored from one FK pass."""
    latents = draw_latents([np.random.default_rng(t.seed_key) for t in tasks],
                           cfg.duration, model.spec.latent_dim, "sample")
    goal = GoalSpec(np.stack([t.goal.position for t in tasks]),
                    np.array([t.goal.target_frame for t in tasks]))
    try:
        out = rollout_poses(np.stack([t.pose for t in tasks]),
                            GoalSchedule.single(goal), cfg.duration, model, latents)
    except ReachGenError as e:   # a fault that no held row explains
        return [_failed_row(t, e, getattr(e, "where", None) or "rollout")
                for t in tasks]
    if all(out.faults):
        return [_failed_row(t, err, f"rollout frame {frame}")
                for t, (frame, err) in zip(tasks, out.faults)]
    pos = forward_kinematics(np.stack(out.poses, axis=1), model.skeleton)
    dtg = _closest_approach(pos, goal.position, model.skeleton.joint_index(TARGET_JOINT))
    fs = _skate_share(pos)
    return [EvalRow(t.pose_id, *t.combo, t.sample, float(d) * 100.0,
                    bool(d <= SUCCESS_RADIUS), float(f)) if fault is None
            else _failed_row(t, fault[1], f"rollout frame {fault[0]}")
            for t, d, f, fault in zip(tasks, dtg, fs, out.faults)]


def run_benchmark(model: MotionModel, cfg: EvalConfig,
                  initial_poses: list[np.ndarray] | None = None, *, seed: int,
                  workers: int = MAX_PROCESSES) -> EvalReport:
    """One rollout per (pose, goal, sample), run ROLLOUT_ROWS rows at a time.

    Per-rollout seeds derive from the index tuple and the chunks are cut
    from the task list in index order, so every row shares its BLAS calls
    with the same siblings. worker.run_split maps the chunks in at most
    `workers` processes; the report is identical for any split.
    """
    if initial_poses is None:
        initial_poses = default_initial_poses(model.skeleton, cfg.n_initial_poses)
    if len(initial_poses) != cfg.n_initial_poses:
        raise ValueError(f"expected {cfg.n_initial_poses} initial poses")

    tasks = []
    for pose_id, pose in enumerate(initial_poses):
        grid = build_goal_grid(pose, cfg)
        for goal_id, (goal, combo) in enumerate(zip(grid.goals, grid.combos)):
            for sample in range(cfg.samples_per_pair):
                tasks.append(EvalTask(np.asarray(pose, dtype=np.float64), goal,
                                      combo, pose_id, sample,
                                      [seed, pose_id, goal_id, sample]))
    chunks = [tasks[i:i + ROLLOUT_ROWS] for i in range(0, len(tasks), ROLLOUT_ROWS)]
    results = run_split(_chunk_metrics, (model, cfg), chunks, processes=workers)
    return summarize([row for rows in results for row in rows])


def summarize(rows: list) -> EvalReport:
    """Aggregates of the rows; a failed row counts as a miss with FS 1 in
    `sr` and `fs`, and is left out of `fs_ok` and `dtg_cm`."""
    ok = [r for r in rows if not r.error and np.isfinite(r.dtg_cm)]
    sr = float(np.mean([r.success for r in rows])) if rows else 0.0
    fs = float(np.mean([r.fs for r in rows])) if rows else 0.0
    fs_ok = float(np.mean([r.fs for r in ok])) if ok else float("nan")
    dtg = float(np.mean([r.dtg_cm for r in ok])) if ok else float("inf")

    def bucket(key):
        vals = {}
        for r in rows:
            vals.setdefault(getattr(r, key), []).append(r.success)
        return {k: float(np.mean(v)) for k, v in sorted(vals.items())}

    return EvalReport(rows, sr, fs, fs_ok, dtg, bucket("angle"), bucket("height"),
                      bucket("distance"), sum(1 for r in rows if r.error))


# ------------------------------------------------------------------- output

def _svg_bar_chart(title: str, labels: list[str], values: list[float]) -> str:
    width, height, pad = 420, 300, 40
    n = max(len(values), 1)
    bar_w = (width - 2 * pad) / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
    ]
    for i, (label, v) in enumerate(zip(labels, values)):
        h = (height - 2 * pad) * min(max(v, 0.0), 1.0)
        x = pad + i * bar_w + bar_w * 0.1
        y = height - pad - h
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.8:.1f}" '
                     f'height="{h:.1f}" fill="#4878a8"/>')
        parts.append(f'<text x="{x + bar_w * 0.4:.1f}" y="{height - pad + 16}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{label}</text>')
        parts.append(f'<text x="{x + bar_w * 0.4:.1f}" y="{y - 4:.1f}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="10">{v:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


REPORT_HEADER = ("# lowest joint stands in for the lowest mesh vertex; "
                 "FS ungated; DTG = mean over sequences\n"
                 "pose_id,angle,height,distance,sample,dtg_cm,success,fs,error\n")


def emit_report(report: EvalReport, out_dir) -> list[str]:
    """Write report.csv, aggregates.csv, and SR bar charts; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    path = os.path.join(out_dir, "report.csv")
    with open(path, "w") as f:
        f.write(REPORT_HEADER)
        for r in report.rows:
            f.write(f"{r.pose_id},{r.angle!r},{r.height!r},{r.distance!r},"
                    f"{r.sample},{r.dtg_cm!r},{int(r.success)},{r.fs!r},"
                    f"{r.error}\n")
    paths.append(path)

    path = os.path.join(out_dir, "aggregates.csv")
    with open(path, "w") as f:
        f.write("metric,value\n")
        f.write(f"rollouts,{len(report.rows)}\n")
        f.write(f"sr,{report.sr!r}\n")
        f.write(f"fs,{report.fs!r}\n")
        f.write(f"fs_ok,{report.fs_ok!r}\n")
        f.write(f"dtg_cm,{report.dtg_cm!r}\n")
        f.write(f"failures,{report.n_failures}\n")
        for name, buckets in (("angle", report.sr_by_angle),
                              ("height", report.sr_by_height),
                              ("distance", report.sr_by_distance)):
            for k, v in buckets.items():
                f.write(f"sr_by_{name}[{k!r}],{v!r}\n")
    paths.append(path)

    for name, buckets in (("angle", report.sr_by_angle),
                          ("height", report.sr_by_height),
                          ("distance", report.sr_by_distance)):
        path = os.path.join(out_dir, f"sr_by_{name}.svg")
        labels = [f"{k:.2f}" for k in buckets]
        with open(path, "w") as f:
            f.write(_svg_bar_chart(f"success rate by {name}", labels,
                                   list(buckets.values())))
        paths.append(path)
    return paths

