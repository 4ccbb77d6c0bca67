"""Closed-loop autoregressive generation: recompute intention against the
active goal each frame, decode a delta, integrate, repeat. Records carry
everything needed to replay bit-exactly or to re-optimize the latents.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ag
from .body import integrate_delta, joint_position, pose_dim
from .container import read_container, write_container
from .dataset import MotionSequence, load_motion, save_motion
from .errors import (CorruptFileError, InvalidInputError, ModelMismatchError,
                     NumericFault, TimeScaleError)
from .intention import GoalSpec, assemble_condition
from .model import MotionModel

SIDECAR_MAGIC = b"RGLA"
SIDECAR_VERSION = 2


@dataclass(frozen=True)
class GoalSchedule:
    """Ordered goals with a switch policy.

    on_frame: advance once the clock passes the active goal's target frame.
    on_reach: advance once the wrist comes within `radius` of the active goal.
    """

    goals: tuple[GoalSpec, ...]
    policy: str = "on_frame"
    radius: float = 0.10

    def __post_init__(self):
        if not self.goals:
            raise InvalidInputError("schedule needs at least one goal")
        if self.policy not in ("on_frame", "on_reach"):
            raise InvalidInputError(f"unknown switch policy {self.policy!r}")
        if self.radius <= 0:
            raise InvalidInputError("radius must be positive")
        frames = [g.target_frame for g in self.goals]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise InvalidInputError("goal target frames must be strictly increasing")

    @classmethod
    def single(cls, goal: GoalSpec) -> "GoalSchedule":
        return cls((goal,))


def time_to_reach(schedule: GoalSchedule, speedup: float) -> GoalSchedule:
    """Rescale every target frame by 1/speedup (rounded, at least frame 1)."""
    if speedup <= 0:
        raise ValueError("speedup factor must be positive")
    frames = [max(int(round(g.target_frame / speedup)), 1) for g in schedule.goals]
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise TimeScaleError("rescaled target frames collapse the goal order")
    goals = tuple(replace(g, target_frame=f) for g, f in zip(schedule.goals, frames))
    return GoalSchedule(goals, schedule.policy, schedule.radius)


@dataclass
class RolloutRecord:
    """A generated motion plus everything needed to reproduce it."""

    sequence: MotionSequence
    latents: np.ndarray        # (duration, latent_dim)
    intentions: np.ndarray     # (duration, 7)
    noise_seeds: np.ndarray    # (duration,) uint64
    goal_indices: np.ndarray   # (duration,) active goal per generated frame
    schedule: GoalSchedule
    model_hash: str
    mode: str = "sample"
    temperature: float = 1.0

    @property
    def duration(self) -> int:
        return self.latents.shape[0]


def _advance_schedule(schedule: GoalSchedule, active: int, cur_pose,
                      model: MotionModel, current_frame: int) -> int:
    if active >= len(schedule.goals) - 1:
        return active
    goal = schedule.goals[active]
    if schedule.policy == "on_frame":
        while (active < len(schedule.goals) - 1
               and current_frame >= schedule.goals[active].target_frame):
            active += 1
        return active
    wrist_idx = model.skeleton.joint_index(goal.target_joint)
    wrist = ag.value(joint_position(cur_pose, model.skeleton, wrist_idx))
    if np.linalg.norm(wrist - goal.position) <= schedule.radius:
        active += 1
    return active


def rollout_poses(initial_pose, schedule_or_goal, duration: int,
                  model: MotionModel, latents):
    """Core loop shared by generation, replay, and latent optimization.

    latents: (duration, latent_dim) array or Tensor rows; when a Tape is
    active and latents require gradients, every pose is differentiable in
    them. Returns (pose list incl. initial, per-frame intention vectors,
    per-frame goal indices).
    """
    if isinstance(schedule_or_goal, GoalSpec):
        schedule = GoalSchedule.single(schedule_or_goal)
    else:
        schedule = schedule_or_goal
    skeleton = model.skeleton
    cur = initial_pose
    prev_delta = np.zeros(pose_dim(skeleton.n_rotated))
    poses = [cur]
    intents = []
    goal_idx = []
    active = 0
    for i in range(1, duration + 1):
        current_frame = i - 1
        active = _advance_schedule(schedule, active, cur, model, current_frame)
        cond, intent = assemble_condition(cur, prev_delta, skeleton,
                                          schedule.goals[active], current_frame)
        # the decoded delta is integrated now and conditions the next frame
        prev_delta = model.decode_delta(latents[i - 1], cond)
        if not np.all(np.isfinite(ag.value(prev_delta))):
            raise NumericFault("non-finite delta", where=f"rollout frame {i}")
        cur = integrate_delta(cur, prev_delta)
        poses.append(cur)
        intents.append(intent)
        goal_idx.append(active)
    return poses, intents, goal_idx


def _generated_sequence(poses, fps: float, model: MotionModel,
                        ident: str) -> MotionSequence:
    return MotionSequence(fps, np.stack(poses), model.skeleton, None, "generated", ident)


def generate(initial_pose, schedule: GoalSchedule, duration: int,
             model: MotionModel, rng: np.random.Generator,
             mode: str = "sample", temperature: float = 1.0,
             fps: float = 30.0, ident: str = "rollout") -> RolloutRecord:
    """Generate `duration` new frames from the initial pose."""
    if mode not in ("sample", "mean"):
        raise ValueError(f"unknown mode {mode!r}")
    if duration < 1:
        raise InvalidInputError("duration must be >= 1")
    k = model.spec.latent_dim
    if mode == "mean":
        noise_seeds = np.zeros(duration, dtype=np.uint64)
        latents = np.zeros((duration, k))
    else:
        noise_seeds = rng.integers(0, 2**63 - 1, size=duration, dtype=np.uint64)
        latents = np.stack([
            np.random.default_rng(int(s)).standard_normal(k) * temperature
            for s in noise_seeds])
    poses, intents, goal_idx = rollout_poses(
        initial_pose, schedule, duration, model, latents)
    return RolloutRecord(
        sequence=_generated_sequence(poses, fps, model, ident), latents=latents,
        intentions=np.stack(intents), noise_seeds=noise_seeds,
        goal_indices=np.array(goal_idx), schedule=schedule,
        model_hash=model.hash(), mode=mode, temperature=temperature)


def replay(record: RolloutRecord, model: MotionModel) -> MotionSequence:
    """Re-decode the recorded latents; reproduces the poses bit-exactly."""
    if record.model_hash != model.hash():
        raise ModelMismatchError("record was generated by a different model")
    return with_latents(record, record.latents, model).sequence


def with_latents(record: RolloutRecord, latents: np.ndarray,
                 model: MotionModel) -> RolloutRecord:
    """New record generated from the same start with different latents."""
    poses, intents, goal_idx = rollout_poses(
        record.sequence.poses[0], record.schedule, record.duration, model, latents)
    seq = _generated_sequence(poses, record.sequence.fps, model,
                              record.sequence.ident)
    return replace(record, sequence=seq, latents=np.asarray(latents),
                   intentions=np.stack(intents),
                   goal_indices=np.array(goal_idx))


# ------------------------------------------------------------------ file IO

def save_record(record: RolloutRecord, motion_path, sidecar_path) -> None:
    """The motion as a `.mot` plus a `.lat` sidecar with what replay needs."""
    save_motion(record.sequence, motion_path)
    schedule = record.schedule
    header = {"model_hash": record.model_hash, "mode": record.mode,
              "temperature": float(record.temperature),
              "schedule": {"goals": [g.to_dict() for g in schedule.goals],
                           "policy": schedule.policy,
                           "radius": float(schedule.radius)}}
    arrays = {"latents": np.asarray(record.latents, dtype=np.float64),
              "intentions": np.asarray(record.intentions, dtype=np.float64),
              "noise_seeds": np.asarray(record.noise_seeds, dtype=np.uint64),
              "goal_indices": np.asarray(record.goal_indices, dtype=np.int64)}
    write_container(sidecar_path, SIDECAR_MAGIC, SIDECAR_VERSION, header, arrays)


def load_record(motion_path, sidecar_path, model: MotionModel) -> RolloutRecord:
    seq = load_motion(motion_path, model.skeleton)
    header, arrays = read_container(sidecar_path, SIDECAR_MAGIC, SIDECAR_VERSION)
    try:
        sched = header["schedule"]
        schedule = GoalSchedule(tuple(GoalSpec(**g) for g in sched["goals"]),
                                sched["policy"], sched["radius"])
        return RolloutRecord(seq, arrays["latents"], arrays["intentions"],
                             arrays["noise_seeds"], arrays["goal_indices"],
                             schedule, header["model_hash"], header["mode"],
                             header["temperature"])
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptFileError(f"{sidecar_path}: bad sidecar fields ({e!r})") from e
