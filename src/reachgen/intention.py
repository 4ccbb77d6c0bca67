"""Goal-derived guidance features and the per-frame condition vector.

Three components steer generation toward a 3D goal: the average velocity the
target joint needs to arrive on time, the heading difference toward the goal
body/direction, and a saturated pelvis-to-goal xy direction. A hindsight
pseudo-goal turns unlabeled motion into goal-conditioned training data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ag
from .body import (Pose, PoseDelta, Skeleton, delta_to_vector, heading_of,
                   joint_position_and_heading)
from .errors import SkipWindow
from .geometry import rotate_sixd_z, rotate_z, safe_norm, safe_unit, yaw_of

INTENTION_DIM = 7
PELVIS_SATURATION = 2.0
DEFAULT_HINDSIGHT_HORIZON = (15, 150)  # frames: 0.5 s to 5 s at 30 fps


@dataclass(frozen=True)
class GoalSpec:
    """3D goal position, the frame it should be reached, the reaching joint."""

    position: np.ndarray
    target_frame: int
    target_joint: str = "right_wrist"

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=np.float64))
        if not np.all(np.isfinite(self.position)):
            raise ValueError("goal position must be finite")

    def to_dict(self) -> dict:
        """JSON-ready fields of a single goal; GoalSpec(**d) reads them back."""
        return {"position": [float(v) for v in self.position],
                "target_frame": int(self.target_frame),
                "target_joint": self.target_joint}


@dataclass
class IntentionVector:
    """wrist (..., 3) m/frame; orientation (..., 2); pelvis (..., 2), norm < 2."""

    wrist: object
    orientation: object
    pelvis: object

    def as_vector(self):
        return ag.concatenate([self.wrist, self.orientation, self.pelvis], axis=-1)


def wrist_intention(wrist_pos, goal: GoalSpec, current_frame):
    """Average velocity needed to land on the goal at its target frame.

    (g - w) / max(t_g - i, 1); the clamp keeps multi-goal rollouts finite
    after the deadline passes.
    """
    remaining = np.maximum(
        np.asarray(goal.target_frame, dtype=np.float64) - current_frame, 1.0)
    if np.ndim(remaining) > 0:
        remaining = remaining[..., None]
    return (goal.position - wrist_pos) / remaining


def orientation_intention(pose: Pose, goal: GoalSpec, skeleton: Skeleton,
                          goal_heading=None):
    """Difference between the desired and the current unit xy heading.

    Training (goal_heading given): stored goal-frame heading minus current.
    Inference (goal_heading None): unit pelvis-to-goal xy direction minus
    current. Degenerate directions contribute zero terms.
    """
    return _orientation_term(heading_of(pose, skeleton), pose, goal, goal_heading)


def _orientation_term(current, pose: Pose, goal: GoalSpec, goal_heading):
    if goal_heading is not None:
        desired = safe_unit(np.asarray(goal_heading, dtype=np.float64))
    else:
        desired = safe_unit(goal.position[..., 0:2] - pose.translation[..., 0:2])
    return desired - current


def pelvis_intention(pelvis_pos, goal_pos):
    """Saturated xy direction to the goal: 2(1 - e^-d) * v/d, zero at d = 0."""
    v = goal_pos[..., 0:2] - pelvis_pos[..., 0:2]
    return PELVIS_SATURATION * (1.0 - ag.exp(-safe_norm(v))) * safe_unit(v)


def compute_intention(pose: Pose, skeleton: Skeleton, goal: GoalSpec,
                      current_frame, goal_heading=None) -> IntentionVector:
    """All three components for one pose, in the yaw-canonical frame.

    The canonical rotation (by -yaw of the root) makes the condition vector,
    and therefore closed-loop generation, equivariant to world heading.
    """
    wrist, heading = joint_position_and_heading(
        pose, skeleton, skeleton.joint_index(goal.target_joint))
    i_w = wrist_intention(wrist, goal, current_frame)
    i_r = _orientation_term(heading, pose, goal, goal_heading)
    i_p = pelvis_intention(pose.translation, goal.position)
    yaw = yaw_of(pose.root_orientation)
    i_w = rotate_z(i_w, -yaw)
    i_r = rotate_z(i_r, -yaw)
    i_p = rotate_z(i_p, -yaw)
    return IntentionVector(i_w, i_r, i_p)


def condition_dim(n_rotated: int) -> int:
    """(1 + 6 + 6J) local pose + (3 + 6 + 6J) previous delta + 7 intention."""
    return (1 + 6 + 6 * n_rotated) + (3 + 6 + 6 * n_rotated) + INTENTION_DIM


def assemble_condition(pose: Pose, prev_delta: PoseDelta,
                       intention: IntentionVector):
    """Concatenate [z, canonical root 6D, joint 6Ds, prev delta, intention].

    Only the z translation enters and the root orientation is
    yaw-canonicalized, so the state half is invariant to world heading and
    xy position; intention components pass through as given.
    """
    yaw = yaw_of(pose.root_orientation)
    root_canon = rotate_sixd_z(pose.root_orientation, -yaw)
    joints = pose.joint_rotations
    jd = ag.value(joints)
    joints_flat = ag.reshape(joints, jd.shape[:-2] + (jd.shape[-2] * 6,))
    return ag.concatenate([
        pose.translation[..., 2:3],
        root_canon,
        joints_flat,
        delta_to_vector(prev_delta),
        intention.as_vector(),
    ], axis=-1)


@dataclass
class HindsightGoal:
    """A pseudo-goal plus the body heading at its frame (for training I^r)."""

    goal: GoalSpec
    goal_heading: np.ndarray = field(default_factory=lambda: np.zeros(2))


def hindsight_goal(sequence, anchor_frame: int, rng: np.random.Generator,
                   horizon=DEFAULT_HINDSIGHT_HORIZON,
                   target_joint: str = "right_wrist") -> HindsightGoal:
    """Declare the target joint's position at a random future frame the goal.

    t_g is drawn uniformly from [anchor+min, min(anchor+max, last_frame)].
    Raises SkipWindow when the sequence cannot host the minimum horizon.
    """
    min_h, max_h = horizon
    last = sequence.n_frames - 1
    lo = anchor_frame + min_h
    if lo > last:
        raise SkipWindow(
            f"anchor {anchor_frame} + horizon {min_h} exceeds last frame {last}")
    hi = min(anchor_frame + max_h, last)
    t_g = int(rng.integers(lo, hi + 1))
    pose = sequence.pose_at(t_g)
    skeleton = sequence.skeleton
    position, heading = joint_position_and_heading(
        pose, skeleton, skeleton.joint_index(target_joint))
    return HindsightGoal(GoalSpec(np.asarray(position), t_g, target_joint),
                         np.asarray(heading))
