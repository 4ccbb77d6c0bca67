"""Goal-derived guidance features and the per-frame condition vector.

Three components steer generation toward a 3D goal: the average velocity the
target joint needs to arrive on time, the heading difference toward the goal
body/direction, and a saturated pelvis-to-goal xy direction. A hindsight
pseudo-goal turns unlabeled motion into goal-conditioned training data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .body import Skeleton, heading_of, joint_position_and_heading, rotate_pose_z
from .errors import InvalidInputError, SkipWindow
from .geometry import rotate_z, safe_norm, safe_unit, yaw_of

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
            raise InvalidInputError("goal position must be finite")

    def to_dict(self) -> dict:
        """JSON-ready fields of a single goal; GoalSpec(**d) reads them back."""
        return {"position": [float(v) for v in self.position],
                "target_frame": int(self.target_frame),
                "target_joint": self.target_joint}


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


def orientation_intention(pose, goal: GoalSpec, skeleton: Skeleton,
                          goal_heading=None):
    """Difference between the desired and the current unit xy heading.

    Training (goal_heading given): stored goal-frame heading minus current.
    Inference (goal_heading None): unit pelvis-to-goal xy direction minus
    current. Degenerate directions contribute zero terms.
    """
    to_goal = goal.position[..., 0:2] - pose[..., 0:2]
    return _orientation_term(heading_of(pose, skeleton), safe_unit(to_goal),
                             goal_heading)


def _orientation_term(current, goal_direction, goal_heading):
    if goal_heading is None:
        return goal_direction - current
    return safe_unit(np.asarray(goal_heading, dtype=np.float64)) - current


def pelvis_intention(pelvis_pos, goal_pos):
    """Saturated xy direction to the goal: 2(1 - e^-d) * v/d, zero at d = 0."""
    v = goal_pos[..., 0:2] - pelvis_pos[..., 0:2]
    return _pelvis_term(v, safe_unit(v))


def _pelvis_term(to_goal, goal_direction):
    return PELVIS_SATURATION * (1.0 - ag.exp(-safe_norm(to_goal))) * goal_direction


def _intention(pose, skeleton: Skeleton, goal: GoalSpec, current_frame,
               goal_heading):
    """(intention (..., 7), -yaw of the root) for compute_intention and
    assemble_condition; the pelvis-to-goal direction serves both the
    orientation and the pelvis term."""
    wrist, heading = joint_position_and_heading(
        pose, skeleton, skeleton.joint_index(goal.target_joint))
    to_goal = goal.position[..., 0:2] - pose[..., 0:2]
    direction = safe_unit(to_goal)
    neg_yaw = -yaw_of(pose[..., 3:9])
    intention = ag.concatenate([
        rotate_z(wrist_intention(wrist, goal, current_frame), neg_yaw),
        rotate_z(_orientation_term(heading, direction, goal_heading), neg_yaw),
        rotate_z(_pelvis_term(to_goal, direction), neg_yaw),
    ], axis=-1)
    return intention, neg_yaw


def compute_intention(pose, skeleton: Skeleton, goal: GoalSpec,
                      current_frame, goal_heading=None):
    """(..., 7) intention of one pose: wrist 3, orientation 2, pelvis 2.

    All three components are rotated by -yaw of the root into the canonical
    frame, which makes the condition vector, and therefore closed-loop
    generation, equivariant to world heading.
    """
    return _intention(pose, skeleton, goal, current_frame, goal_heading)[0]


def condition_dim(n_rotated: int) -> int:
    """(1 + 6 + 6J) local pose + (3 + 6 + 6J) previous delta + 7 intention."""
    return (1 + 6 + 6 * n_rotated) + (3 + 6 + 6 * n_rotated) + INTENTION_DIM


def assemble_condition(pose, prev_delta, skeleton: Skeleton,
                       goal: GoalSpec, current_frame, goal_heading=None):
    """(condition, intention): [z, canonical root 6D, joint 6Ds, prev delta,
    intention] and the intention it holds.

    Only the z translation enters and the root orientation is
    yaw-canonicalized, so the condition is invariant to world heading and
    xy position when the goal moves with the body.
    """
    intention, neg_yaw = _intention(pose, skeleton, goal, current_frame,
                                    goal_heading)
    local = rotate_pose_z(pose, neg_yaw)[..., 2:]
    return ag.concatenate([local, prev_delta, intention], axis=-1), intention


def hindsight_goal(sequence, anchor_frame: int, rng: np.random.Generator,
                   horizon=DEFAULT_HINDSIGHT_HORIZON):
    """(goal, goal_heading): the right wrist's position at a random future
    frame declared the goal, and the body heading at that frame.

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
    skeleton = sequence.skeleton
    position, heading = joint_position_and_heading(
        sequence.poses[t_g], skeleton, skeleton.joint_index("right_wrist"))
    return GoalSpec(np.asarray(position), t_g), np.asarray(heading)
