"""Goal-derived guidance features and the per-frame condition vector.

Three components steer generation toward a 3D goal: the average velocity the
target joint (TARGET_JOINT, the right wrist, for every goal) needs to arrive
on time, the heading difference toward the goal body/direction, and a
saturated pelvis-to-goal xy direction. A hindsight pseudo-goal turns
unlabeled motion into goal-conditioned training data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .body import Skeleton, _add_yaw_grad, _joint_read, heading_of, joint_position
from .errors import InvalidInputError, SkipWindow
from .geometry import _project_out, _safe_unit, safe_unit

INTENTION_DIM = 7
PELVIS_SATURATION = 2.0
HINDSIGHT_HORIZON = (15, 150)  # frames: 0.5 s to 5 s at 30 fps
TARGET_JOINT = "right_wrist"   # the joint every goal is reached with


@dataclass(frozen=True)
class GoalSpec:
    """3D goal position and the frame TARGET_JOINT should reach it."""

    position: np.ndarray
    target_frame: int

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=np.float64))
        if not np.all(np.isfinite(self.position)):
            raise InvalidInputError("goal position must be finite")

    def to_dict(self) -> dict:
        """JSON-ready fields of a single goal; GoalSpec(**d) reads them back."""
        return {"position": [float(v) for v in self.position],
                "target_frame": int(self.target_frame)}


def _remaining(goal: GoalSpec, current_frame):
    """max(t_g - i, 1), shaped to divide (..., 3) vectors."""
    remaining = np.maximum(
        np.asarray(goal.target_frame, dtype=np.float64) - current_frame, 1.0)
    return remaining[..., None] if np.ndim(remaining) > 0 else remaining


def wrist_intention(wrist_pos, goal: GoalSpec, current_frame):
    """Average velocity needed to land on the goal at its target frame.

    (g - w) / max(t_g - i, 1); the clamp keeps multi-goal rollouts finite
    after the deadline passes.
    """
    return (goal.position - wrist_pos) / _remaining(goal, current_frame)


def _orientation_term(current, goal_direction, goal_heading):
    """Difference between the desired and the current unit xy heading.

    Training (goal_heading given): stored goal-frame heading minus current.
    Inference (goal_heading None): unit pelvis-to-goal xy direction minus
    current. Degenerate directions contribute zero terms.
    """
    if goal_heading is None:
        return goal_direction - current
    return safe_unit(goal_heading) - current


def pelvis_intention(pelvis_pos, goal_pos):
    """Saturated xy direction to the goal: 2(1 - e^-d) * v/d, zero at d = 0."""
    direction, distance, _ = _safe_unit(goal_pos[..., 0:2] - pelvis_pos[..., 0:2])
    return _pelvis_term(direction, np.exp(-distance))


def _pelvis_term(direction, decay):
    return PELVIS_SATURATION * (1.0 - decay) * direction


def compute_intention(pose, skeleton: Skeleton, goal: GoalSpec, current_frame):
    """(..., 7) intention of one pose: wrist 3, orientation 2, pelvis 2.

    All three components are rotated by -yaw of the root into the canonical
    frame, which makes the condition vector, and therefore closed-loop
    generation, equivariant to world heading.
    """
    return assemble_condition(pose, np.zeros(ag.value(pose).shape), skeleton,
                              goal, current_frame)[1]


def condition_dim(n_rotated: int) -> int:
    """(1 + 6 + 6J) local pose + (3 + 6 + 6J) previous delta + 7 intention."""
    return (1 + 6 + 6 * n_rotated) + (3 + 6 + 6 * n_rotated) + INTENTION_DIM


def assemble_condition(pose, prev_delta, skeleton: Skeleton,
                       goal: GoalSpec, current_frame, goal_heading=None):
    """(condition, intention): [z, canonical root 6D, joint 6Ds, prev delta,
    intention] and a copy of the intention it holds.

    Only the z translation enters and the root orientation is
    yaw-canonicalized, so the condition is invariant to world heading and
    xy position when the goal moves with the body.

    One fused op over (pose, pose, prev_delta), the pose's own gradient
    first and its read's second, the order of the rollout frame's inputs.
    The target joint is read as joint_position reads it, and the heading,
    the pelvis-to-goal direction and the three intention terms run the
    numpy calls of their elementary ops in the same order, so the bits are
    those of the composition; the VJP is written out by hand.
    """
    pd = ag.value(pose)
    local, wrist, read_vjp = _joint_read(pd, skeleton, skeleton.joint_index(TARGET_JOINT))
    out, vjp = _conditioned(pd, local[..., 0, :, :], wrist, ag.value(prev_delta), skeleton,
                            goal, current_frame, goal_heading)

    def condition_vjp(g):
        g_pose, g_root, g_wrist, g_prev_delta = vjp(g)
        return g_pose, read_vjp(g_wrist, g_root), g_prev_delta

    return (ag.record(out, (pose, pose, prev_delta), condition_vjp),
            out[..., -INTENTION_DIM:].copy())


def _conditioned(pd, rd, wd, dd, skeleton: Skeleton, goal: GoalSpec,
                 current_frame, goal_heading):
    """(condition, vjp) of assemble_condition on plain arrays, from the
    pose's root rotation and target joint position; vjp(g) returns the
    gradients of (pose, root rotation, target joint position, previous
    delta)."""
    n = pd.shape[-1]
    i = 2 * n - 2    # the intention's first column
    out = np.empty(pd.shape[:-1] + (i + INTENTION_DIM,))
    out[..., :n - 2] = pd[..., 2:]
    out[..., n - 2:i] = dd
    forward = skeleton.forward_axis
    heading, heading_norm, flat = _safe_unit((rd @ forward.reshape(3, 1))[..., 0:2, 0])
    to_goal = goal.position[..., 0:2] - pd[..., 0:2]
    direction, distance, near = _safe_unit(to_goal)
    remaining = _remaining(goal, current_frame)
    out[..., i:i + 3] = (goal.position - wd) / remaining
    out[..., i + 3:i + 5] = _orientation_term(heading, direction, goal_heading)
    decay = np.exp(-distance)
    out[..., i + 5:] = _pelvis_term(direction, decay)
    # the x column of each xy pair: both root 6D halves, then the wrist,
    # orientation and pelvis terms
    xs = np.array([1, 4, i, i + 3, i + 5])
    ys = xs + 1
    neg_yaw = -np.arctan2(pd[..., 4], pd[..., 3])
    c = np.cos(neg_yaw)[..., None]
    s = np.sin(neg_yaw)[..., None]
    x = out[..., xs]
    y = out[..., ys]
    xt = c * x - s * y
    yt = s * x + c * y
    out[..., xs] = xt
    out[..., ys] = yt

    def vjp(g):
        gx = g[..., xs]
        gy = g[..., ys]
        g_yaw = (gx * yt - gy * xt).sum(axis=-1)   # d/d(yaw) = -d/d(-yaw)
        gu = g.copy()     # the gradient of the slots before the turn
        gu[..., xs] = c * gx + s * gy
        gu[..., ys] = c * gy - s * gx
        gp = np.zeros(gu.shape[:-1] + (n,))
        gp[..., 2:] = gu[..., :n - 2]
        _add_yaw_grad(gp, g_yaw, pd)
        g_orient = gu[..., i + 3:i + 5]
        g_pelvis = gu[..., i + 5:]
        g_dir = g_pelvis * (PELVIS_SATURATION * (1.0 - decay))
        if goal_heading is None:
            g_dir = g_dir + g_orient
        g_dist = ((g_pelvis * direction).sum(axis=-1, keepdims=True)
                  * (PELVIS_SATURATION * decay))
        g_to_goal = np.where(near, 0.0, g_dist * direction
                             + _project_out(g_dir, direction, distance))
        gp[..., 0:2] -= g_to_goal
        g_fwd = np.where(flat, 0.0, _project_out(-g_orient, heading, heading_norm))
        g_root = np.zeros(g_fwd.shape[:-1] + (3, 3))
        g_root[..., 0:2, :] = g_fwd[..., :, None] * forward
        g_wrist = -gu[..., i:i + 3] / remaining
        return (ag.unbroadcast(gp, pd.shape), ag.unbroadcast(g_root, rd.shape),
                ag.unbroadcast(g_wrist, wd.shape),
                ag.unbroadcast(gu[..., n - 2:i], dd.shape))

    return out, vjp


def hindsight_goal(sequence, anchor_frame: int, rng: np.random.Generator):
    """(goal, goal_heading): TARGET_JOINT's position at a random future frame
    declared the goal, and the body heading at that frame.

    t_g is drawn uniformly from [anchor+min, min(anchor+max, last_frame)],
    (min, max) being HINDSIGHT_HORIZON. Raises SkipWindow when the sequence
    cannot host the minimum horizon.
    """
    min_h, max_h = HINDSIGHT_HORIZON
    last = sequence.n_frames - 1
    lo = anchor_frame + min_h
    if lo > last:
        raise SkipWindow(
            f"anchor {anchor_frame} + horizon {min_h} exceeds last frame {last}")
    hi = min(anchor_frame + max_h, last)
    t_g = int(rng.integers(lo, hi + 1))
    skeleton = sequence.skeleton
    pose = sequence.poses[t_g]
    position = joint_position(pose, skeleton, skeleton.joint_index(TARGET_JOINT))
    return GoalSpec(position, t_g), heading_of(pose, skeleton)
