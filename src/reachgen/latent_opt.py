"""Gradient refinement of a rollout's latent sequence. The generation loop is
fully differentiable (conditions recomputed inside it each iteration), so the
goal term on the final frame sends gradient to every latent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ag
from .autodiff import Tape, Tensor
from .body import joint_position
from .errors import InvalidInputError, ModelMismatchError
from .intention import GoalSpec
from .model import MotionModel
from .nn import AdamState, ParameterStore, adam_step
from .rollout import RolloutRecord, rollout_poses, with_latents


@dataclass(frozen=True)
class OptObjective:
    """Weights of the optimization terms plus optional waypoint constraints.

    Waypoints are (frame index, xy position, weight) triples pulling the
    pelvis ground projection at that frame toward the point.
    """

    goal_weight: float = 1.0
    prior_weight: float = 1e-3
    waypoints: tuple = ()

    def __post_init__(self):
        weights = [self.goal_weight, self.prior_weight]
        if not all(np.isfinite(w) and w >= 0 for w in weights):
            raise InvalidInputError(f"weights must be finite and >= 0, got {weights}")
        for frame, xy, weight in self.waypoints:
            if not (np.isfinite(weight) and weight >= 0):
                raise InvalidInputError(
                    f"waypoint weights must be finite and >= 0, got {weight}")
            if len(np.asarray(xy)) != 2 or not np.all(np.isfinite(xy)):
                raise InvalidInputError("waypoints are finite xy points")


@dataclass
class OptReport:
    """Per-iteration loss terms and the final wrist-goal distance (meters)."""

    l_opt: list = field(default_factory=list)
    l_norm: list = field(default_factory=list)
    l_goal: list = field(default_factory=list)
    l_waypoint: list = field(default_factory=list)
    final_distance: float = float("nan")
    iterations: int = 0

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("iteration,l_opt,l_norm,l_goal,l_waypoint,wrist_distance\n")
            for i in range(self.iterations):
                goal = self.l_goal[i]
                dist = float(np.sqrt(goal)) if goal >= 0 else float("nan")
                f.write(f"{i},{self.l_opt[i]!r},{self.l_norm[i]!r},"
                        f"{goal!r},{self.l_waypoint[i]!r},{dist!r}\n")


def _objective_terms(latents: Tensor, record: RolloutRecord, goal: GoalSpec,
                     objective: OptObjective, model: MotionModel):
    skeleton = model.skeleton
    out = rollout_poses(record.sequence.poses[0], goal, record.duration,
                        model, latents)
    out.raise_fault()
    poses = out.poses
    l_norm = 0.5 * ag.sum(latents * latents)
    wrist_idx = skeleton.joint_index(goal.target_joint)
    wrist = joint_position(poses[-1], skeleton, wrist_idx)
    gdiff = wrist - goal.position
    l_goal = ag.sum(gdiff * gdiff)
    l_way = 0.0
    for frame, xy, weight in objective.waypoints:
        if not 0 <= frame <= record.duration:
            raise ValueError(f"waypoint frame {frame} outside rollout duration")
        pelvis_xy = poses[frame][..., 0:2]
        wdiff = pelvis_xy - np.asarray(xy)
        l_way = l_way + weight * ag.sum(wdiff * wdiff)
    total = (objective.prior_weight * l_norm
             + objective.goal_weight * l_goal + l_way)
    return total, l_norm, l_goal, l_way


def optimize_latents(record: RolloutRecord, goal: GoalSpec,
                     objective: OptObjective, model: MotionModel,
                     steps: int = 100, lr: float = 1e-2):
    """Adam on the latent rows; returns (refined record, report).

    Dropout stays off and there is no fresh sampling, so the objective is a
    deterministic function of the latents. The model's parameters are
    frozen (requires_grad False) for the steps, so the backward pass
    differentiates the latents only and leaves the model's gradients
    untouched; their flags are restored on return or raise. Raises
    InvalidInputError for a negative step count or a learning rate that is
    not finite and positive.
    """
    if steps < 0:
        raise InvalidInputError(f"steps must be >= 0, got {steps}")
    if not (np.isfinite(lr) and lr > 0):
        raise InvalidInputError(f"lr must be finite and positive, got {lr}")
    if record.model_hash != model.hash():
        raise ModelMismatchError("record was generated by a different model")
    store = ParameterStore()
    latents = store.add("latents", record.latents.copy())
    adam = AdamState(lr_base=lr, lr_final=lr, total_steps=steps)
    report = OptReport()
    frozen = [(t, t.requires_grad) for _, t in model.params.items()]
    try:
        for t, _ in frozen:
            t.requires_grad = False
        for _ in range(steps):
            store.zero_grad()
            with Tape() as tape:
                total, l_norm, l_goal, l_way = _objective_terms(
                    latents, record, goal, objective, model)
            tape.backward(total)
            adam_step(adam, store, store.gradients())
            report.l_opt.append(float(ag.value(total)))
            report.l_norm.append(float(ag.value(l_norm)))
            report.l_goal.append(float(ag.value(l_goal)))
            report.l_waypoint.append(float(ag.value(l_way)))
    finally:
        for t, flag in frozen:
            t.requires_grad = flag
    report.iterations = steps
    refined = with_latents(record, latents.data.copy(), model)
    report.final_distance = final_wrist_distance(refined, goal, model)
    return refined, report


def final_wrist_distance(record: RolloutRecord, goal: GoalSpec,
                         model: MotionModel) -> float:
    """Distance of the last frame's target joint to the goal."""
    wrist = np.asarray(joint_position(record.sequence.poses[-1], model.skeleton,
                                      model.skeleton.joint_index(goal.target_joint)))
    return float(np.linalg.norm(wrist - goal.position))
