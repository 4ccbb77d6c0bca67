"""Closed-loop generation toward a goal, then latent-space refinement of the
same motion (goal term + a waypoint the pelvis should pass through).

Run: python demos/03_train_desk_model.py first (writes demo_model.ckpt),
then python demos/04_generate_and_optimize.py
"""
import numpy as np

from reachgen.dataset import standing_pose
from reachgen.intention import GoalSpec
from reachgen.latent_opt import OptObjective, final_wrist_distance, optimize_latents
from reachgen.model import load_checkpoint
from reachgen.rollout import GoalSchedule, generate

model = load_checkpoint("demo_model.ckpt")
skel = model.skeleton

goal = GoalSpec(np.array([1.0, 1.2, 1.0]), target_frame=90)
record = generate(standing_pose(skel), GoalSchedule.single(goal), 90, model,
                  np.random.default_rng(3))
print(f"generated {record.duration} frames, final wrist-goal distance "
      f"{final_wrist_distance(record, goal, model) * 100:.1f} cm")

# pull the final wrist onto the goal and route the pelvis through a waypoint
waypoint = record.sequence.poses[45, :2] + np.array([0.25, 0.0])
objective = OptObjective(goal_weight=1.0, prior_weight=1e-3,
                         waypoints=((45, waypoint, 1.0),))
refined, report = optimize_latents(record, goal, objective, model,
                                   steps=80, lr=1e-2)
print(f"after optimization: {report.final_distance * 100:.1f} cm "
      f"(goal loss {report.l_goal[0]:.4f} -> {report.l_goal[-1]:.4f}, "
      f"waypoint loss {report.l_waypoint[0]:.4f} -> {report.l_waypoint[-1]:.4f})")

# time control: the same goal twice as fast doubles the demanded wrist speed
fast = GoalSchedule.single(GoalSpec(goal.position, target_frame=45))
fast_rec = generate(standing_pose(skel), fast, 45, model, np.random.default_rng(3))
print(f"time-scaled rollout: {fast_rec.duration} frames, distance "
      f"{final_wrist_distance(fast_rec, GoalSpec(goal.position, 45), model) * 100:.1f} cm")
