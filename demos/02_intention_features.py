"""The three guidance features that steer generation toward a goal, and a
hindsight pseudo-goal on an unlabeled clip.

Run: python demos/02_intention_features.py
"""
import numpy as np

from reachgen import intention as it
from reachgen.body import desk_skeleton
from reachgen.dataset import SyntheticGenConfig, generate_synthetic_corpus, standing_pose
from reachgen.intention import GoalSpec

skel = desk_skeleton()
pose = standing_pose(skel)
goal = GoalSpec(np.array([1.5, 1.5, 1.0]), target_frame=120)

# the intention is one 7-vector: wrist 3, orientation 2, pelvis 2
vec = it.compute_intention(pose, skel, goal, current_frame=0)
print("wrist intention (m/frame):", np.round(vec[0:3], 4))
print("orientation intention:    ", np.round(vec[3:5], 4))
print("pelvis intention:         ", np.round(vec[5:7], 4))

# the pelvis component saturates at norm 2 no matter how far the goal is
for d in (0.5, 2.0, 10.0, 100.0):
    p = it.pelvis_intention(np.zeros(3), np.array([d, 0.0, 0.0]))
    print(f"  pelvis intention norm at {d:6.1f} m: {np.linalg.norm(p):.4f}")

# halving the time to the goal doubles the required wrist velocity
fast = GoalSpec(goal.position, target_frame=60)
print("wrist intention with half the time:",
      np.round(it.wrist_intention(np.zeros(3), fast, 0)
               / it.wrist_intention(np.zeros(3), goal, 0), 3))

# hindsight: an unlabeled walk becomes goal-conditioned training data
corpus = generate_synthetic_corpus(
    SyntheticGenConfig(n_locomotion=1, n_reaching=0, n_walk_reach=0, seed=4), skel)
hindsight, _ = it.hindsight_goal(corpus[0], anchor_frame=10,
                                 rng=np.random.default_rng(0))
print(f"hindsight goal: wrist position at future frame {hindsight.target_frame}: "
      f"{np.round(hindsight.position, 3)}")
