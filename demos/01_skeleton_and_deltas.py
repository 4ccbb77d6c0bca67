"""Walk through the kinematic core: 6D rotations, forward kinematics, and
the yaw-canonical delta representation.

Run: python demos/01_skeleton_and_deltas.py
"""
import numpy as np

from reachgen import geometry as geo
from reachgen.body import (desk_skeleton, forward_kinematics, integrate_delta,
                           pose_delta, rest_pose, rotate_pose_z)

skel = desk_skeleton()
print(f"skeleton: {skel.n_joints} joints ({skel.n_rotated} rotated), "
      f"hash {skel.hash[:12]}")

# 6D rotations decode via Gram-Schmidt; scale does not matter
m = geo.sixd_to_matrix(np.array([2.0, 0, 0, 0, 3.0, 0]))
print("scaled identity 6D decodes to:\n", m)

# a pose is a vector: translation 3, then one 6D rotation per joint with the
# root's first, so joint j sits at pose[3+6j : 9+6j]
pose = rest_pose(skel)
print(f"pose vector: {pose.shape[0]} values")

# forward kinematics of the rest pose: feet on the ground plane
positions = forward_kinematics(pose, skel)
for name in ("pelvis", "head", "right_wrist", "left_foot"):
    print(f"  {name:12s} at {np.round(positions[skel.joint_index(name)], 3)}")

# deltas canonicalize away the global heading: the same step forward gives
# the same delta no matter which way the body faces. A delta is a vector in
# the pose layout
step = rest_pose(skel, translation=(0.0, 0.1, 0.90))
d0 = pose_delta(pose, step)
d1 = pose_delta(rotate_pose_z(pose, 1.3), rotate_pose_z(step, 1.3))
print("delta translation, facing +y:   ", np.round(d0[0:3], 6))
print("delta translation, rotated 1.3: ", np.round(d1[0:3], 6))

# integration inverts the delta exactly
back = integrate_delta(pose, d0)
print("roundtrip error:", float(np.max(np.abs(back - step))))
