"""Kinematic skeleton, poses, yaw-canonical pose deltas, forward kinematics.

A pose is root translation + root orientation (6D) + one 6D rotation per
non-root joint. Deltas are stored component-wise on the raw 6D encodings
after removing the previous frame's global yaw, which keeps integration
exactly linear and invertible.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ag
from .errors import DimensionMismatchError
from .geometry import rotate_sixd_z, rotate_z, safe_unit, sixd_to_matrix, yaw_of


@dataclass(frozen=True)
class Skeleton:
    """Joint tree with rest offsets. Joint 0 is the pelvis root.

    Parents must be topologically ordered (parents[i] < i); offsets are in
    meters in the parent frame; forward_axis is a unit vector in the root
    frame.
    """

    names: tuple[str, ...]
    parents: tuple[int, ...]
    offsets: np.ndarray        # (n_joints, 3)
    forward_axis: np.ndarray   # (3,)

    def __post_init__(self):
        if self.parents[0] != -1 or self.names[0] != "pelvis":
            raise ValueError("joint 0 must be the pelvis root")
        for i, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < i:
                raise ValueError("parents must be topologically ordered")
        if not np.all(np.isfinite(self.offsets)):
            raise ValueError("offsets must be finite")
        if abs(np.linalg.norm(self.forward_axis) - 1.0) > 1e-9:
            raise ValueError("forward_axis must be unit-norm")

    @property
    def n_joints(self) -> int:
        return len(self.names)

    @property
    def n_rotated(self) -> int:
        """Non-root joints carrying a rotation in the pose vector."""
        return len(self.names) - 1

    def joint_index(self, name: str) -> int:
        return self.names.index(name)

    def ancestors(self, joint: int) -> list[int]:
        """Chain root..joint inclusive."""
        chain = [joint]
        while self.parents[chain[-1]] != -1:
            chain.append(self.parents[chain[-1]])
        return chain[::-1]

    def to_text(self) -> str:
        payload = {
            "forward_axis": [float(v) for v in self.forward_axis],
            "joints": [
                {
                    "name": n,
                    "parent": None if p == -1 else self.names[p],
                    "offset": [float(v) for v in o],
                }
                for n, p, o in zip(self.names, self.parents, self.offsets)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_text() + "\n")


def skeleton_from_text(text: str) -> Skeleton:
    """Inverse of Skeleton.to_text."""
    payload = json.loads(text)
    names = tuple(j["name"] for j in payload["joints"])
    parents = tuple(
        -1 if j["parent"] is None else names.index(j["parent"])
        for j in payload["joints"]
    )
    offsets = np.array([j["offset"] for j in payload["joints"]], dtype=np.float64)
    forward = np.asarray(payload["forward_axis"], dtype=np.float64)
    return Skeleton(names, parents, offsets, forward)


def load_skeleton(path) -> Skeleton:
    with open(path) as f:
        return skeleton_from_text(f.read())


def desk_skeleton() -> Skeleton:
    """13-joint skeleton (pelvis + 12 rotated joints), z-up, +y forward.

    Rest pose stands with feet on z = 0 when the root sits at z = 0.90 and
    arms in a T-pose; single-link legs (no knees) keep the rotated-joint
    count at 12.
    """
    spec = [
        ("pelvis", None, (0.0, 0.0, 0.0)),
        ("spine", "pelvis", (0.0, 0.0, 0.25)),
        ("head", "spine", (0.0, 0.0, 0.30)),
        ("left_shoulder", "spine", (-0.20, 0.0, 0.20)),
        ("left_elbow", "left_shoulder", (-0.26, 0.0, 0.0)),
        ("left_wrist", "left_elbow", (-0.24, 0.0, 0.0)),
        ("right_shoulder", "spine", (0.20, 0.0, 0.20)),
        ("right_elbow", "right_shoulder", (0.26, 0.0, 0.0)),
        ("right_wrist", "right_elbow", (0.24, 0.0, 0.0)),
        ("left_hip", "pelvis", (-0.10, 0.0, -0.05)),
        ("left_foot", "left_hip", (0.0, 0.0, -0.85)),
        ("right_hip", "pelvis", (0.10, 0.0, -0.05)),
        ("right_foot", "right_hip", (0.0, 0.0, -0.85)),
    ]
    names = tuple(s[0] for s in spec)
    parents = tuple(-1 if s[1] is None else names.index(s[1]) for s in spec)
    offsets = np.array([s[2] for s in spec], dtype=np.float64)
    return Skeleton(names, parents, offsets, np.array([0.0, 1.0, 0.0]))


@dataclass
class Pose:
    """One motion frame: translation (m), root 6D, per-joint 6D rotations.

    Fields may hold plain arrays or autodiff Tensors, with arbitrary leading
    batch axes: translation (..., 3), root_orientation (..., 6),
    joint_rotations (..., J, 6).
    """

    translation: object
    root_orientation: object
    joint_rotations: object

    @property
    def n_rotated(self) -> int:
        return ag.value(self.joint_rotations).shape[-2]


@dataclass
class PoseDelta:
    """Yaw-canonicalized frame-to-frame difference, same layout as Pose."""

    d_translation: object
    d_root: object
    d_joints: object


def pose_dim(n_rotated: int) -> int:
    return 3 + 6 + 6 * n_rotated


def pose_to_vector(pose: Pose):
    j = pose.joint_rotations
    jd = ag.value(j)
    flat = ag.reshape(j, jd.shape[:-2] + (jd.shape[-2] * 6,))
    return ag.concatenate([pose.translation, pose.root_orientation, flat], axis=-1)


def vector_to_pose(vec, n_rotated: int) -> Pose:
    vd = ag.value(vec)
    if vd.shape[-1] != pose_dim(n_rotated):
        raise DimensionMismatchError(
            f"pose vector has dim {vd.shape[-1]}, expected {pose_dim(n_rotated)}")
    joints = ag.reshape(vec[..., 9:], vd.shape[:-1] + (n_rotated, 6))
    return Pose(vec[..., 0:3], vec[..., 3:9], joints)


def delta_to_vector(delta: PoseDelta):
    return pose_to_vector(Pose(delta.d_translation, delta.d_root, delta.d_joints))


def vector_to_delta(vec, n_rotated: int) -> PoseDelta:
    p = vector_to_pose(vec, n_rotated)
    return PoseDelta(p.translation, p.root_orientation, p.joint_rotations)


def zero_delta(n_rotated: int, batch_shape=()) -> PoseDelta:
    return PoseDelta(
        np.zeros(batch_shape + (3,)),
        np.zeros(batch_shape + (6,)),
        np.zeros(batch_shape + (n_rotated, 6)),
    )


def rest_pose(skeleton: Skeleton, translation=(0.0, 0.0, 0.90)) -> Pose:
    ident = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    return Pose(
        np.asarray(translation, dtype=np.float64),
        ident.copy(),
        np.tile(ident, (skeleton.n_rotated, 1)),
    )


def _check_same_skeleton(a: Pose, b: Pose):
    if ag.value(a.joint_rotations).shape[-2] != ag.value(b.joint_rotations).shape[-2]:
        raise DimensionMismatchError("poses have different joint counts")


def pose_delta(prev: Pose, nxt: Pose) -> PoseDelta:
    """Difference nxt - prev with prev's global yaw removed.

    Translation and root-orientation deltas are rotated by -yaw(prev) about
    world z; joint rotations are parent-local, so their raw 6D difference is
    already heading-agnostic.
    """
    _check_same_skeleton(prev, nxt)
    yaw = yaw_of(prev.root_orientation)
    d_t = rotate_z(nxt.translation - prev.translation, -yaw)
    d_r = rotate_sixd_z(nxt.root_orientation, -yaw) - rotate_sixd_z(prev.root_orientation, -yaw)
    d_j = nxt.joint_rotations - prev.joint_rotations
    return PoseDelta(d_t, d_r, d_j)


def integrate_delta(prev: Pose, delta: PoseDelta) -> Pose:
    """Exact inverse of pose_delta: re-apply prev's yaw and add."""
    yaw = yaw_of(prev.root_orientation)
    t = prev.translation + rotate_z(delta.d_translation, yaw)
    r = prev.root_orientation + rotate_sixd_z(delta.d_root, yaw)
    j = prev.joint_rotations + delta.d_joints
    return Pose(t, r, j)


def forward_kinematics(pose: Pose, skeleton: Skeleton):
    """World joint positions (..., n_joints, 3).

    position(root) = translation; position(j) = position(parent) +
    R_world(parent) @ offset(j); world rotations compose down the tree.
    """
    if ag.value(pose.joint_rotations).shape[-2] != skeleton.n_rotated:
        raise DimensionMismatchError(
            f"pose has {ag.value(pose.joint_rotations).shape[-2]} joint rotations, "
            f"skeleton expects {skeleton.n_rotated}")
    rots = {0: sixd_to_matrix(pose.root_orientation)}
    pos = {0: pose.translation}
    has_child = [False] * skeleton.n_joints
    for j in range(1, skeleton.n_joints):
        has_child[skeleton.parents[j]] = True
    for j in range(1, skeleton.n_joints):
        parent = skeleton.parents[j]
        off = skeleton.offsets[j]
        step = ag.matmul(rots[parent], off.reshape(3, 1))[..., 0]
        pos[j] = pos[parent] + step
        if has_child[j]:
            local = sixd_to_matrix(pose.joint_rotations[..., j - 1, :])
            rots[j] = ag.matmul(rots[parent], local)
    return ag.stack([pos[j] for j in range(skeleton.n_joints)], axis=-2)


def joint_position(pose: Pose, skeleton: Skeleton, joint: int):
    """World position of one joint, walking only its ancestor chain."""
    chain = skeleton.ancestors(joint)
    rot = sixd_to_matrix(pose.root_orientation)
    pos = pose.translation
    for depth, j in enumerate(chain[1:], start=1):
        parent_rot = rot
        pos = pos + ag.matmul(parent_rot, skeleton.offsets[j].reshape(3, 1))[..., 0]
        if depth < len(chain) - 1:
            rot = ag.matmul(parent_rot, sixd_to_matrix(pose.joint_rotations[..., j - 1, :]))
    return pos


def heading_of(pose: Pose, skeleton: Skeleton):
    """Unit xy direction of the body's forward axis; (0, 0) when degenerate."""
    rot = sixd_to_matrix(pose.root_orientation)
    fwd = ag.matmul(rot, skeleton.forward_axis.reshape(3, 1))[..., 0]
    return safe_unit(fwd[..., 0:2])[0]


def rotate_pose_z(pose: Pose, angle) -> Pose:
    """Rigidly rotate a pose about the world z axis (translation + root)."""
    return Pose(
        rotate_z(pose.translation, angle),
        rotate_sixd_z(pose.root_orientation, angle),
        pose.joint_rotations,
    )


def translate_pose(pose: Pose, offset) -> Pose:
    return replace(pose, translation=pose.translation + np.asarray(offset, dtype=np.float64))
