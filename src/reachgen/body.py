"""Kinematic skeleton, pose vectors, yaw-canonical pose deltas, forward
kinematics.

A pose is a (..., pose_dim) float vector: root translation (3), then one 6D
rotation per joint with the root's first. Joint j (the root is j = 0) sits
at pose[..., 3+6j : 9+6j], so pose[..., 3:] reshaped to (..., n_joints, 6)
lists the rotations in joint order; joint_sixd is that view, the one reader
of the slots outside this module. A delta is a vector in the same layout:
nxt - prev turned by minus the previous frame's global yaw, one z rotation
on the raw 6D encodings, which keeps integration exactly linear and
invertible.

forward_kinematics, joint_position, pose_delta and integrate_delta each
record one fused tape node, built from plain (out, vjp) helpers that the
condition and the rollout frame run too; the other functions take plain
arrays.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ag
from .errors import DimensionMismatchError
from .geometry import _decode, _rotated, identity_sixd, safe_unit, sixd_to_matrix, yaw_of


@dataclass(frozen=True)
class DepthLevel:
    """Joints at one tree depth with their parents and rest offsets.

    Round r of `rounds` is (positions in the level, their parents) of every
    parent's r-th child in joint order, so a round's parents are unique and
    adding round after round adds each parent's children in joint order, as
    np.add.at(a, parents, b) adds them.
    """

    joints: np.ndarray     # (K,) joint indices, ascending
    parents: np.ndarray    # (K,)
    offsets: np.ndarray    # (K, 3, 1)
    rounds: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Skeleton:
    """Joint tree with rest offsets. Joint 0 is the pelvis root.

    Parents must be topologically ordered (parents[i] < i); offsets are in
    meters in the parent frame; forward_axis is a unit vector in the root
    frame. Both arrays are kept as read-only copies, so the cached hash,
    chains and depth levels stay true to them.
    """

    names: tuple[str, ...]
    parents: tuple[int, ...]
    offsets: np.ndarray        # (n_joints, 3)
    forward_axis: np.ndarray   # (3,)

    def __post_init__(self):
        for name in ("offsets", "forward_axis"):
            frozen = np.array(getattr(self, name), dtype=np.float64)
            frozen.flags.writeable = False
            object.__setattr__(self, name, frozen)
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

    @cached_property
    def depth_levels(self) -> tuple[DepthLevel, ...]:
        """Non-root joints grouped by tree depth, shallowest first; forward
        kinematics does one batched step per level."""
        depth = [0] * self.n_joints
        for j in range(1, self.n_joints):
            depth[j] = depth[self.parents[j]] + 1
        levels = []
        for d in range(1, max(depth) + 1):
            joints = np.array([j for j in range(self.n_joints) if depth[j] == d])
            parents = np.array(self.parents)[joints]
            rank = [list(parents[:k]).count(p) for k, p in enumerate(parents)]
            rounds = []
            for r in range(max(rank) + 1):
                at = np.array([k for k in range(len(joints)) if rank[k] == r])
                rounds.append((at, parents[at]))
            levels.append(DepthLevel(joints, parents, self.offsets[joints][:, :, None],
                                     tuple(rounds)))
        return tuple(levels)

    @cached_property
    def chains(self) -> tuple[tuple[tuple[int, np.ndarray], ...], ...]:
        """Per joint, its (joint, rest offset (3, 1)) steps from the root's
        child down to it, empty for the root; a one-joint read walks these."""
        chains = [()]
        for j in range(1, self.n_joints):
            chains.append(chains[self.parents[j]]
                          + ((j, self.offsets[j].reshape(3, 1)),))
        return tuple(chains)

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

    @cached_property
    def hash(self) -> str:
        """sha256 of to_text(), computed once per skeleton."""
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


def pose_dim(n_rotated: int) -> int:
    return 3 + 6 + 6 * n_rotated


def joint_sixd(pose, skeleton: Skeleton):
    """The (..., n_joints, 6) view of a plain pose's joint rotations, the
    root's first; writes through it land in the pose."""
    return pose[..., 3:].reshape(pose.shape[:-1] + (skeleton.n_joints, 6))


def rest_pose(skeleton: Skeleton, translation=(0.0, 0.0, 0.90)) -> np.ndarray:
    """Identity rotation on every joint, root at `translation`."""
    return np.concatenate([np.asarray(translation, dtype=np.float64),
                           np.tile(identity_sixd(), skeleton.n_joints)])


def pose_delta(prev, nxt):
    """Difference nxt - prev with prev's global yaw removed, as a
    (..., pose_dim) vector in the pose layout: the mirror of integrate_delta.

    Translation and root-orientation deltas are turned by -yaw(prev) about
    world z; joint rotations are parent-local, so their raw 6D difference is
    already heading-agnostic and is copied. One fused op over (prev, nxt) in
    the op order of rotate_pose_z(nxt - prev, -yaw_of(prev[..., 3:9])).
    """
    pd, nd = ag.value(prev), ag.value(nxt)
    if pd.shape[-1] != nd.shape[-1]:
        raise DimensionMismatchError("poses have different joint counts")
    diff = nd - pd
    out, turn_vjp = _turned_pose(diff, -yaw_of(pd[..., 3:9]))

    def vjp(g):
        g_diff, g_angle = turn_vjp(g)
        g_prev = -ag.unbroadcast(g_diff, pd.shape)
        _add_yaw_grad(g_prev, -g_angle, pd)
        return g_prev, ag.unbroadcast(g_diff, nd.shape)

    return ag.record(out, (prev, nxt), vjp)


def integrate_delta(prev, delta):
    """Exact inverse of pose_delta: re-apply prev's yaw and add the delta
    vector, one fused op over (prev, delta) in the op order of
    prev + rotate_pose_z(delta, yaw_of(prev[..., 3:9])). Its VJP builds no
    gradient for a prev that needs none."""
    out, vjp = _integrated(ag.value(prev), ag.value(delta),
                           isinstance(prev, ag.Tensor) and prev.requires_grad)
    return ag.record(out, (prev, delta), vjp)


def _integrated(pd, dd, wants_prev: bool):
    """(out, vjp) of integrate_delta on plain arrays; vjp(g) returns the
    gradients of (prev, delta), None for prev unless `wants_prev`."""
    turned, turn_vjp = _turned_pose(dd, np.arctan2(pd[..., 4], pd[..., 3]))
    out = pd + turned

    def vjp(g):
        g_delta, g_yaw = turn_vjp(ag.unbroadcast(g, turned.shape))
        if not wants_prev:
            return None, g_delta
        g_prev = ag.unbroadcast(g, pd.shape).copy()
        _add_yaw_grad(g_prev, g_yaw, pd)
        return g_prev, g_delta

    return out, vjp


def _add_yaw_grad(gp, g_yaw, pd):
    """Add to the pose gradient `gp` the gradient g_yaw of the root yaw
    atan2(pd[..., 4], pd[..., 3]) of plain poses `pd`."""
    x = pd[..., 3]
    y = pd[..., 4]
    scale = g_yaw / (x * x + y * y)   # d(yaw) = (x dy - y dx) / r^2
    gp[..., 3] -= scale * y
    gp[..., 4] += scale * x


def _rotations(pd, skeleton: Skeleton):
    """(local, vjp) on a plain pose: every joint's local rotation (...,
    n_joints, 3, 3), the root's first, decoded in one call.
    vjp(g_translation, g_local) returns the whole pose's gradient from the
    gradients of its translation pd[..., 0:3] and of `local`."""
    if pd.shape[-1] != pose_dim(skeleton.n_rotated):
        raise DimensionMismatchError(
            f"pose vector has dim {pd.shape[-1]}, "
            f"skeleton expects {pose_dim(skeleton.n_rotated)}")
    lead = pd.shape[:-1]
    local, decode_vjp = _decode(joint_sixd(pd, skeleton))

    def vjp(g_translation, g_local):
        gp = np.empty(pd.shape)
        gp[..., :3] = g_translation
        gp[..., 3:] = decode_vjp(g_local).reshape(lead + (-1,))
        return gp

    return local, vjp


def _positions(pd, ld, skeleton: Skeleton):
    """(positions, vjp) on plain arrays: world positions (..., n_joints, 3)
    from the translation pd[..., 0:3] and the local rotations `ld`; vjp(g)
    returns the gradients of the translation and of the local rotations.

    position(root) = translation; position(j) = position(parent) +
    R_world(parent) @ offset(j); R_world(j) = R_world(parent) @ local(j).
    Each depth level is one stacked matmul per product; arrays are kept
    joint-first so a level's gather is one `take`.
    """
    td = pd[..., 0:3]
    lead = np.broadcast_shapes(td.shape[:-1], ld.shape[:-3])
    lt = np.moveaxis(ld, -3, 0)
    pos = np.empty((skeleton.n_joints,) + lead + (3,))
    world = np.empty((skeleton.n_joints,) + lead + (3, 3))
    pos[0] = td
    world[0] = lt[0]
    offsets = [lvl.offsets.reshape(lvl.offsets.shape[:1] + (1,) * len(lead) + (3, 1))
               for lvl in skeleton.depth_levels]
    for lvl, off in zip(skeleton.depth_levels, offsets):
        pw = world.take(lvl.parents, axis=0)
        pos[lvl.joints] = pos.take(lvl.parents, axis=0) + (pw @ off)[..., 0]
        world[lvl.joints] = pw @ lt.take(lvl.joints, axis=0)

    def vjp(g):
        gpos = np.moveaxis(g, -2, 0).copy()    # gradient of each joint's subtree
        gworld = np.zeros(world.shape)
        glocal = np.zeros(world.shape)
        for lvl, off in zip(reversed(skeleton.depth_levels), reversed(offsets)):
            gw = gworld.take(lvl.joints, axis=0)
            gp = gpos.take(lvl.joints, axis=0)
            glocal[lvl.joints] = world.take(lvl.parents, axis=0).mT @ gw
            g_up = gw @ lt.take(lvl.joints, axis=0).mT + gp[..., None] * off.mT
            for at, parents in lvl.rounds:
                gworld[parents] += g_up[at]
                gpos[parents] += gp[at]
        glocal[0] = gworld[0]
        return gpos[0], ag.unbroadcast(np.moveaxis(glocal, 0, -3), ld.shape)

    return np.ascontiguousarray(np.moveaxis(pos, 0, -2)), vjp


def _chain_walk(pd, ld, skeleton: Skeleton, joint: int):
    """(position, vjp) on plain arrays: the world position (..., 3) of one
    joint from the translation pd[..., 0:3] and the local rotations `ld`,
    walking only the root-to-`joint` chain; vjp(g) returns the gradients of
    the translation and of the local rotations.

    Each step is FK's for that joint, in the same op order, so the result
    has the bits of forward_kinematics(...)[..., joint, :]; the VJP also
    runs along the chain only.
    """
    chain = skeleton.chains[joint]
    world = [ld[..., 0, :, :]]     # the world rotation of each step's parent
    for j, _ in chain[:-1]:
        world.append(world[-1] @ ld[..., j, :, :])
    pos = pd[..., 0:3].copy()     # the root's own read must not alias the pose
    for (j, off), w in zip(chain, world):
        pos = pos + (w @ off)[..., 0]

    def vjp(g):
        glocal = np.zeros(pos.shape[:-1] + ld.shape[-3:])
        gw = np.zeros(pos.shape + (3,))
        for (j, off), w in zip(reversed(chain), reversed(world)):
            glocal[..., j, :, :] = w.mT @ gw
            gw = gw @ ld[..., j, :, :].mT + g[..., None] * off.mT
        glocal[..., 0, :, :] = gw
        return g, ag.unbroadcast(glocal, ld.shape)

    return pos, vjp


def _joint_read(pd, skeleton: Skeleton, joint: int):
    """(local rotations, position, vjp) of joint_position on a plain pose;
    vjp(g, g_root) returns the pose's gradient from the gradient g of the
    position and g_root of the root rotation local[..., 0, :, :] (None: no
    gradient)."""
    local, rotations_vjp = _rotations(pd, skeleton)
    position, chain_vjp = _chain_walk(pd, local, skeleton, joint)

    def vjp(g, g_root):
        g_translation, g_local = chain_vjp(g)
        if g_root is not None:
            g_local[..., 0, :, :] += g_root
        return rotations_vjp(g_translation, g_local)

    return local, position, vjp


def forward_kinematics(pose, skeleton: Skeleton):
    """World joint positions (..., n_joints, 3), one fused op over the pose.
    Every row is computed independently, so a caller may cut a large batch
    into chunks, as build_training_windows does, without changing a bit."""
    pd = ag.value(pose)
    local, rotations_vjp = _rotations(pd, skeleton)
    pos, positions_vjp = _positions(pd, local, skeleton)
    return ag.record(pos, (pose,), lambda g: (rotations_vjp(*positions_vjp(g)),))


def joint_position(pose, skeleton: Skeleton, joint: int):
    """World position (..., 3) of one joint, one fused op over the pose:
    every rotation is decoded, as for forward_kinematics, so a degenerate
    one raises here too, but only the root-to-joint chain is walked."""
    _, position, vjp = _joint_read(ag.value(pose), skeleton, joint)
    return ag.record(position, (pose,), lambda g: (vjp(g, None),))


def heading_of(pose, skeleton: Skeleton):
    """Unit xy direction of the body's forward axis of plain poses; (0, 0)
    when degenerate."""
    fwd = (sixd_to_matrix(pose[..., 3:9]) @ skeleton.forward_axis.reshape(3, 1))[..., 0]
    return safe_unit(fwd[..., 0:2])


def rotate_pose_z(pose, angle):
    """Rigidly rotate plain poses (..., pose_dim) about the world z axis: the
    translation and both root 6D halves are three xy-rotated 3-vectors; the
    parent-local joint slots are copied."""
    return _turned_pose(np.asarray(pose, dtype=np.float64),
                        np.asarray(angle, dtype=np.float64))[0]


def _turned_pose(pd, ad):
    """(out, vjp) of rotate_pose_z on plain arrays; vjp(g) returns the
    gradients of (pose, angle)."""
    head = pd[..., :9].reshape(pd.shape[:-1] + (3, 3))
    turned, vjp = _rotated(head, np.cos(ad)[..., None], np.sin(ad)[..., None], ad.shape)
    out = np.empty(turned.shape[:-2] + pd.shape[-1:])
    out[..., :9] = turned.reshape(turned.shape[:-2] + (9,))
    out[..., 9:] = pd[..., 9:]

    def pose_vjp(g):
        gh, ga = vjp(g[..., :9].reshape(turned.shape))
        gp = np.empty(pd.shape)
        gp[..., :9] = gh.reshape(pd.shape[:-1] + (9,))
        gp[..., 9:] = ag.unbroadcast(g[..., 9:], gp[..., 9:].shape)
        return gp, ga

    return out, pose_vjp
