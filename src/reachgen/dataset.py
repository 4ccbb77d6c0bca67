"""Synthetic motion corpus, preprocessing, window sampling, motion file IO.

Locomotion clips are kinematic walks with the stance foot locked exactly on
its plant (root height solves the leg-length constraint), so the corpus
itself scores near-zero foot skating. Reaching clips solve a closed-form
two-link arm IK so the wrist lands exactly on the sampled target at the
labeled frame. Everything is a pure function of (config, seed), and every
clip runs at FPS frames per second.

A pose is a (pose_dim,) vector in the body layout: translation 3, then joint
j's 6D rotation at pose[3+6j : 9+6j], the root's (j = 0) first. The
generators build rotation matrices as frame stacks: a walk plans its
footsteps, root height and both legs in whole-clip array ops and writes one
(n_frames, n_joints, 3, 3) buffer, a reach collects each moving joint's
slerped track. Each joint track then becomes 6D in one matrix_to_sixd
call, which also checks that every written rotation is orthonormal and
right-handed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .body import Skeleton, forward_kinematics, heading_of, joint_position, pose_dim
from .container import read_container, write_container
from .errors import (CorpusTooSmallError, CorruptFileError, DimensionMismatchError,
                     InfeasibleTargetError, ModelMismatchError, SkipWindow, check_count)
from .geometry import (_cross, _dot_rows, axis_angle_matrix, matrix_to_sixd,
                       rotation_z_matrix, sixd_to_matrix)
from .intention import GoalSpec, hindsight_goal

MOTION_MAGIC = b"RGMO"
MOTION_VERSION = 3
FPS = 30.0                 # frames per second of every clip, stored or generated
MIN_SPLIT_SEQUENCES = 10   # 80/10/10 needs one validation and one test clip
FLOAT_HEIGHT = 0.20        # m: a clip whose lowest foot rises above this floats
REACH_RESAMPLES = 25       # reach targets drawn before a clip gives up
SWING_LIFT = 0.06          # m: half the outward bulge of a swinging foot
DOWN = np.array([0.0, 0.0, -1.0])   # rest direction of a leg link
# the (low, high) ranges the generators draw a clip's settings from
WALK_DURATION_RANGE = (4.0, 8.0)     # s: a walking clip
REACH_DURATION_RANGE = (1.5, 3.0)    # s: a reach, alone or after a walk
SPEED_RANGE = (0.45, 0.75)           # m/s
TURN_RATE_RANGE = (-0.5, 0.5)        # rad/s
STEP_TIME_RANGE = (0.40, 0.55)       # s per step
REACH_HEIGHT_RANGE = (0.5, 1.7)      # m: a reach target's height


@dataclass
class MotionSequence:
    """Ordered poses at FPS plus metadata."""

    poses: np.ndarray          # (n_frames, pose_dim)
    skeleton: Skeleton
    label: GoalSpec | None = None
    provenance: str = "locomotion"
    ident: str = ""

    def __post_init__(self):
        if self.poses.ndim != 2 or self.poses.shape[0] < 2:
            raise ValueError("a motion sequence needs at least 2 frames")
        if self.poses.shape[1] != pose_dim(self.skeleton.n_rotated):
            raise DimensionMismatchError("pose rows do not match the skeleton")
        if self.label is not None and not (0 <= self.label.target_frame < self.n_frames):
            raise ValueError("label target_frame outside sequence")

    @property
    def n_frames(self) -> int:
        return self.poses.shape[0]


@dataclass(frozen=True)
class SyntheticGenConfig:
    n_locomotion: int
    n_reaching: int
    n_walk_reach: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_locomotion", "n_reaching", "n_walk_reach"):
            check_count(name, getattr(self, name), 0)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _identity_stack(*shape):
    """(*shape, 3, 3) identity matrices: the rest rotation of every joint."""
    return np.tile(np.eye(3), shape + (1, 1))


def _align_rows(src, dst):
    """(..., 3, 3) rotations taking unit src rows onto unit dst rows (the
    two broadcast). Rows whose cross product vanishes, parallel or
    anti-parallel, are built one at a time."""
    shape = np.broadcast_shapes(np.shape(src), np.shape(dst))
    src = np.broadcast_to(src, shape).reshape(-1, 3)
    dst = np.broadcast_to(dst, shape).reshape(-1, 3)
    c = _dot_rows(src, dst)
    axis = _cross(src, dst)
    s = np.sqrt(_dot_rows(axis, axis))
    flat = s < 1e-12
    out = np.empty((len(src), 3, 3))
    turn = ~flat
    out[turn] = axis_angle_matrix(axis[turn] / s[turn, None],
                                  np.arctan2(s[turn], c[turn]))
    for i in np.flatnonzero(flat):
        if c[i] > 0:
            out[i] = np.eye(3)
            continue
        # pick any axis orthogonal to src
        helper = np.array([1.0, 0.0, 0.0])
        if abs(src[i, 0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        ortho = _cross(src[i], helper)
        out[i] = axis_angle_matrix(ortho / np.sqrt(ortho.dot(ortho)), np.pi)
    return out.reshape(shape + (3,))


def _matrix_log_axis_angle(m):
    """Inverse Rodrigues; angle in [0, pi)."""
    c = np.clip((np.trace(m) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(c)
    if angle < 1e-10:
        return np.array([1.0, 0.0, 0.0]), 0.0
    axis = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    n = np.linalg.norm(axis)
    if n < 1e-10:
        # angle near pi: extract axis from the symmetric part
        w, vecs = np.linalg.eigh(m)
        axis = vecs[:, np.argmax(w)]
        return axis / np.linalg.norm(axis), angle
    return axis / n, angle


def _slerp_track(m0, m1, s):
    """(len(s), 3, 3) rotations from m0 toward m1 at fractions s; the
    matrix log of m0.T @ m1 is taken once for the whole track."""
    axis, angle = _matrix_log_axis_angle(m0.T @ m1)
    return m0 @ axis_angle_matrix(axis, s * angle)


class _WalkRig:
    """Shared geometry for the procedural gait, over stacks of frames.

    A side is 0 (left) or 1 (right); the leg helpers take rows shaped
    (..., 3) and aim each hip so its leg, at rest along DOWN, points where
    the row asks.
    """

    # the shoulders' fixed droop below T-pose, about y
    droop = {"right_shoulder": axis_angle_matrix([0, 1, 0], 1.1),
             "left_shoulder": axis_angle_matrix([0, 1, 0], -1.1)}

    def __init__(self, skeleton: Skeleton):
        self.hip_idx = (skeleton.joint_index("left_hip"),
                        skeleton.joint_index("right_hip"))
        self.hip_off = skeleton.offsets[list(self.hip_idx)]   # (2, 3)
        self.arm_idx = {name: skeleton.joint_index(name) for name in self.droop}
        self.leg_len = float(np.linalg.norm(
            skeleton.offsets[skeleton.joint_index("left_foot")]))

    def hip_xy(self, root_xy, yaw_mats, side):
        """(..., 2) xy of one side's hip for roots at root_xy."""
        return root_xy + yaw_mats[..., :2, :2] @ self.hip_off[side, :2]

    def hip_pos(self, root, yaw_mats, side):
        """(..., 3) position of one side's hip for roots at root."""
        return root + yaw_mats @ self.hip_off[side]

    def stance_height(self, hip_xy, plant, side):
        """(...) root z that makes a leg exactly leg-length from its hip at
        hip_xy to its plant; side (int or (...) ints) picks the hip's z."""
        L = self.leg_len
        gap = plant[..., :2] - hip_xy
        d = np.minimum(np.sqrt(_dot_rows(gap, gap)), L - 1e-3)
        return plant[..., 2] + np.sqrt(L * L - d * d) - self.hip_off[side, 2]

    def to_point(self, hip, point):
        """(leg_dir, aimed): unit directions from hips to world points, and
        the rows whose point is off the hip; a row whose point sits on the
        hip is not aimed.

        Exact when the point is one leg-length away; otherwise the foot sits
        on the ray at leg-length (error = distance mismatch).
        """
        vec = point - hip
        n = np.sqrt(_dot_rows(vec, vec))
        aimed = ~(n < 1e-9)
        return vec / np.where(aimed, n, 1.0)[..., None], aimed

    def swing(self, hip, yaw_mats, swing_xy, clearance):
        """(..., 3) unit leg directions placing each foot on the reachable
        sphere at an xy.

        The radius is clamped up so the foot keeps `clearance` above the
        floor (z >= 0 requires r >= horizontal stance reach). A foot right
        below its hip steps forward by that radius.
        """
        L = self.leg_len
        dx = swing_xy - hip[..., :2]
        r = np.sqrt(_dot_rows(dx, dx))
        zc = np.maximum(hip[..., 2] - clearance, 0.0)
        lo = np.minimum(np.sqrt(np.maximum(L * L - zc * zc, 0.0)), L * 0.999)
        hi = L * 0.999
        below = r < 1e-9
        short = ~below & (r < lo)
        long = ~below & ~short & (r > hi)
        for i in zip(*np.nonzero(below)):
            dx[i] = yaw_mats[i][:2, :2] @ np.array([0.0, lo[i]])
        dx[short] = dx[short] * (lo[short] / r[short])[:, None]
        dx[long] = dx[long] * (hi / r[long])[:, None]
        r = np.where(below | short, lo, np.where(long, hi, r))
        dz = -np.sqrt(L * L - r * r)
        return np.concatenate([dx, dz[..., None]], axis=-1) / L

    def hip_rotation(self, yaw_mats, leg_dir):
        """(..., 3, 3) hip rotations, in the root frame, turning the rest
        leg onto unit leg directions."""
        return yaw_mats.mT @ _align_rows(DOWN, leg_dir)

    def arm_locals(self, rot, phase, amp):
        """Arms lowered from T-pose, counter-swinging with the gait phase:
        written into (..., n_joints, 3, 3) rotations for phases and
        amplitudes shaped (...)."""
        sw = amp * np.sin(phase)
        right, left = self.arm_idx["right_shoulder"], self.arm_idx["left_shoulder"]
        rot[..., right, :, :] = rotation_z_matrix(sw) @ self.droop["right_shoulder"]
        rot[..., left, :, :] = rotation_z_matrix(-sw) @ self.droop["left_shoulder"]


class _ArmGestures:
    """Slowly varying random arm poses layered over a gait.

    Keyframed shoulder/elbow rotations (slerped) move the wrists through a
    wide height/offset range, so hindsight goals from locomotion cover far
    more than the walking swing plane, and raised-arm states come with
    recovery examples.
    """

    def __init__(self, skeleton: Skeleton, rng: np.random.Generator, n: int):
        self.joints = {name: skeleton.joint_index(name) for name in (
            "right_shoulder", "right_elbow", "left_shoulder", "left_elbow", "spine")}
        self.keys_at = np.arange(0, n + 1, max(int(rng.uniform(0.8, 1.6) * FPS), 8))
        if self.keys_at[-1] < n:
            self.keys_at = np.append(self.keys_at, n)
        self.keyframes = [self._random_pose(rng) for _ in self.keys_at]

    def _random_pose(self, rng):
        out = {}
        for side, sign in (("right", 1.0), ("left", -1.0)):
            droop = rng.uniform(-0.5, 1.4)   # negative raises above horizontal
            swing = rng.uniform(-0.9, 0.9)
            tilt = rng.uniform(-0.9, 0.9)
            out[f"{side}_shoulder"] = (
                rotation_z_matrix(swing)
                @ axis_angle_matrix([1, 0, 0], tilt)
                @ axis_angle_matrix([0, 1, 0], sign * droop))
            out[f"{side}_elbow"] = rotation_z_matrix(sign * rng.uniform(0.0, 1.5))
        # occasional forward lean brings low wrist goals into the data
        out["spine"] = axis_angle_matrix([1, 0, 0], rng.uniform(-0.8, 0.15))
        return out

    def apply(self, mats: np.ndarray) -> None:
        """Write the gestured joints' slerped keyframes into a clip's
        (n_frames, n_joints, 3, 3) rotations, one keyframe pair at a time."""
        for k in range(len(self.keys_at) - 1):
            start, stop = self.keys_at[k], self.keys_at[k + 1]
            s = _smoothstep(np.arange(stop - start) / (stop - start))
            for name, j in self.joints.items():
                mats[start:stop, j] = _slerp_track(self.keyframes[k][name],
                                                   self.keyframes[k + 1][name], s)


def _edge_ramp(n: int) -> np.ndarray:
    """Smooth 0 -> 1 -> 0 profile over 1 s at each end, or a third of a
    shorter clip: clips start and end at a standstill."""
    t = np.arange(n) / FPS
    ramp_t = min(1.0, (n / FPS) / 3.0)
    return _smoothstep(t / ramp_t) * _smoothstep((t[-1] - t) / ramp_t)


def _generate_gait(skeleton: Skeleton, yaw: np.ndarray, speed: np.ndarray,
                   start_xy=(0.0, 0.0), step_time: float = 0.5,
                   gestures: "_ArmGestures | None" = None) -> np.ndarray:
    """Stance-locked gait following per-frame yaw and speed series, built
    as whole-clip frame stacks."""
    rig = _WalkRig(skeleton)
    n = len(yaw)
    frames_per_step = max(int(round(step_time * FPS)), 6)

    heading = np.stack([-np.sin(yaw), np.cos(yaw)], axis=-1)
    travel = heading[:-1] * (speed[:-1] / FPS)[:, None]
    root_xy = np.cumsum(np.concatenate([np.reshape(start_xy, (1, 2)), travel]), axis=0)
    yaw_mats = rotation_z_matrix(yaw)
    hip_xy = np.stack([rig.hip_xy(root_xy, yaw_mats, side) for side in (0, 1)])

    # footstep plan: each foot plants at the midpoint of its own hip path
    # between landing and liftoff, so the leg-length height constraint takes
    # the same value at both handovers and the root height is continuous.
    # Step k (frames k*F to k*F + F - 1) stands on plant k, left on even k,
    # and swings from plant k - 1 to plant k + 1; the right foot's pre-roll
    # plant -1 is extrapolated back from its path over the first step.
    land = np.arange(-1, (n - 1) // frames_per_step + 2) * frames_per_step
    foot = (land // frames_per_step) % 2
    a = hip_xy[foot, np.clip(land, 0, n - 1)]
    b = hip_xy[foot, np.clip(land + frames_per_step, 0, n - 1)]
    a[0] = 2.0 * hip_xy[1, 0] - hip_xy[1, min(frames_per_step, n - 1)]
    plants = np.zeros((len(land), 3))
    plants[:, :2] = 0.5 * (a + b)

    # pass 1: gait state per frame, then the root height.
    # Turning makes the two legs' exact height constraints disagree by ~cm at
    # handover, so the height crossfades between them across the
    # double-support window and is exact during single support.
    frame = np.arange(n)
    step = frame // frames_per_step
    stance = step % 2
    swing = 1 - stance
    raw = (frame - step * frames_per_step) / frames_per_step
    ds_w = 0.2  # double-support fraction at each end of the step
    early = raw < ds_w
    double = early | (raw > 1.0 - ds_w)
    stance_plant = plants[step + 1]
    prev_plant, next_plant = plants[step], plants[step + 2]
    z_root = rig.stance_height(hip_xy[stance, frame], stance_plant, stance)
    # double support: the root rides the taller of the two leg constraints,
    # so neither grounded leg is ever over-length and ray-held feet stay
    # between plant and hip (never underground)
    hold = np.where(early[:, None], prev_plant, next_plant)
    z_other = rig.stance_height(hip_xy[swing, frame], hold, swing)
    z_root = np.where(double, np.maximum(z_root, z_other), z_root)
    # single support: the swing foot arcs from plant to plant
    arc_s = (raw - ds_w) / (1.0 - 2 * ds_w)
    s = _smoothstep(arc_s)
    # circumduction: an outward bulge buys clearance for a rigid leg
    bulge = np.stack([yaw_mats[:, :2, :2] @ np.array([out * SWING_LIFT * 2.0, 0.0])
                      for out in (-1.0, 1.0)])[swing, frame]
    swing_xy = (prev_plant[:, :2] + (next_plant[:, :2] - prev_plant[:, :2]) * s[:, None]
                + bulge * np.sin(np.pi * s)[:, None])
    clearance = np.maximum(0.02 * np.sin(np.pi * arc_s), 0.004)

    # pass 2: both hips over all frames into one (n, n_joints, 3, 3) buffer;
    # a leg holds its plant in stance and in double support, else it swings
    poses = np.empty((n, pose_dim(skeleton.n_rotated)))
    poses[:, 0:2] = root_xy
    poses[:, 2] = z_root
    mats = _identity_stack(n, skeleton.n_joints)
    mats[:, 0] = yaw_mats
    for side in (0, 1):
        hip = rig.hip_pos(poses[:, 0:3], yaw_mats, side)
        point = np.where((stance == side)[:, None], stance_plant, hold)
        leg_dir, aimed = rig.to_point(hip, point)
        arc = (swing == side) & ~double
        leg_dir[arc] = rig.swing(hip[arc], yaw_mats[arc], swing_xy[arc], clearance[arc])
        aimed |= arc
        mats[aimed, rig.hip_idx[side]] = rig.hip_rotation(yaw_mats[aimed], leg_dir[aimed])
    if gestures is None:
        phase = 2.0 * np.pi * np.arange(n) / (2 * frames_per_step)
        amp = 0.5 * np.minimum(speed / 0.5, 1.0)   # arms swing with walking speed
        rig.arm_locals(mats, phase, amp)
    else:   # gestures set both shoulders themselves
        gestures.apply(mats)
    for j in range(skeleton.n_joints):   # one conversion per joint track
        poses[:, 3 + 6 * j:9 + 6 * j] = matrix_to_sixd(mats[:, j])
    return poses


def _generate_walk(skeleton: Skeleton, rng: np.random.Generator,
                   duration_s: float, speed: float, turn_rate: float,
                   start_xy, step_time: float, gesture=False) -> np.ndarray:
    """Constant-turn walk from a random heading; it starts and ends standing."""
    n = max(int(round(duration_s * FPS)), 8)
    start_yaw = rng.uniform(-np.pi, np.pi)
    yaw = start_yaw + turn_rate * np.arange(n) / FPS
    gestures = _ArmGestures(skeleton, rng, n) if gesture else None
    return _generate_gait(skeleton, yaw, speed * _edge_ramp(n), start_xy,
                          step_time=step_time, gestures=gestures)


def _generate_turn_in_place(skeleton: Skeleton, rng: np.random.Generator,
                            duration_s: float, start_xy=(0.0, 0.0)) -> np.ndarray:
    """Rotate on the spot; covers goals at every bearing via hindsight."""
    n = max(int(round(duration_s * FPS)), 12)
    start_yaw = rng.uniform(-np.pi, np.pi)
    rate = rng.uniform(0.6, 1.4) * rng.choice([-1.0, 1.0])
    ramp = _edge_ramp(n)
    yaw = start_yaw + np.concatenate([[0.0], np.cumsum(rate * ramp[:-1] / FPS)])
    speed = np.full(n, 0.04) * ramp   # slight drift keeps the step plan alive
    gestures = _ArmGestures(skeleton, rng, n)
    return _generate_gait(skeleton, yaw, speed, start_xy,
                          step_time=rng.uniform(0.40, 0.55), gestures=gestures)


def standing_pose(skeleton: Skeleton, xy=(0.0, 0.0), yaw: float = 0.0) -> np.ndarray:
    """Corpus-style standing pose vector: a symmetric stance at a point,
    both feet grounded exactly, arms lowered."""
    rig = _WalkRig(skeleton)
    yaw_mat = rotation_z_matrix(yaw)
    xy = np.asarray(xy, dtype=np.float64)
    plants = np.zeros((2, 3))
    for side in (0, 1):
        plants[side, :2] = rig.hip_xy(xy, yaw_mat, side)
    pose = np.empty(pose_dim(skeleton.n_rotated))
    pose[0:2] = xy
    pose[2] = rig.stance_height(plants[0, :2], plants[0], 0)
    rot = _identity_stack(skeleton.n_joints)
    rot[0] = yaw_mat
    for side in (0, 1):
        leg_dir, aimed = rig.to_point(rig.hip_pos(pose[0:3], yaw_mat, side), plants[side])
        if aimed:
            rot[rig.hip_idx[side]] = rig.hip_rotation(yaw_mat, leg_dir)
    rig.arm_locals(rot, 0.0, 0.0)
    pose[3:] = matrix_to_sixd(rot).reshape(-1)
    return pose


def _solve_reach(skeleton: Skeleton, stand_vec: np.ndarray, target: np.ndarray):
    """Spine/shoulder/elbow rotations placing the right wrist on `target`.

    Returns {joint_name: 6d} or None when the target is outside the
    pitched-spine reach envelope.
    """
    i_spine = skeleton.joint_index("spine")
    i_sh = skeleton.joint_index("right_shoulder")
    a = float(np.linalg.norm(skeleton.offsets[skeleton.joint_index("right_elbow")]))
    b = float(np.linalg.norm(skeleton.offsets[skeleton.joint_index("right_wrist")]))

    for pitch in np.linspace(0.0, 1.1, 8):
        probe = stand_vec.copy()
        spine_local = axis_angle_matrix([1.0, 0.0, 0.0], -pitch)  # lean toward +y
        spine = probe[3 + 6 * i_spine:9 + 6 * i_spine]
        spine[:] = matrix_to_sixd(spine_local)
        shoulder_pos = np.asarray(joint_position(probe, skeleton, i_sh))
        v = target - shoulder_pos
        r = float(np.linalg.norm(v))
        if not (abs(a - b) + 0.02 <= r <= a + b - 0.005):
            continue
        # elbow bend in-plane, then one shoulder alignment
        cos_al = np.clip((r * r - a * a - b * b) / (2 * a * b), -1.0, 1.0)
        alpha = float(np.arccos(cos_al))
        elbow_local = rotation_z_matrix(alpha)
        wrist_in_shoulder = np.array([a + b * np.cos(alpha), b * np.sin(alpha), 0.0])
        w_sh_parent = sixd_to_matrix(probe[3:9]) @ sixd_to_matrix(spine)
        # shoulder world rotation must map wrist_in_shoulder onto v
        world = _align_rows(wrist_in_shoulder / r, v / r)
        shoulder_local = w_sh_parent.T @ world
        return {
            "spine": matrix_to_sixd(spine_local),
            "right_shoulder": matrix_to_sixd(shoulder_local),
            "right_elbow": matrix_to_sixd(elbow_local),
        }
    return None


def _generate_reach(skeleton: Skeleton, rng: np.random.Generator,
                    duration_s: float, stand_xy=(0.0, 0.0), yaw=None, start_vec=None):
    """Stand-and-reach clip; returns (poses, GoalSpec)."""
    if yaw is None:
        yaw = rng.uniform(-np.pi, np.pi)
    stand = standing_pose(skeleton, stand_xy, yaw) if start_vec is None else start_vec
    n = max(int(round(duration_s * FPS)), 10)
    hold = max(int(round(0.2 * FPS)), 2)
    t_reach = n - 1 - hold

    solution = None
    target = None
    for _ in range(REACH_RESAMPLES):
        # target sampled in a forward shell relative to the body heading
        rz2 = rotation_z_matrix(yaw)[:2, :2]
        lateral = rng.uniform(-0.35, 0.45)     # biased toward the right arm
        forward = rng.uniform(0.15, 0.45)
        height = rng.uniform(*REACH_HEIGHT_RANGE)
        xy = np.asarray(stand_xy) + rz2 @ np.array([lateral, forward])
        target = np.array([xy[0], xy[1], height])
        solution = _solve_reach(skeleton, stand, target)
        if solution is not None:
            break
    if solution is None:
        raise InfeasibleTargetError(
            f"no reachable target found in {REACH_RESAMPLES} samples")

    # the moving joints slerp from the stance to the solution, then hold it
    s = _smoothstep(np.minimum(np.arange(n) / t_reach, 1.0))
    moving = s < 1.0
    poses = np.tile(stand, (n, 1))
    for name, six in solution.items():
        j = skeleton.joint_index(name)
        slot = slice(3 + 6 * j, 9 + 6 * j)
        track = _slerp_track(sixd_to_matrix(stand[slot]), sixd_to_matrix(six), s[moving])
        poses[moving, slot] = matrix_to_sixd(track)
        poses[~moving, slot] = six

    return poses, GoalSpec(position=target, target_frame=t_reach)


def _generate_walk_reach(skeleton: Skeleton, rng: np.random.Generator):
    """Turn toward a bearing, walk, stop, reach. Labeled.

    The initial turn makes the composite cover goals at every bearing, which
    closed-loop generation needs when the goal starts beside or behind the
    body.
    """
    start_yaw = rng.uniform(-np.pi, np.pi)
    turn = rng.uniform(-np.pi, np.pi)
    turn_s = max(abs(turn) / rng.uniform(0.8, 1.2), 0.3)
    walk_s = rng.uniform(2.0, 4.0)
    speed = rng.uniform(*SPEED_RANGE)

    n_turn = int(round(turn_s * FPS))
    n_walk = int(round(walk_s * FPS))
    n = n_turn + n_walk
    # yaw: smooth turn then hold; speed: still during the turn, ramped walk
    t_turn = np.arange(n_turn) / max(n_turn - 1, 1)
    yaw = np.concatenate([start_yaw + turn * _smoothstep(t_turn),
                          np.full(n_walk, start_yaw + turn)])
    speed_series = np.concatenate([np.zeros(n_turn),
                                   speed * _edge_ramp(n_walk)])
    walk = _generate_gait(skeleton, yaw, speed_series,
                          start_xy=rng.uniform(-1.0, 1.0, size=2),
                          step_time=rng.uniform(*STEP_TIME_RANGE))

    # freeze the final frame and blend the arm into a reach
    final = walk[-1].copy()
    hd = np.asarray(heading_of(final, skeleton))
    end_yaw = float(np.arctan2(-hd[0], hd[1]))
    reach_s = rng.uniform(*REACH_DURATION_RANGE)
    reach, goal = _generate_reach(
        skeleton, rng, reach_s, stand_xy=final[:2], yaw=end_yaw, start_vec=final)
    poses = np.concatenate([walk[:-1], reach], axis=0)
    goal = replace(goal, target_frame=goal.target_frame + walk.shape[0] - 1)
    return poses, goal


def generate_synthetic_corpus(cfg: SyntheticGenConfig,
                              skeleton: Skeleton) -> list[MotionSequence]:
    """Deterministic corpus: unlabeled walks + labeled reaches (+ composites)."""
    sequences: list[MotionSequence] = []
    root_ss = np.random.SeedSequence(cfg.seed)
    n_total = cfg.n_locomotion + cfg.n_reaching + cfg.n_walk_reach
    children = root_ss.spawn(n_total)
    k = 0
    for i in range(cfg.n_locomotion):
        rng = np.random.default_rng(children[k]); k += 1
        if i % 4 == 3:
            # every fourth clip rotates on the spot: hindsight goals then
            # appear at all bearings, teaching the model to turn
            poses = _generate_turn_in_place(
                skeleton, rng,
                duration_s=rng.uniform(2.5, 5.0),
                start_xy=rng.uniform(-1.0, 1.0, size=2))
        else:
            poses = _generate_walk(
                skeleton, rng,
                duration_s=rng.uniform(*WALK_DURATION_RANGE),
                speed=rng.uniform(*SPEED_RANGE),
                turn_rate=rng.uniform(*TURN_RATE_RANGE),
                start_xy=rng.uniform(-1.0, 1.0, size=2),
                step_time=rng.uniform(*STEP_TIME_RANGE),
                gesture=(i % 2 == 0))
        sequences.append(MotionSequence(poses, skeleton, None, "locomotion",
                                        f"loco_{i:04d}"))
    for i in range(cfg.n_reaching):
        rng = np.random.default_rng(children[k]); k += 1
        poses, goal = _generate_reach(
            skeleton, rng, rng.uniform(*REACH_DURATION_RANGE),
            stand_xy=rng.uniform(-1.0, 1.0, size=2))
        sequences.append(MotionSequence(poses, skeleton, goal, "reaching",
                                        f"reach_{i:04d}"))
    for i in range(cfg.n_walk_reach):
        rng = np.random.default_rng(children[k]); k += 1
        poses, goal = _generate_walk_reach(skeleton, rng)
        sequences.append(MotionSequence(poses, skeleton, goal, "reaching",
                                        f"walkreach_{i:04d}"))
    return sequences


def filter_floating(sequences, skeleton: Skeleton) -> list[MotionSequence]:
    """Drop sequences with any frame whose lowest foot exceeds FLOAT_HEIGHT.

    The boundary is strict: exactly FLOAT_HEIGHT is kept.
    """
    lf = skeleton.joint_index("left_foot")
    rf = skeleton.joint_index("right_foot")
    kept = []
    for seq in sequences:
        pos = forward_kinematics(seq.poses, skeleton)
        lowest_foot = np.minimum(pos[:, lf, 2], pos[:, rf, 2])
        if not np.any(lowest_foot > FLOAT_HEIGHT):
            kept.append(seq)
    return kept


def split_dataset(sequences, seed: int) -> DatasetSplit:
    """Deterministic shuffle then 80/10/10 by count."""
    if len(sequences) < MIN_SPLIT_SEQUENCES:
        raise CorpusTooSmallError(f"need at least {MIN_SPLIT_SEQUENCES} sequences "
                                  f"to split, got {len(sequences)}")
    ids = sorted(s.ident for s in sequences)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n = len(ids)
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    return DatasetSplit(tuple(shuffled[:n_train]),
                        tuple(shuffled[n_train:n_train + n_val]),
                        tuple(shuffled[n_train + n_val:]))


def sample_training_window(seq: MotionSequence, window_len: int,
                           rng: np.random.Generator):
    """(start, goal, goal_heading) of one fixed-length window: it holds
    seq.poses[start - 1 : start + window_len], one leading context frame
    then window_len frames, and its goal is the stored label, else a
    hindsight goal."""
    if seq.n_frames < window_len + 1:
        raise SkipWindow(
            f"sequence {seq.ident} has {seq.n_frames} frames, needs {window_len + 1}")
    start = int(rng.integers(1, seq.n_frames - window_len + 1))
    if seq.label is None:
        return (start, *hindsight_goal(seq, start, rng))
    heading = heading_of(seq.poses[seq.label.target_frame], seq.skeleton)
    return start, seq.label, np.asarray(heading)


# ------------------------------------------------------------------ file IO

def save_motion(seq: MotionSequence, path) -> None:
    """Container with the clip's metadata and its (n, dim) float64 pose rows."""
    header = {"skeleton_hash": seq.skeleton.hash,
              "label": None if seq.label is None else seq.label.to_dict(),
              "provenance": seq.provenance, "ident": seq.ident}
    write_container(path, MOTION_MAGIC, MOTION_VERSION, header, {"poses": seq.poses})


def load_motion(path, skeleton: Skeleton) -> MotionSequence:
    header, arrays = read_container(path, MOTION_MAGIC, MOTION_VERSION)
    if header.get("skeleton_hash") != skeleton.hash:
        raise ModelMismatchError(f"{path}: skeleton hash mismatch")
    try:
        label = None if header["label"] is None else GoalSpec(**header["label"])
        return MotionSequence(arrays["poses"], skeleton, label,
                              header["provenance"], header["ident"])
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptFileError(f"{path}: bad motion fields ({e!r})") from e


def save_motion_csv(seq: MotionSequence, path) -> None:
    """Lossless CSV twin (shortest-roundtrip float repr)."""
    lines = [f"# fps={FPS!r} skeleton={seq.skeleton.hash} "
             f"provenance={seq.provenance} ident={seq.ident}"]
    if seq.label is not None:
        g = seq.label
        gx, gy, gz = (repr(float(v)) for v in g.position)
        lines.append(f"# goal={gx},{gy},{gz} target_frame={g.target_frame}")
    dim = seq.poses.shape[1]
    lines.append(",".join(f"c{i}" for i in range(dim)))
    for row in seq.poses:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_manifest(sequences, split: DatasetSplit, path) -> None:
    membership = {}
    for name, ids in (("train", split.train), ("val", split.val), ("test", split.test)):
        for i in ids:
            membership[i] = name
    payload = {
        "sequences": [
            {"ident": s.ident, "provenance": s.provenance, "frames": s.n_frames,
             "labeled": s.label is not None, "split": membership.get(s.ident, "")}
            for s in sorted(sequences, key=lambda s: s.ident)
        ],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
