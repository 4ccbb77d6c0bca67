import copy
from collections import Counter

import numpy as np
import pytest

from reachgen import dataset as ds
from reachgen import worker as wk
from reachgen.body import desk_skeleton, forward_kinematics, joint_position, rest_pose
from reachgen.container import read_container, write_container
from reachgen.errors import (CorruptFileError, DegenerateRotationError, InfeasibleTargetError,
                             ModelMismatchError, SkipWindow, VersionMismatchError)
from reachgen.geometry import (axis_angle_matrix, identity_sixd, matrix_to_sixd,
                               rotation_z_matrix, sixd_to_matrix)
from reachgen.intention import HINDSIGHT_HORIZON, GoalSpec, hindsight_goal


@pytest.fixture(scope="module")
def skel():
    return desk_skeleton()


@pytest.fixture(scope="module")
def small_corpus(skel):
    cfg = ds.SyntheticGenConfig(n_locomotion=6, n_reaching=4, n_walk_reach=2, seed=11)
    return ds.generate_synthetic_corpus(cfg, skel)


def ref_axis_angle_matrix(axis, angle):
    """Scalar Rodrigues as geometry.axis_angle_matrix wrote it before it
    took arrays of angles."""
    axis = np.asarray(axis, dtype=np.float64)
    x, y, z = axis / np.linalg.norm(axis)
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array([
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ])


def ref_matrix_log(m):
    """The one-matrix inverse Rodrigues the generators used before keyframe
    pairs were slerped as stacks."""
    c = np.clip((np.trace(m) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(c)
    if angle < 1e-10:
        return np.array([1.0, 0.0, 0.0]), 0.0
    axis = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    n = np.linalg.norm(axis)
    if n < 1e-10:
        w, vecs = np.linalg.eigh(m)
        axis = vecs[:, np.argmax(w)]
        return axis / np.linalg.norm(axis), angle
    return axis / n, angle


def ref_slerp(m0, m1, s):
    """One frame of the per-frame slerp the generators used before slerp
    tracks: the matrix log of m0.T @ m1 taken again for every frame."""
    axis, angle = ref_matrix_log(m0.T @ m1)
    return m0 @ ref_axis_angle_matrix(axis, s * angle)


def ref_slerp_track(m0, m1, s):
    """The one-pair slerp track the generators used before keyframe pairs
    were slerped as stacks."""
    axis, angle = ref_matrix_log(m0.T @ m1)
    return m0 @ axis_angle_matrix(axis, s * angle)


class RefGestures:
    """dataset._ArmGestures as it was before keyframe stacks: scalar draws
    and rotations per keyframe, and one slerp track per joint per keyframe
    pair."""

    def __init__(self, skeleton, rng, n):
        self.joints = {name: skeleton.joint_index(name) for name in (
            "right_shoulder", "right_elbow", "left_shoulder", "left_elbow", "spine")}
        self.keys_at = np.arange(0, n + 1, max(int(rng.uniform(0.8, 1.6) * ds.FPS), 8))
        if self.keys_at[-1] < n:
            self.keys_at = np.append(self.keys_at, n)
        self.keyframes = [self._random_pose(rng) for _ in self.keys_at]

    def _random_pose(self, rng):
        out = {}
        for side, sign in (("right", 1.0), ("left", -1.0)):
            droop = rng.uniform(-0.5, 1.4)
            swing = rng.uniform(-0.9, 0.9)
            tilt = rng.uniform(-0.9, 0.9)
            out[f"{side}_shoulder"] = (
                rotation_z_matrix(swing)
                @ axis_angle_matrix([1, 0, 0], tilt)
                @ axis_angle_matrix([0, 1, 0], sign * droop))
            out[f"{side}_elbow"] = rotation_z_matrix(sign * rng.uniform(0.0, 1.5))
        out["spine"] = axis_angle_matrix([1, 0, 0], rng.uniform(-0.8, 0.15))
        return out

    def apply(self, mats):
        for k in range(len(self.keys_at) - 1):
            start, stop = self.keys_at[k], self.keys_at[k + 1]
            s = ds._smoothstep(np.arange(stop - start) / (stop - start))
            for name, j in self.joints.items():
                mats[start:stop, j] = ref_slerp_track(self.keyframes[k][name],
                                                      self.keyframes[k + 1][name], s)


def ref_solve_reach(skeleton, stand_vec, target):
    """dataset._solve_reach as it was before the reach probes were built once
    per clip: one probe pose and one joint_position call per pitch, tried
    until one reaches; {joint name: 6D} or None."""
    i_spine = skeleton.joint_index("spine")
    i_sh = skeleton.joint_index("right_shoulder")
    a = float(np.linalg.norm(skeleton.offsets[skeleton.joint_index("right_elbow")]))
    b = float(np.linalg.norm(skeleton.offsets[skeleton.joint_index("right_wrist")]))
    for pitch in np.linspace(0.0, 1.1, 8):
        probe = stand_vec.copy()
        spine_local = axis_angle_matrix([1.0, 0.0, 0.0], -pitch)
        spine = probe[3 + 6 * i_spine:9 + 6 * i_spine]
        spine[:] = matrix_to_sixd(spine_local)
        v = target - np.asarray(joint_position(probe, skeleton, i_sh))
        r = float(np.linalg.norm(v))
        if not (abs(a - b) + 0.02 <= r <= a + b - 0.005):
            continue
        cos_al = np.clip((r * r - a * a - b * b) / (2 * a * b), -1.0, 1.0)
        alpha = float(np.arccos(cos_al))
        elbow_local = rotation_z_matrix(alpha)
        wrist_in_shoulder = np.array([a + b * np.cos(alpha), b * np.sin(alpha), 0.0])
        w_sh_parent = sixd_to_matrix(probe[3:9]) @ sixd_to_matrix(spine)
        world = ds._align_rows(wrist_in_shoulder / r, v / r)
        return {"spine": matrix_to_sixd(spine_local),
                "right_shoulder": matrix_to_sixd(w_sh_parent.T @ world),
                "right_elbow": matrix_to_sixd(elbow_local)}
    return None


def ref_generate_reach(skeleton, rng, duration_s, stand_xy, yaw=None, start_vec=None):
    """dataset._generate_reach as it was before the reach probes and the
    moving joints' slerps were stacks."""
    if yaw is None:
        yaw = rng.uniform(-np.pi, np.pi)
    stand = ds.standing_pose(skeleton, stand_xy, yaw) if start_vec is None else start_vec
    n = max(int(round(duration_s * ds.FPS)), 10)
    hold = max(int(round(0.2 * ds.FPS)), 2)
    t_reach = n - 1 - hold
    solution = None
    for _ in range(ds.REACH_RESAMPLES):
        rz2 = rotation_z_matrix(yaw)[:2, :2]
        lateral = rng.uniform(-0.35, 0.45)
        forward = rng.uniform(0.15, 0.45)
        height = rng.uniform(*ds.REACH_HEIGHT_RANGE)
        xy = np.asarray(stand_xy) + rz2 @ np.array([lateral, forward])
        target = np.array([xy[0], xy[1], height])
        solution = ref_solve_reach(skeleton, stand, target)
        if solution is not None:
            break
    assert solution is not None
    s = ds._smoothstep(np.minimum(np.arange(n) / t_reach, 1.0))
    moving = s < 1.0
    poses = np.tile(stand, (n, 1))
    for name, six in solution.items():
        j = skeleton.joint_index(name)
        slot = slice(3 + 6 * j, 9 + 6 * j)
        track = ref_slerp_track(sixd_to_matrix(stand[slot]), sixd_to_matrix(six), s[moving])
        poses[moving, slot] = matrix_to_sixd(track)
        poses[~moving, slot] = six
    return poses, GoalSpec(position=target, target_frame=t_reach)


def ref_align_vec_to(src, dst):
    """The scalar align the generators used before row-wise aligns, written
    with np.cross and np.linalg.norm."""
    c = float(np.dot(src, dst))
    axis = np.cross(src, dst)
    s = float(np.linalg.norm(axis))
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        helper = np.array([0.0, 1.0, 0.0]) if abs(src[0]) > 0.9 else np.array([1.0, 0.0, 0.0])
        axis = np.cross(src, helper)
        return ref_axis_angle_matrix(axis / np.linalg.norm(axis), np.pi)
    return ref_axis_angle_matrix(axis / s, np.arctan2(s, c))


class RefLegs:
    """The per-frame leg helpers dataset._WalkRig had before the gait was
    built as frame stacks; `hits` counts the branches taken."""

    def __init__(self, skel):
        self.hip_off = {s: skel.offsets[skel.joint_index(f"{s}_hip")] for s in ("left", "right")}
        self.leg_len = float(np.linalg.norm(skel.offsets[skel.joint_index("left_foot")]))
        self.hits = Counter()

    def stance_height(self, root_xy, yaw_mat, stance, stance_plant):
        L = self.leg_len
        hip_off_st = self.hip_off[stance]
        hip_xy = np.asarray(root_xy) + yaw_mat[:2, :2] @ hip_off_st[:2]
        gap = stance_plant[:2] - hip_xy
        d = min(np.sqrt(gap.dot(gap)), L - 1e-3)
        return stance_plant[2] + np.sqrt(L * L - d * d) - hip_off_st[2]

    def leg_to_point(self, root, yaw_mat, side, point):
        hip_pos = root + yaw_mat @ self.hip_off[side]
        vec = np.asarray(point) - hip_pos
        n = np.sqrt(vec.dot(vec))
        if n < 1e-9:
            self.hits["on hip"] += 1
            return None
        return yaw_mat.T @ ref_align_vec_to(ds.DOWN, vec / n)

    def leg_swing(self, root, yaw_mat, side, swing_xy, floor_z, clearance):
        L = self.leg_len
        hip_sw = root + yaw_mat @ self.hip_off[side]
        dx = np.asarray(swing_xy) - hip_sw[:2]
        r = np.sqrt(dx.dot(dx))
        zc = max(hip_sw[2] - floor_z - clearance, 0.0)
        lo = min(np.sqrt(max(L * L - zc * zc, 0.0)), L * 0.999)
        hi = L * 0.999
        if r < 1e-9:
            self.hits["r < 1e-9"] += 1
            dx = yaw_mat[:2, :2] @ np.array([0.0, lo])
            r = lo
        elif r < lo:
            self.hits["r < lo"] += 1
            dx = dx * (lo / r)
            r = lo
        elif r > hi:
            self.hits["r > hi"] += 1
            dx = dx * (hi / r)
            r = hi
        dz = -np.sqrt(L * L - r * r)
        return yaw_mat.T @ ref_align_vec_to(ds.DOWN, np.array([dx[0], dx[1], dz]) / L)


def ref_gait(legs, skeleton, yaw, speed, start_xy=(0.0, 0.0), step_time=0.5,
             gestures=None):
    """dataset._generate_gait as it was before frame stacks: a per-frame
    footstep state machine (pass 1), then both legs one frame at a time
    (pass 2), at 30 fps with a 6 cm swing lift."""
    fps, swing_lift = 30.0, 0.06
    rig = ds._WalkRig(skeleton)
    hip_idx = {"left": skeleton.joint_index("left_hip"), "right": skeleton.joint_index("right_hip")}
    n = len(yaw)
    frames_per_step = max(int(round(step_time * fps)), 6)
    heading = np.stack([-np.sin(yaw), np.cos(yaw)], axis=-1)
    root_xy = np.zeros((n, 2))
    root_xy[0] = start_xy
    for i in range(1, n):
        root_xy[i] = root_xy[i - 1] + heading[i - 1] * (speed[i - 1] / fps)
    yaw_mats = rotation_z_matrix(yaw)

    def hip_xy_at(i, side):
        j = min(max(i, 0), n - 1)
        return root_xy[j] + yaw_mats[j, :2, :2] @ legs.hip_off[side][:2]

    def plant_at(land_i, side):
        a = hip_xy_at(land_i, side)
        b = hip_xy_at(land_i + frames_per_step, side)
        if land_i < 0:
            a = 2.0 * hip_xy_at(0, side) - hip_xy_at(frames_per_step, side)
            b = hip_xy_at(0, side)
        mid = 0.5 * (a + b)
        return np.array([mid[0], mid[1], 0.0])

    plants = {"left": plant_at(0, "left"), "right": plant_at(-frames_per_step, "right")}
    stance, swing, step_start = "left", "right", 0
    prev_plant = plants[swing].copy()
    next_plant = plant_at(frames_per_step, swing)
    outward = {"left": -1.0, "right": 1.0}
    frame_plan = []
    z_root = np.zeros(n)
    for i in range(n):
        if i - step_start >= frames_per_step:
            plants[swing] = next_plant
            stance, swing = swing, stance
            step_start = i
            prev_plant = plants[swing].copy()
            next_plant = plant_at(step_start + frames_per_step, swing)
        raw = (i - step_start) / frames_per_step
        ds_w = 0.2
        z_cur = legs.stance_height(root_xy[i], yaw_mats[i], stance, plants[stance])
        if raw < ds_w or raw > 1.0 - ds_w:
            legs.hits["double support"] += 1
            hold = prev_plant if raw < ds_w else next_plant
            spec = ("hold", hold.copy())
            z_other = legs.stance_height(root_xy[i], yaw_mats[i], swing, hold)
            z_root[i] = max(z_cur, z_other)
        else:
            s = ds._smoothstep((raw - ds_w) / (1.0 - 2 * ds_w))
            bulge = yaw_mats[i, :2, :2] @ np.array([outward[swing] * swing_lift * 2.0, 0.0])
            swing_xy = (prev_plant[:2] + (next_plant[:2] - prev_plant[:2]) * s
                        + bulge * np.sin(np.pi * s))
            arc_s = (raw - ds_w) / (1.0 - 2 * ds_w)
            spec = ("arc", swing_xy, max(0.02 * np.sin(np.pi * arc_s), 0.004))
            z_root[i] = z_cur
        frame_plan.append((stance, swing, plants[stance].copy(), spec))

    poses = np.empty((n, 3 + 6 * skeleton.n_joints))
    poses[:, 0:2] = root_xy
    poses[:, 2] = z_root
    mats = np.tile(np.eye(3), (n, skeleton.n_joints, 1, 1))
    mats[:, 0] = yaw_mats
    for i, (stance, swing, stance_plant, spec) in enumerate(frame_plan):
        yaw_mat = yaw_mats[i]
        root = poses[i, 0:3]
        rot = mats[i]
        st = legs.leg_to_point(root, yaw_mat, stance, stance_plant)
        if st is not None:
            rot[hip_idx[stance]] = st
        if spec[0] == "hold":
            sw = legs.leg_to_point(root, yaw_mat, swing, spec[1])
            if sw is not None:
                rot[hip_idx[swing]] = sw
        else:
            rot[hip_idx[swing]] = legs.leg_swing(
                root, yaw_mat, swing, spec[1], floor_z=0.0, clearance=spec[2])
    if gestures is None:
        phase = 2.0 * np.pi * np.arange(n) / (2 * frames_per_step)
        amp = 0.5 * np.minimum(speed / 0.5, 1.0)
        rig.arm_locals(mats, phase, amp)
    else:
        gestures.apply(mats)
    for j in range(skeleton.n_joints):
        poses[:, 3 + 6 * j:9 + 6 * j] = matrix_to_sixd(mats[:, j])
    return poses


def static_sequence(skel, n=120):
    vec = rest_pose(skel)
    return ds.MotionSequence(np.tile(vec, (n, 1)), skel, None, "locomotion", "static")


def test_zero_counts_empty_corpus(skel):
    cfg = ds.SyntheticGenConfig(n_locomotion=0, n_reaching=0, n_walk_reach=0)
    assert ds.generate_synthetic_corpus(cfg, skel) == []


def test_corpus_deterministic_under_seed(skel):
    cfg = ds.SyntheticGenConfig(n_locomotion=2, n_reaching=2, n_walk_reach=1, seed=3)
    a = ds.generate_synthetic_corpus(cfg, skel)
    b = ds.generate_synthetic_corpus(cfg, skel)
    assert len(a) == len(b) == 5
    for x, y in zip(a, b):
        assert x.ident == y.ident
        np.testing.assert_array_equal(x.poses, y.poses)


def corpus_bytes(corpus):
    """Everything a corpus holds, as bytes and plain values."""
    return [(seq.poses.tobytes(), seq.provenance, seq.ident,
             None if seq.label is None else (seq.label.position.tobytes(),
                                             seq.label.target_frame))
            for seq in corpus]


# no clip, one clip of each kind, an odd count with every kind (plain and
# gestured walks, a turn in place), and an even one
@pytest.mark.parametrize("counts", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                    (4, 2, 1), (5, 3, 2)])
@pytest.mark.parametrize("seed", [0, 7])
def test_corpus_bytes_do_not_depend_on_the_process_count(skel, monkeypatch, counts, seed):
    cfg = ds.SyntheticGenConfig(*counts, seed=seed)
    corpora = []
    for processes in (1, 2):
        monkeypatch.setattr(wk, "_process_count", lambda: processes)
        corpus = ds.generate_synthetic_corpus(cfg, skel)
        assert all(seq.skeleton is skel for seq in corpus)
        corpora.append(corpus_bytes(corpus))
    n_loco, n_reach, n_walk_reach = counts
    assert [clip[2] for clip in corpora[0]] == (
        [f"loco_{i:04d}" for i in range(n_loco)] + [f"reach_{i:04d}" for i in range(n_reach)]
        + [f"walkreach_{i:04d}" for i in range(n_walk_reach)])
    assert corpora[0] == corpora[1]


def test_a_clip_failing_in_the_worker_raises_as_in_one_process(skel, monkeypatch,
                                                                fresh_worker):
    # six clips: the walk-reaches 3, 4 and 5 are the second half, run in a
    # worker forked after the patch; each fails with a message of its own,
    # and the first in clip order is the one raised
    def failing(skeleton, rng):
        raise InfeasibleTargetError(f"draw {rng.uniform()!r}")

    monkeypatch.setattr(ds, "_generate_walk_reach", failing)
    cfg = ds.SyntheticGenConfig(n_locomotion=2, n_reaching=1, n_walk_reach=3, seed=4)
    first = np.random.default_rng(np.random.SeedSequence(4).spawn(6)[3]).uniform()
    for processes in (2, 1):
        monkeypatch.setattr(wk, "_process_count", lambda: processes)
        with pytest.raises(InfeasibleTargetError) as exc:
            ds.generate_synthetic_corpus(cfg, skel)
        assert type(exc.value) is InfeasibleTargetError
        assert str(exc.value) == f"draw {first!r}"
        assert wk._worker is not None    # forked at two processes, kept since


def test_slerp_track_matches_per_frame_slerp():
    # one matrix log per keyframe pair gives the per-frame slerp's bits,
    # for a generic pair, an equal pair (zero angle) and a half turn
    rng = np.random.default_rng(5)
    s = ds._smoothstep(np.arange(37) / 37)
    pairs = []
    for _ in range(4):
        m0 = ref_axis_angle_matrix(rng.normal(size=3), rng.uniform(-3.0, 3.0))
        pairs.append((m0, m0 @ ref_axis_angle_matrix(rng.normal(size=3),
                                                     rng.uniform(-3.0, 3.0))))
    pairs.append((pairs[0][0], pairs[0][0]))
    pairs.append((pairs[1][0], pairs[1][0] @ np.diag([1.0, -1.0, -1.0])))
    # all pairs in one call: frame f runs along pair f % len(pairs)
    m0, m1 = (np.array(m) for m in zip(*pairs))
    pair = np.arange(len(s)) % len(pairs)
    track = ds._slerp_track(m0, m1, pair, s)
    for f, (p, si) in enumerate(zip(pair, s)):
        np.testing.assert_array_equal(track[f], ref_slerp(m0[p], m1[p], si))
    # pairs with a joint axis, as the gestures pass them
    track = ds._slerp_track(m0[None], m1[None], np.zeros(len(s), dtype=int), s)
    assert track.shape == (len(s), len(pairs), 3, 3)
    for p in range(len(pairs)):
        np.testing.assert_array_equal(track[:, p], ref_slerp_track(m0[p], m1[p], s))


def test_cross_and_norm_match_numpy_bits():
    v = np.random.default_rng(6).normal(size=(500, 2, 3))
    for a, b in v:
        np.testing.assert_array_equal(ds._cross(a, b), np.cross(a, b))
        assert np.sqrt(a.dot(a)) == np.linalg.norm(a)


def test_align_vec_to_matches_reference():
    # the row-wise align gives each row the scalar formula's bits: 10k unit
    # vectors from DOWN, exact +-DOWN (the per-row branches), anti-parallel
    # pairs, and one pair without a leading axis
    rng = np.random.default_rng(7)
    units = rng.normal(size=(10_000, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    units[[10, 500, 9_000]] = ds.DOWN
    units[[11, 501]] = -ds.DOWN
    stacked = ds._align_rows(ds.DOWN, units)
    assert stacked.shape == (10_000, 3, 3)
    for u, m in zip(units, stacked):
        np.testing.assert_array_equal(m, ref_align_vec_to(ds.DOWN, u))
    x = np.array([1.0, 0.0, 0.0])
    src = np.concatenate([units[:20], [ds.DOWN, x]])
    dst = np.concatenate([-units[:20], [-ds.DOWN, -x]])
    for a, b, m in zip(src, dst, ds._align_rows(src, dst)):
        np.testing.assert_array_equal(m, ref_align_vec_to(a, b))
    np.testing.assert_array_equal(ds._align_rows(units[0], units[1]),
                                  ref_align_vec_to(units[0], units[1]))


def test_stacked_gait_matches_per_frame_gait_on_corpus_clips(skel, monkeypatch):
    # every gait of a corpus (walks with and without gestures, turns in
    # place, the walk of each walk-reach) against the per-frame passes
    legs = RefLegs(skel)
    stacked = ds._generate_gait
    calls = Counter()

    def both(skeleton, yaw, speed, start_xy, step_time, gestures=None):
        out = stacked(skeleton, yaw, speed, start_xy, step_time, gestures)
        ref = ref_gait(legs, skeleton, yaw, speed, start_xy, step_time, gestures)
        assert out.tobytes() == ref.tobytes()
        calls["plain" if gestures is None else "gestured"] += 1
        return out

    monkeypatch.setattr(ds, "_generate_gait", both)
    monkeypatch.setattr(wk, "_process_count", lambda: 1)   # the spy counts here
    cfg = ds.SyntheticGenConfig(n_locomotion=8, n_reaching=1, n_walk_reach=2, seed=3)
    corpus = ds.generate_synthetic_corpus(cfg, skel)
    assert len(corpus) == 11
    # gestures on the even walks and on both turns; walk-reaches walk plain
    assert calls == {"gestured": 4 + 2, "plain": 2 + 2}
    assert legs.hits["double support"] > 0 and legs.hits["r < lo"] > 0


@pytest.mark.parametrize("speed,turn_rate,branch", [
    (2.5, 0.0, "r > hi"),      # strides longer than a leg
    (0.0, 0.0, "r < 1e-9"),    # stepping on the spot: the arc passes the hip
    (0.0, 2.0, "r < lo"),      # turning in place
    (0.6, -0.4, "r < lo"),
])
def test_stacked_gait_matches_per_frame_gait_on_every_swing_branch(skel, speed,
                                                                   turn_rate, branch):
    legs = RefLegs(skel)
    yaw = 0.3 + turn_rate * np.arange(90) / 30.0
    speeds = np.full(90, speed)
    out = ds._generate_gait(skel, yaw, speeds, (0.2, -0.1), step_time=0.5)
    ref = ref_gait(legs, skel, yaw, speeds, (0.2, -0.1), step_time=0.5)
    assert out.tobytes() == ref.tobytes()
    assert legs.hits[branch] > 0 and legs.hits["double support"] > 0


def test_stacked_gestures_match_per_keyframe_gestures_on_corpus_clips(skel, monkeypatch):
    # every gestured clip of a corpus (even walks and turns in place): the
    # keyframe stacks draw the same stream and write the same rotations
    stacked = ds._ArmGestures
    built = []

    def both(skeleton, rng, n):
        twin = copy.deepcopy(rng)
        out = stacked(skeleton, rng, n)
        ref = RefGestures(skeleton, twin, n)
        assert rng.bit_generator.state == twin.bit_generator.state
        mats, ref_mats = ds._identity_stack(n, skeleton.n_joints), ds._identity_stack(n, skeleton.n_joints)
        out.apply(mats)
        ref.apply(ref_mats)
        assert mats.tobytes() == ref_mats.tobytes()
        built.append(len(ref.keys_at))
        return out

    monkeypatch.setattr(ds, "_ArmGestures", both)
    monkeypatch.setattr(wk, "_process_count", lambda: 1)   # the spy counts here
    ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=8, n_reaching=0, n_walk_reach=0, seed=3), skel)
    assert len(built) == 6 and min(built) >= 3


def test_reach_probes_solve_as_the_per_pitch_loop_on_corpus_clips(skel, monkeypatch):
    # every reach target a corpus draws, feasible or not, against the loop
    # that built one probe per pitch and target
    stacked = ds._solve_reach
    outcomes = Counter()

    def both(skeleton, stand, spine, shoulders, target):
        out = stacked(skeleton, stand, spine, shoulders, target)
        ref = ref_solve_reach(skeleton, stand, target)
        if ref is None:
            assert out is None
        else:
            assert out.tobytes() == np.stack([ref[n] for n in ds.REACH_JOINTS]).tobytes()
        outcomes["none" if ref is None else "solved"] += 1
        return out

    monkeypatch.setattr(ds, "_solve_reach", both)
    monkeypatch.setattr(wk, "_process_count", lambda: 1)   # the spy counts here
    ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=0, n_reaching=6, n_walk_reach=3, seed=3), skel)
    assert outcomes["solved"] == 9 and outcomes["none"] > 0


def test_unwritten_gait_tracks_are_the_identity(skel):
    # a plain walk writes the root, both hips and both shoulders; gestures
    # add the elbows and the spine; every other track is identity_sixd()
    names = ["pelvis", "left_hip", "right_hip", "left_shoulder", "right_shoulder"]
    gestured = names + ["left_elbow", "right_elbow", "spine"]
    cfg = ds.SyntheticGenConfig(n_locomotion=4, n_reaching=0, n_walk_reach=0, seed=5)
    for i, seq in enumerate(ds.generate_synthetic_corpus(cfg, skel)):
        written = gestured if i % 2 == 0 or i % 4 == 3 else names
        tracks = seq.poses[:, 3:].reshape(seq.n_frames, skel.n_joints, 6)
        for j, name in enumerate(skel.names):
            assert (name in written) != np.all(tracks[:, j] == identity_sixd()), name


def test_lowest_foot_has_forward_kinematics_bits(small_corpus, skel):
    lf, rf = skel.joint_index("left_foot"), skel.joint_index("right_foot")
    for seq in small_corpus + [static_sequence(skel, n=2 * ds.FLOAT_ROWS + 1)]:
        pos = forward_kinematics(seq.poses, skel)
        assert (ds._lowest_foot(seq.poses, skel).tobytes()
                == np.minimum(pos[:, lf, 2], pos[:, rf, 2]).tobytes())
    # every rotation is decoded: a degenerate head, off both foot chains and
    # past the first FLOAT_ROWS frames, still raises as it does in forward
    # kinematics
    bad = static_sequence(skel, n=ds.FLOAT_ROWS + 70)
    head = skel.joint_index("head")
    bad.poses[ds.FLOAT_ROWS + 65, 3 + 6 * head:9 + 6 * head] = 0.0
    for read in (forward_kinematics, ds._lowest_foot):
        with pytest.raises(DegenerateRotationError):
            read(bad.poses, skel)
    with pytest.raises(DegenerateRotationError):
        ds.filter_floating([bad], skel)


@pytest.mark.parametrize("seed", [0, 17])
def test_corpus_matches_a_build_through_the_per_frame_paths(skel, monkeypatch, seed):
    # a perfbench-sized corpus (8 walks, 5 reaches, 3 walk-reaches) against
    # the per-frame gait, the per-keyframe gestures, the per-pitch reach
    # probes, one slerp per joint, a conversion of every track, and a float
    # check through whole-body forward kinematics
    cfg = ds.SyntheticGenConfig(n_locomotion=8, n_reaching=5, n_walk_reach=3, seed=seed)
    corpus = ds.generate_synthetic_corpus(cfg, skel)
    kept = ds.filter_floating(corpus, skel)
    legs = RefLegs(skel)
    # the patches act in this process only, so both corpora are built here
    monkeypatch.setattr(wk, "_process_count", lambda: 1)
    monkeypatch.setattr(ds, "_ArmGestures", RefGestures)
    monkeypatch.setattr(ds, "_generate_reach", ref_generate_reach)
    monkeypatch.setattr(ds, "_generate_gait", lambda *args, **kw: ref_gait(legs, *args, **kw))
    ref = ds.generate_synthetic_corpus(cfg, skel)
    lf, rf = skel.joint_index("left_foot"), skel.joint_index("right_foot")
    ref_kept = [seq.ident for seq in ref
                if not np.any(np.min(forward_kinematics(seq.poses, skel)[:, [lf, rf], 2],
                                     axis=1) > ds.FLOAT_HEIGHT)]
    assert len(corpus) == len(ref) == 16
    for a, b in zip(corpus, ref):
        assert a.ident == b.ident and a.poses.tobytes() == b.poses.tobytes()
        assert (a.label is None) == (b.label is None)
        if a.label is not None:
            assert a.label.position.tobytes() == b.label.position.tobytes()
            assert a.label.target_frame == b.label.target_frame
    assert [seq.ident for seq in kept] == ref_kept


def test_leg_helpers_match_per_frame_legs(skel):
    # rows of one stack: points on and off the hip, and swing targets on
    # every clamp branch, each against its per-frame call
    rig, legs = ds._WalkRig(skel), RefLegs(skel)
    rng = np.random.default_rng(8)
    n = 40
    yaw_mats = rotation_z_matrix(rng.uniform(-np.pi, np.pi, n))
    root = np.column_stack([rng.uniform(-1, 1, (n, 2)), rng.uniform(0.85, 0.95, n)])
    for k, side in enumerate(("left", "right")):
        hip = rig.hip_pos(root, yaw_mats, k)
        point = hip + rng.normal(scale=0.5, size=(n, 3))
        point[::5] = hip[::5]                   # the point sits on the hip
        leg_dir, aimed = rig.to_point(hip, point)
        assert not aimed[::5].any() and aimed.sum() == n - n // 5
        rot = rig.hip_rotation(yaw_mats[aimed], leg_dir[aimed])
        refs = [legs.leg_to_point(root[i], yaw_mats[i], side, point[i]) for i in range(n)]
        assert [m is not None for m in refs] == list(aimed)
        np.testing.assert_array_equal(rot, [m for m in refs if m is not None])

        # swing targets at 0, 0.05, 0.3 and 0.9 m from the hip, xy
        reach = np.array([0.0, 0.05, 0.3, 0.9])[np.arange(n) % 4]
        bearing = rng.uniform(-np.pi, np.pi, n)
        swing_xy = hip[:, :2] + reach[:, None] * np.column_stack([np.cos(bearing),
                                                                 np.sin(bearing)])
        clearance = rng.uniform(0.004, 0.02, n)
        rot = rig.hip_rotation(yaw_mats, rig.swing(hip, yaw_mats, swing_xy, clearance))
        for i in range(n):
            np.testing.assert_array_equal(rot[i], legs.leg_swing(
                root[i], yaw_mats[i], side, swing_xy[i], 0.0, clearance[i]))
    assert {"on hip", "r < 1e-9", "r < lo", "r > hi"} <= set(legs.hits)


def test_reaching_labels_hit_wrist_within_1cm(small_corpus, skel):
    wrist = skel.joint_index("right_wrist")
    labeled = [s for s in small_corpus if s.label is not None]
    assert labeled
    for seq in labeled:
        pose = seq.poses[seq.label.target_frame]
        pos = np.asarray(joint_position(pose, skel, wrist))
        assert np.linalg.norm(pos - seq.label.position) < 0.01


def test_locomotion_feet_stay_near_ground(small_corpus, skel):
    loco = [s for s in small_corpus if s.provenance == "locomotion"]
    lf, rf = skel.joint_index("left_foot"), skel.joint_index("right_foot")
    for seq in loco:
        pos = forward_kinematics(seq.poses, skel)
        assert pos[:, [lf, rf], 2].min() > -1e-9
        # at least one foot on the ground at every frame
        assert np.all(np.minimum(pos[:, lf, 2], pos[:, rf, 2]) < 0.02)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_no_generated_clip_floats(skel, seed):
    # the invariant filter_floating guards, on every provenance: plain and
    # gestured walks, turns in place, reaches and walk-reaches
    cfg = ds.SyntheticGenConfig(n_locomotion=8, n_reaching=4, n_walk_reach=3, seed=seed)
    corpus = ds.generate_synthetic_corpus(cfg, skel)
    kinds = Counter("turn" if seq.ident.startswith("loco") and int(seq.ident[-4:]) % 4 == 3
                    else seq.ident.split("_")[0] for seq in corpus)
    assert kinds == {"loco": 6, "turn": 2, "reach": 4, "walkreach": 3}
    lf, rf = skel.joint_index("left_foot"), skel.joint_index("right_foot")
    for seq in corpus:
        pos = forward_kinematics(seq.poses, skel)
        lowest = np.minimum(pos[:, lf, 2], pos[:, rf, 2])
        assert np.all(lowest <= ds.FLOAT_HEIGHT), seq.ident


def test_filter_floating_rules(skel, monkeypatch):
    grounded = static_sequence(skel)
    floating = static_sequence(skel)
    floating = ds.MotionSequence(floating.poses.copy(), skel, None, "locomotion", "fl")
    floating.poses[5, 2] += 0.25   # raise the root; both feet leave the ground
    boundary = ds.MotionSequence(grounded.poses.copy(), skel, None, "locomotion", "bd")
    boundary.poses[:, 2] += 0.20
    # use the exact FK height as the threshold so the boundary case is exact
    pos = forward_kinematics(boundary.poses, skel)
    lf, rf = skel.joint_index("left_foot"), skel.joint_index("right_foot")
    exact = float(np.minimum(pos[:, lf, 2], pos[:, rf, 2]).max())
    assert abs(exact - ds.FLOAT_HEIGHT) < 1e-9
    monkeypatch.setattr(ds, "FLOAT_HEIGHT", exact)

    kept = ds.filter_floating([grounded, floating, boundary], skel)
    idents = [s.ident for s in kept]
    assert "static" in idents
    assert "fl" not in idents
    assert "bd" in idents  # strict inequality keeps the boundary


def test_split_ratios_and_determinism(skel):
    seqs = [ds.MotionSequence(np.tile(rest_pose(skel), (2, 1)),
                              skel, None, "locomotion", f"s{i:03d}") for i in range(100)]
    split = ds.split_dataset(seqs, seed=4)
    assert (len(split.train), len(split.val), len(split.test)) == (80, 10, 10)
    again = ds.split_dataset(seqs, seed=4)
    assert split == again
    other = ds.split_dataset(seqs, seed=5)
    assert other != split
    all_ids = set(split.train) | set(split.val) | set(split.test)
    assert len(all_ids) == 100


def test_split_ten_sequences(skel):
    seqs = [ds.MotionSequence(np.tile(rest_pose(skel), (2, 1)),
                              skel, None, "locomotion", f"s{i}") for i in range(10)]
    split = ds.split_dataset(seqs, seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)
    with pytest.raises(ValueError):
        ds.split_dataset(seqs[:9], seed=0)


def test_training_window_uses_stored_label(small_corpus, skel):
    labeled = next(s for s in small_corpus if s.label is not None
                   and s.n_frames >= 41)
    rng = np.random.default_rng(0)
    start, goal, _ = ds.sample_training_window(labeled, 40, rng)
    assert goal == labeled.label
    # the window's poses are labeled.poses[start - 1 : start + 40]
    assert 1 <= start <= labeled.n_frames - 40


def test_training_window_hindsight_deterministic(small_corpus):
    unlabeled = next(s for s in small_corpus if s.label is None and s.n_frames >= 60)
    a = ds.sample_training_window(unlabeled, 40, np.random.default_rng(9))
    b = ds.sample_training_window(unlabeled, 40, np.random.default_rng(9))
    assert a[0] == b[0]
    assert a[1].target_frame == b[1].target_frame
    np.testing.assert_array_equal(a[1].position, b[1].position)
    np.testing.assert_array_equal(a[2], b[2])


def test_training_window_too_short_skips(skel):
    seq = static_sequence(skel, n=20)
    with pytest.raises(SkipWindow):
        ds.sample_training_window(seq, 40, np.random.default_rng(0))


def test_hindsight_static_sequence_goal_is_current_wrist(skel):
    seq = static_sequence(skel)
    goal, _ = hindsight_goal(seq, 0, np.random.default_rng(0))
    wrist = np.asarray(joint_position(seq.poses[0], skel,
                                      skel.joint_index("right_wrist")))
    np.testing.assert_allclose(goal.position, wrist, atol=1e-12)
    assert HINDSIGHT_HORIZON[0] <= goal.target_frame <= seq.n_frames - 1


def test_hindsight_anchor_at_end_raises(skel):
    seq = static_sequence(skel, n=30)
    with pytest.raises(SkipWindow):
        hindsight_goal(seq, 29, np.random.default_rng(0))


def test_hindsight_seeded_determinism(skel):
    seq = static_sequence(skel, n=400)
    frames = [hindsight_goal(seq, 10, np.random.default_rng(42))[0].target_frame
              for _ in range(3)]
    assert len(set(frames)) == 1
    lo, hi = HINDSIGHT_HORIZON
    assert 10 + lo <= frames[0] <= 10 + hi


def test_motion_container_roundtrip(tmp_path, small_corpus, skel):
    seq = next(s for s in small_corpus if s.label is not None)
    path = tmp_path / "clip.mot"
    ds.save_motion(seq, path)
    back = ds.load_motion(path, skel)
    np.testing.assert_array_equal(back.poses, seq.poses)
    assert back.ident == seq.ident
    assert back.provenance == seq.provenance
    np.testing.assert_array_equal(back.label.position, seq.label.position)
    assert back.label.target_frame == seq.label.target_frame

    # byte-stable: writing twice gives identical files
    path2 = tmp_path / "clip2.mot"
    ds.save_motion(seq, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_motion_container_rejects_corruption(tmp_path, small_corpus, skel):
    seq = small_corpus[0]
    path = tmp_path / "clip.mot"
    ds.save_motion(seq, path)
    raw = path.read_bytes()

    truncated = tmp_path / "trunc.mot"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(CorruptFileError):
        ds.load_motion(truncated, skel)

    bad_version = tmp_path / "vers.mot"
    for version in (b"\x63\x00", b"\x01\x00"):  # unknown, and the retired v1
        bad_version.write_bytes(raw[:4] + version + raw[6:])
        with pytest.raises(VersionMismatchError):
            ds.load_motion(bad_version, skel)

    other = desk_skeleton()
    object.__setattr__(other, "offsets", other.offsets * 1.1)
    with pytest.raises(ModelMismatchError):
        ds.load_motion(path, other)

    # a NaN in every frame or in one frame, and rows one pose column short
    for frames in (slice(None), 7):
        poses = seq.poses.copy()
        poses[frames, 20] = np.nan
        nan = tmp_path / "nan.mot"
        ds.save_motion(ds.MotionSequence(poses, skel, seq.label, seq.provenance, seq.ident), nan)
        with pytest.raises(CorruptFileError, match="nan.mot"):
            ds.load_motion(nan, skel)
    header, arrays = read_container(path, ds.MOTION_MAGIC, ds.MOTION_VERSION)
    narrow = tmp_path / "narrow.mot"
    write_container(narrow, ds.MOTION_MAGIC, ds.MOTION_VERSION, header,
                    {"poses": arrays["poses"][:, :-1]})
    with pytest.raises(CorruptFileError, match="narrow.mot"):
        ds.load_motion(narrow, skel)


def test_motion_csv_twin_lossless(tmp_path, small_corpus):
    seq = next(s for s in small_corpus if s.label is not None)
    path = tmp_path / "clip.csv"
    ds.save_motion_csv(seq, path)
    lines = path.read_text().splitlines()
    meta = dict(token.split("=", 1) for line in lines if line.startswith("#")
                for token in line[1:].split())
    header, *rows = [line for line in lines if not line.startswith("#")]
    assert header.split(",") == [f"c{i}" for i in range(seq.poses.shape[1])]
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(back, seq.poses)
    assert float(meta["fps"]) == ds.FPS
    assert meta["ident"] == seq.ident
    np.testing.assert_array_equal([float(v) for v in meta["goal"].split(",")],
                                  seq.label.position)
    assert int(meta["target_frame"]) == seq.label.target_frame


def test_every_window_carries_a_goal(small_corpus):
    rng = np.random.default_rng(7)
    for seq in small_corpus:
        if seq.n_frames < 41:
            continue
        _, goal, _ = ds.sample_training_window(seq, 40, rng)
        assert isinstance(goal, GoalSpec)
        assert np.all(np.isfinite(goal.position))


def test_manifest_lists_all(tmp_path, small_corpus):
    import json
    split = ds.split_dataset(small_corpus, seed=1)
    path = tmp_path / "manifest.json"
    ds.write_manifest([ds.ManifestEntry.of(s) for s in small_corpus], split, path)
    data = json.loads(path.read_text())
    assert len(data["sequences"]) == len(small_corpus)
    assert all(e["split"] in ("train", "val", "test") for e in data["sequences"])
