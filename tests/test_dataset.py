from dataclasses import replace

import numpy as np
import pytest

from reachgen import dataset as ds
from reachgen.body import desk_skeleton, forward_kinematics, joint_position, rest_pose
from reachgen.errors import (CorruptFileError, InvalidInputError, ModelMismatchError,
                             SkipWindow, VersionMismatchError)
from reachgen.intention import GoalSpec, hindsight_goal


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


def ref_slerp(m0, m1, s):
    """One frame of the per-frame slerp the generators used before slerp
    tracks: the matrix log of m0.T @ m1 taken again for every frame."""
    axis, angle = ds._matrix_log_axis_angle(m0.T @ m1)
    return m0 @ ref_axis_angle_matrix(axis, s * angle)


def ref_align_vec_to(src, dst):
    """dataset._align_vec_to written with np.cross and np.linalg.norm."""
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


def static_sequence(skel, n=120):
    vec = rest_pose(skel)
    return ds.MotionSequence(30.0, np.tile(vec, (n, 1)), skel, None, "locomotion", "static")


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
    for m0, m1 in pairs:
        track = ds._slerp_track(m0, m1, s)
        np.testing.assert_array_equal(track, [ref_slerp(m0, m1, si) for si in s])


def test_cross_and_norm_match_numpy_bits():
    v = np.random.default_rng(6).normal(size=(500, 2, 3))
    for a, b in v:
        np.testing.assert_array_equal(ds._cross(a, b), np.cross(a, b))
        assert np.sqrt(a.dot(a)) == np.linalg.norm(a)


def test_align_vec_to_matches_reference():
    rng = np.random.default_rng(7)
    units = rng.normal(size=(200, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    pairs = [(ds.DOWN, u) for u in units] + [(u, -u) for u in units[:20]]
    x = np.array([1.0, 0.0, 0.0])
    pairs += [(ds.DOWN, ds.DOWN), (ds.DOWN, -ds.DOWN), (x, -x)]
    for src, dst in pairs:
        np.testing.assert_array_equal(ds._align_vec_to(src, dst), ref_align_vec_to(src, dst))


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


def test_filter_floating_rules(skel):
    grounded = static_sequence(skel)
    floating = static_sequence(skel)
    floating = ds.MotionSequence(30.0, floating.poses.copy(), skel, None, "locomotion", "fl")
    floating.poses[5, 2] += 0.25   # raise the root; both feet leave the ground
    boundary = ds.MotionSequence(30.0, grounded.poses.copy(), skel, None, "locomotion", "bd")
    boundary.poses[:, 2] += 0.20
    # use the exact FK height as the threshold so the boundary case is exact
    pos = forward_kinematics(boundary.poses, skel)
    lf, rf = skel.joint_index("left_foot"), skel.joint_index("right_foot")
    exact = float(np.minimum(pos[:, lf, 2], pos[:, rf, 2]).max())

    kept = ds.filter_floating([grounded, floating, boundary], skel, threshold=exact)
    idents = [s.ident for s in kept]
    assert "static" in idents
    assert "fl" not in idents
    assert "bd" in idents  # strict inequality keeps the boundary


def test_split_ratios_and_determinism(skel):
    seqs = [ds.MotionSequence(30.0, np.tile(rest_pose(skel), (2, 1)),
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
    seqs = [ds.MotionSequence(30.0, np.tile(rest_pose(skel), (2, 1)),
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


def test_training_window_rejects_other_joint_label(small_corpus):
    labeled = next(s for s in small_corpus if s.label is not None
                   and s.n_frames >= 41)
    other = replace(labeled, label=replace(labeled.label, target_joint="left_wrist"))
    with pytest.raises(InvalidInputError):
        ds.sample_training_window(other, 40, np.random.default_rng(0))


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
    goal, _ = hindsight_goal(seq, 0, np.random.default_rng(0), horizon=(15, 60))
    wrist = np.asarray(joint_position(seq.poses[0], skel,
                                      skel.joint_index("right_wrist")))
    np.testing.assert_allclose(goal.position, wrist, atol=1e-12)
    assert 15 <= goal.target_frame <= 60


def test_hindsight_anchor_at_end_raises(skel):
    seq = static_sequence(skel, n=30)
    with pytest.raises(SkipWindow):
        hindsight_goal(seq, 29, np.random.default_rng(0), horizon=(15, 60))


def test_hindsight_seeded_determinism(skel):
    seq = static_sequence(skel, n=120)
    frames = [hindsight_goal(seq, 0, np.random.default_rng(42), horizon=(30, 90))[0].target_frame
              for _ in range(3)]
    assert len(set(frames)) == 1
    assert 30 <= frames[0] <= 90


def test_motion_container_roundtrip(tmp_path, small_corpus, skel):
    seq = next(s for s in small_corpus if s.label is not None)
    path = tmp_path / "clip.mot"
    ds.save_motion(seq, path)
    back = ds.load_motion(path, skel)
    np.testing.assert_array_equal(back.poses, seq.poses)
    assert back.fps == seq.fps
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
    assert float(meta["fps"]) == seq.fps
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
    ds.write_manifest(small_corpus, split, path)
    data = json.loads(path.read_text())
    assert len(data["sequences"]) == len(small_corpus)
    assert all(e["split"] in ("train", "val", "test") for e in data["sequences"])
