import dataclasses
import re

import numpy as np
import pytest

from reachgen import autodiff as ag
from reachgen import dataset as ds
from reachgen import model as md
from reachgen import training as tr
from reachgen.autodiff import Tape
from reachgen.body import (desk_skeleton, forward_kinematics, integrate_delta,
                           pose_delta, pose_dim, rest_pose)
from reachgen.container import read_container, write_container
from reachgen.errors import (CorruptFileError, DimensionMismatchError, SkipWindow,
                             VersionMismatchError)
from reachgen.intention import assemble_condition, condition_dim
from reachgen.nn import AdamState, adam_step


@pytest.fixture(scope="module")
def skel():
    return desk_skeleton()


@pytest.fixture(scope="module")
def tiny_model(skel):
    return md.fresh_model(skel, latent_dim=4, hidden_dim=16, n_layers=2,
                          dropout=0.0, seed=1)


def test_encode_output_shapes(tiny_model, skel):
    spec = tiny_model.spec
    delta = np.zeros(pose_dim(skel.n_rotated))
    cond = np.zeros(condition_dim(skel.n_rotated))
    g = md.encode(spec, tiny_model.params, delta, cond, None)
    assert ag.value(g.mean).shape == (spec.latent_dim,)
    assert ag.value(g.log_std).shape == (spec.latent_dim,)
    assert np.all(ag.value(g.log_std) >= -8.0)
    assert np.all(ag.value(g.log_std) <= 4.0)
    assert np.all(np.isfinite(ag.value(g.mean)))


def test_encode_decode_deterministic_in_eval(tiny_model, skel):
    spec = tiny_model.spec
    rng = np.random.default_rng(0)
    delta = rng.normal(size=pose_dim(skel.n_rotated))
    cond = rng.normal(size=condition_dim(skel.n_rotated))
    z = rng.normal(size=spec.latent_dim)
    a = md.decode(spec, tiny_model.params, z, cond, None)
    b = md.decode(spec, tiny_model.params, z, cond, None)
    np.testing.assert_array_equal(a, b)
    ga = md.encode(spec, tiny_model.params, delta, cond, None)
    gb = md.encode(spec, tiny_model.params, delta, cond, None)
    np.testing.assert_array_equal(ag.value(ga.mean), ag.value(gb.mean))


def test_encode_decode_dropout_is_a_function_of_its_seed(skel):
    # dropout is a (seed, rows) argument: equal calls give equal bits, and
    # another seed draws other masks
    model = md.fresh_model(skel, latent_dim=4, hidden_dim=16, n_layers=3,
                           dropout=0.3, seed=1)
    spec, store = model.spec, model.params
    rng = np.random.default_rng(0)
    delta = rng.normal(size=(5, pose_dim(skel.n_rotated)))
    cond = rng.normal(size=(5, condition_dim(skel.n_rotated)))
    z = rng.normal(size=(5, spec.latent_dim))

    def run(seed):
        return (ag.value(md.encode(spec, store, delta, cond, (seed, (0, 5))).mean),
                md.decode(spec, store, z, cond, (seed, (0, 5))))

    for a, b, c in zip(run(11), run(11), run(12)):
        assert a.tobytes() == b.tobytes()
        assert np.any(a != c)


def test_wrong_input_width_is_a_dimension_mismatch(tiny_model, skel):
    spec = tiny_model.spec
    cond = np.zeros(condition_dim(skel.n_rotated))
    with pytest.raises(DimensionMismatchError):
        md.encode(spec, tiny_model.params, np.zeros(pose_dim(skel.n_rotated) + 1),
                  cond, None)
    with pytest.raises(DimensionMismatchError):
        md.decode(spec, tiny_model.params, np.zeros(spec.latent_dim - 1), cond, None)


def test_decode_output_dim(tiny_model, skel):
    spec = tiny_model.spec
    out = md.decode(spec, tiny_model.params, np.zeros(spec.latent_dim),
                    np.zeros(condition_dim(skel.n_rotated)), None)
    assert out.shape == (3 + 6 + 6 * skel.n_rotated,)


def test_perfect_prediction_zero_loss(skel):
    pose = rest_pose(skel)
    d = np.zeros(pose_dim(skel.n_rotated))
    rec, joint = md.compute_loss(integrate_delta(pose, d), pose,
                                 forward_kinematics(pose, skel), skel)
    assert (float(rec), float(joint)) == (0.0, 0.0)


def test_pose_mse_is_the_delta_mse(skel):
    # both poses integrate from one yawed pose: their difference is the
    # delta difference turned about z, which keeps every xy pair's length
    rng = np.random.default_rng(3)
    prev = rest_pose(skel)
    yaw = 0.7
    prev[3:9] = [np.cos(yaw), np.sin(yaw), 0.0, -np.sin(yaw), np.cos(yaw), 0.0]
    true = 0.05 * rng.standard_normal((4, pose_dim(skel.n_rotated)))
    pred = 0.05 * rng.standard_normal((4, pose_dim(skel.n_rotated)))
    rec, _ = md.compute_loss(integrate_delta(prev, pred), integrate_delta(prev, true),
                             np.zeros((4, skel.n_joints, 3)), skel)
    assert float(rec) == pytest.approx(float(np.mean((pred - true) ** 2)), rel=1e-14)


def test_wrist_only_error_isolates_joint_loss(skel):
    # perturbing only the right elbow rotation moves the wrist but leaves
    # the other joints' FK unchanged
    pose = rest_pose(skel)
    dim = 3 + 6 + 6 * skel.n_rotated
    true = np.zeros(dim)
    pred = np.zeros(dim)
    slot = skel.joint_index("right_elbow") - 1
    pred[9 + slot * 6: 9 + slot * 6 + 6] = [0.0, 0.3, 0.0, -0.3, 0.0, 0.0]
    moved = forward_kinematics(integrate_delta(pose, pred), skel)
    base = forward_kinematics(integrate_delta(pose, true), skel)
    rec, joint = md.compute_loss(integrate_delta(pose, pred), integrate_delta(pose, true),
                                 base, skel)
    assert float(rec) > 0
    assert float(joint) > 0
    # verify only the wrist moved
    diff = np.linalg.norm(moved - base, axis=-1)
    wrist = skel.joint_index("right_wrist")
    assert diff[wrist] > 1e-3
    others = np.delete(diff, wrist)
    np.testing.assert_allclose(others, 0.0, atol=1e-12)


@pytest.fixture(scope="module")
def small_windows(skel):
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=3, n_reaching=2, n_walk_reach=0, seed=7), skel)
    cfg = tr.TrainConfig(epochs=1, batch_size=5, seed=3, window_len=20)
    return tr.build_training_windows(corpus, cfg, skel), cfg


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def test_window_set_matches_per_window_reference(skel):
    # more than tr.FK_ROWS windows, so the chunked fill crosses a chunk boundary
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=2, n_reaching=1, n_walk_reach=1, seed=1), skel)
    cfg = tr.TrainConfig(seed=1, windows_per_sequence=18)
    windows = tr.build_training_windows(corpus, cfg, skel)
    assert len(windows) > tr.FK_ROWS
    w = cfg.window_len
    i = 0
    for idx, seq in enumerate(sorted(corpus, key=lambda s: s.ident)):
        for k in range(cfg.windows_per_sequence):
            rng = np.random.default_rng([cfg.seed, idx, k])
            try:
                start, goal, heading = ds.sample_training_window(seq, w, rng)
            except SkipWindow:
                continue
            # one window at a time, as a (W + 1, pose_dim) slice
            poses = seq.poses[start - 1:start + w]
            prev, nxt = poses[:-1], poses[1:]
            deltas = pose_delta(prev, nxt)
            prev_deltas = np.vstack([np.zeros((1, deltas.shape[1])), deltas[:-1]])
            conditions, _ = assemble_condition(
                prev, prev_deltas, skel, goal, start - 1 + np.arange(w),
                goal_heading=np.broadcast_to(heading, (w, 2)))
            win = windows[i]
            assert_same_bits(win.poses, poses)
            assert_same_bits(win.deltas, deltas)
            assert_same_bits(win.conditions, conditions)
            assert_same_bits(win.targets, forward_kinematics(nxt, skel))
            assert_same_bits(win.goal_position, goal.position)
            assert_same_bits(win.goal_heading, heading)
            assert (win.start_frame, win.goal_frame) == (start, goal.target_frame)
            i += 1
    assert i == len(windows)


def batch_breakdown(windows, model, s, cfg):
    """(total loss value, LossBreakdown floats) of one batch, fixed noise."""
    total, breakdown, _, _ = tr._batch_loss(windows, model, s, cfg,
                                            np.random.default_rng(0), dropout_seed=0,
                                            batch_rows=(0, len(windows)))
    return float(ag.value(total)), breakdown


def test_total_assembled_from_parts(skel, small_windows):
    windows, cfg = small_windows
    model = md.fresh_model(skel, seed=2)
    for s in (0, 3):
        total, out = batch_breakdown(windows, model, s, cfg)
        assert out.total == total
        assert total == pytest.approx(out.rec + cfg.alpha * out.kl + out.joint,
                                      rel=1e-15)


def test_alpha_weights_only_the_kl(skel, small_windows):
    windows, cfg = small_windows
    model = md.fresh_model(skel, seed=2)
    for s in (0, 3):
        _, low = batch_breakdown(windows, model, s, dataclasses.replace(cfg, alpha=1e-2))
        _, high = batch_breakdown(windows, model, s, dataclasses.replace(cfg, alpha=1.0))
        assert (high.rec, high.kl, high.joint) == (low.rec, low.kl, low.joint)
        assert low.kl > 0
        assert high.total - low.total == pytest.approx((1.0 - 1e-2) * low.kl,
                                                       rel=1e-12)


def test_teacher_joint_term_reads_the_stored_targets(skel, small_windows):
    windows, cfg = small_windows
    model = md.fresh_model(skel, seed=2)
    _, base = batch_breakdown(windows, model, 0, cfg)
    moved = dataclasses.replace(windows, targets=windows.targets + 0.05)
    _, shifted = batch_breakdown(moved, model, 0, cfg)
    assert (shifted.rec, shifted.kl) == (base.rec, base.kl)
    assert shifted.joint != base.joint


def test_memorization_sanity(skel):
    # over-parameterized tiny model, no KL, no dropout, 5 windows:
    # rec + joint decreases and reaches < 1e-3 within 50 steps
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=3, n_reaching=2, n_walk_reach=0, seed=7), skel)
    cfg = tr.TrainConfig(alpha=1e-9, batch_size=5, epochs=1, lr_base=3e-3,
                         lr_final=3e-3, seed=0, window_len=10, s_max=0)
    windows = tr.build_training_windows(corpus, cfg, skel)[:5]
    model = md.fresh_model(skel, latent_dim=16, hidden_dim=64, n_layers=2,
                           dropout=0.0, seed=0)
    adam = AdamState(cfg.lr_base, cfg.lr_final, total_steps=100)
    losses = []
    for step in range(50):
        model.params.zero_grad()
        noise_rng = np.random.default_rng(0)  # frozen noise
        with Tape() as tape:
            total, breakdown, _, _ = tr._batch_loss(
                windows, model, 0, cfg, noise_rng, dropout_seed=0,
                batch_rows=(0, len(windows)))
        tape.backward(total)
        adam_step(adam, model.params, model.params.flat_gradient())
        losses.append(breakdown.rec + breakdown.joint)
    assert losses[-1] < 1e-3, losses[-1]
    # monotone decrease up to small Adam oscillation at the converged tail
    for a, b in zip(losses, losses[1:]):
        assert b < a * 1.15
    assert losses[-1] < 0.01 * losses[0]


def test_train_epoch_deterministic(skel, small_windows):
    windows, cfg = small_windows
    model_a = md.fresh_model(skel, seed=5)
    adam_a = AdamState(1e-3, 1e-4, 10)
    la = tr.train_epoch(windows, model_a, adam_a, epoch=0, cfg=cfg)
    model_b = md.fresh_model(skel, seed=5)
    adam_b = AdamState(1e-3, 1e-4, 10)
    lb = tr.train_epoch(windows, model_b, adam_b, epoch=0, cfg=cfg)
    assert la == lb
    for name in model_a.params.names():
        np.testing.assert_array_equal(model_a.params[name].data,
                                      model_b.params[name].data)


def test_rollout_schedule_values():
    cfg = tr.TrainConfig()
    assert tr.rollout_steps_for_epoch(0, cfg) == 0
    assert tr.rollout_steps_for_epoch(50, cfg) == 10
    assert tr.rollout_steps_for_epoch(120, cfg) == 10
    for e in range(0, 130):
        expected = round(10 * min(e / 50, 1.0))
        assert tr.rollout_steps_for_epoch(e, cfg) == expected


def test_rollout_never_indexes_past_window_end(skel, small_windows):
    # s larger than the window still works: capped at W-1 generated steps
    windows, cfg = small_windows
    model = md.fresh_model(skel, seed=2)
    noise_rng = np.random.default_rng(0)
    with Tape() as tape:
        total, _, n_total, n_teacher = tr._batch_loss(
            windows[:2], model, s_steps=500, cfg=cfg, noise_rng=noise_rng,
            dropout_seed=0, batch_rows=(0, 2))
    w = windows.deltas.shape[1]
    assert n_total == n_teacher + 2 * (w - 1)


def test_checkpoint_roundtrip(tmp_path, skel, small_windows):
    windows, cfg = small_windows
    model = md.fresh_model(skel, seed=9)
    adam = AdamState(1e-3, 1e-4, 100)
    tr.train_epoch(windows, model, adam, epoch=0, cfg=cfg)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(model, path)
    loaded = md.load_checkpoint(path)
    for name in model.params.names():
        np.testing.assert_array_equal(loaded.params[name].data,
                                      model.params[name].data)
    assert loaded.skeleton.hash == skel.hash
    # identical eval outputs on a probe input
    spec = model.spec
    rng = np.random.default_rng(3)
    z, cond = rng.normal(size=spec.latent_dim), rng.normal(size=condition_dim(skel.n_rotated))
    np.testing.assert_array_equal(md.decode(spec, model.params, z, cond, None),
                                  md.decode(loaded.spec, loaded.params, z, cond, None))


def test_checkpoint_bytes_stable(tmp_path, skel):
    model = md.fresh_model(skel, seed=4)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    md.save_checkpoint(model, p1)
    md.save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_holds_the_model_only(tmp_path, skel):
    """A version-5 checkpoint's arrays are the parameters, in store order,
    its header holds the four model settings and no optimizer state; a
    version-2 file, which carried the Adam moments, is not read."""
    model = md.fresh_model(skel, latent_dim=6, hidden_dim=24, n_layers=3, dropout=0.2,
                           seed=4)
    model.meta = {"train": {"epochs": 3}}
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(model, path)
    header, arrays = read_container(path, md.CHECKPOINT_MAGIC, 5)
    assert list(arrays) == model.params.names()
    assert set(header) == {"meta", "model", "skeleton_text"}
    assert header["model"] == {"latent_dim": 6, "hidden_dim": 24, "n_layers": 3,
                               "dropout": 0.2}
    assert header["meta"] == model.meta
    assert md.load_checkpoint(path).spec == model.spec
    v2 = tmp_path / "v2.ckpt"
    write_container(v2, md.CHECKPOINT_MAGIC, 2,
                    {**header, "adam": {"step": 1}, "train_meta": {"epochs": 3}},
                    arrays)
    with pytest.raises(VersionMismatchError, match="format version 2, expected 5"):
        md.load_checkpoint(v2)


def test_checkpoint_rejects_corruption(tmp_path, skel):
    model = md.fresh_model(skel, seed=4)
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(model, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:-100])
    with pytest.raises(CorruptFileError):
        md.load_checkpoint(bad)
    # a non-finite parameter is a corrupt file, not a fault of the first rollout
    header, arrays = read_container(path, md.CHECKPOINT_MAGIC, md.CHECKPOINT_VERSION)
    arrays["dec.w0"][0, 0] = np.nan
    write_container(bad, md.CHECKPOINT_MAGIC, md.CHECKPOINT_VERSION, header, arrays)
    with pytest.raises(CorruptFileError, match=re.escape(f"{bad}: parameters are not finite")):
        md.load_checkpoint(bad)
    vers = tmp_path / "vers.ckpt"
    for version in (b"\x42\x00", b"\x01\x00"):  # unknown, and the retired v1
        vers.write_bytes(raw[:4] + version + raw[6:])
        with pytest.raises(VersionMismatchError):
            md.load_checkpoint(vers)


def test_model_hash_changes_with_params(skel):
    a = md.fresh_model(skel, seed=1)
    b = md.fresh_model(skel, seed=1)
    assert a.hash() == b.hash()
    b.params[b.params.names()[0]].data[0, 0] += 1e-9
    assert a.hash() != b.hash()


def test_training_log_format(tmp_path, skel):
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(n_locomotion=3, n_reaching=2, n_walk_reach=0, seed=7), skel)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=0, window_len=15)
    _, rows = tr.train(corpus, skel, cfg)
    tr.write_training_log(rows, tmp_path / "log.csv")
    text = (tmp_path / "log.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "epoch,s,rec,kl,joint,total,lr"
    assert len(lines) == 2 + 2
    # values roundtrip through repr
    parts = lines[2].split(",")
    assert float(parts[2]) == rows[0][2]
