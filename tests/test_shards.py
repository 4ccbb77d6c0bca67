"""The sharded training step: every batch is cut into TRAIN_SHARDS fixed row
shards, and the bits depend on that cut alone, never on whether a shard ran
in the worker process or in this one."""
import dataclasses
import os
import pickle
import subprocess
import sys
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from reachgen import autodiff as ag
from reachgen import dataset as ds
from reachgen import model as md
from reachgen import nn
from reachgen import training as tr
from reachgen import worker as wk
from reachgen.autodiff import Tape
from reachgen.body import desk_skeleton, forward_kinematics, integrate_delta, pose_delta
from reachgen.errors import NumericFault, WorkerDiedError
from reachgen.intention import GoalSpec, assemble_condition
from reachgen.model import fresh_model
from reachgen.nn import AdamState

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def skel():
    return desk_skeleton()


@pytest.fixture(scope="module")
def windows(skel):
    """33 windows of 12 frames; s_max 10 reached at epoch 1."""
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(seed=2, n_locomotion=3, n_reaching=2, n_walk_reach=1), skel)
    cfg = tr.TrainConfig(seed=3, window_len=12, windows_per_sequence=6, ramp_epochs=1)
    out = tr.build_training_windows(corpus, cfg, skel)[:33]
    assert len(out) == 33
    return out


def config(batch_size):
    return tr.TrainConfig(seed=3, window_len=12, batch_size=batch_size, ramp_epochs=1)


def small_model(skel):
    return fresh_model(skel, latent_dim=8, hidden_dim=32, n_layers=3, seed=4)


def train_two_epochs(skel, windows, cfg):
    """(losses, parameters, Adam moments) after an s=0 then an s=10 epoch."""
    model = small_model(skel)
    adam = AdamState(1e-3, 1e-4, 20)
    losses = [tr.train_epoch(windows, model, adam, epoch, cfg) for epoch in (0, 1)]
    assert [tr.rollout_steps_for_epoch(e, cfg) for e in (0, 1)] == [0, 10]
    params = {name: model.params[name].data.tobytes() for name in model.params.names()}
    moments = (adam.m.tobytes(), adam.v.tobytes())
    return losses, params, moments


@pytest.mark.parametrize("batch_size", [32, 3, 1])
def test_worker_and_in_process_give_the_same_bytes(skel, windows, monkeypatch, batch_size):
    # 33 windows: a partial last batch of 1 at batch size 32, whose first
    # shard is empty, 11 batches of 3 and 33 of 1
    cfg = config(batch_size)
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    in_worker = train_two_epochs(skel, windows, cfg)
    monkeypatch.setattr(wk, "_process_count", lambda: 1)
    in_process = train_two_epochs(skel, windows, cfg)
    assert in_worker == in_process


def test_bits_do_not_depend_on_the_blas_thread_count(skel, monkeypatch):
    # at desk size OpenBLAS rounds a 2-thread matmul differently from a
    # 1-thread one; each process runs a step with one thread, in process too
    calls = wk._blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread-count calls to set")
    get, put = calls
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(seed=1, n_locomotion=2, n_reaching=1, n_walk_reach=1), skel)
    cfg = tr.TrainConfig(seed=1, windows_per_sequence=8)
    windows = tr.build_training_windows(corpus, cfg, skel)
    assert (len(windows), windows.deltas.shape[1]) == (32, 40)
    before = get()
    put(2)
    try:
        bits = []
        for processes in (2, 1):
            monkeypatch.setattr(wk, "_process_count", lambda: processes)
            model = fresh_model(skel, seed=1)
            adam = AdamState(1e-3, 1e-4, 4)
            for epoch in (0, cfg.ramp_epochs):     # s=0, then s=10
                tr.train_epoch(windows, model, adam, epoch, cfg)
            bits.append([model.params[name].data.tobytes() for name in model.params.names()])
            assert get() == 2
    finally:
        put(before)
    assert bits[0] == bits[1]


def test_a_built_window_set_is_read_only(windows):
    # the worker keeps its own copy of the set, which must not drift
    for field in dataclasses.fields(windows):
        with pytest.raises(ValueError, match="read-only"):
            getattr(windows, field.name)[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        windows.poses[1, 2, 3] += 1.0


class PipeSpy:
    """The worker's connection, recording the size of each message sent."""

    def __init__(self, conn, sent):
        self.conn, self.sent = conn, sent

    def send(self, obj):
        buf = ForkingPickler.dumps(obj)
        self.sent.append(len(buf))
        self.conn.send_bytes(buf)

    def recv(self):
        return self.conn.recv()


def test_the_window_set_crosses_the_pipe_only_to_a_live_worker(skel, windows, monkeypatch):
    # batch size 8: each batch of 8 sends its second shard, and 33 windows'
    # last batch of 1 runs here alone. A worker forked at a batch (the first
    # one, or the first after a stop) holds the set from the fork; a live
    # worker is sent another set once, with its first batch. Every other
    # message is the model, the config and a shard's row indices
    cfg = config(8)
    wk._stop_worker()
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    sent = []
    connection = wk._worker_connection
    monkeypatch.setattr(wk, "_worker_connection",
                        lambda resident: PipeSpy(connection(resident), sent))
    model, adam = small_model(skel), AdamState(1e-3, 1e-4, 30)
    budget = len(pickle.dumps(model)) + 64 * 1024
    other = windows[1:]
    assert len(pickle.dumps(other)) > 4 * budget
    # (window set, epoch, a worker is forked, the set crosses the pipe)
    runs = [(windows, 0, True, False), (windows, 1, False, False), "stop",
            (windows, 1, True, False), (other, 0, False, True), (other, 1, False, False)]
    pids = []
    for run in runs:
        if run == "stop":
            wk._stop_worker()
            assert (wk._worker, wk._resident) == (None, None)
            continue
        ws, epoch, forks, crosses = run
        sent.clear()
        tr.train_epoch(ws, model, adam, epoch, cfg)
        assert len(sent) == len(ws) // 8
        assert (sent[0] > len(pickle.dumps(ws))) == crosses
        assert all(n < budget for n in sent[crosses:])
        assert wk._resident is ws
        pids.append(wk._worker[1].pid)
        assert (len(pids) == 1 or pids[-1] != pids[-2]) == forks
    # in one process the same runs give the same bytes, so the worker
    # computed on the set each batch named
    monkeypatch.setattr(wk, "_process_count", lambda: 1)
    replay, replay_adam = small_model(skel), AdamState(1e-3, 1e-4, 30)
    for run in runs:
        if run != "stop":
            tr.train_epoch(run[0], replay, replay_adam, run[1], cfg)
    for name in model.params.names():
        assert model.params[name].data.tobytes() == replay.params[name].data.tobytes()
    assert (adam.m.tobytes(), adam.v.tobytes()) == (replay_adam.m.tobytes(),
                                                    replay_adam.v.tobytes())


def test_train_releases_the_window_set_on_return(skel, monkeypatch):
    # generating the corpus leaves a worker live; train stops it, so its
    # first batch forks a worker holding the window set and no message
    # carries the set. Once train returns, neither this process nor a
    # worker keeps it
    wk._stop_worker()
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    corpus = ds.generate_synthetic_corpus(
        ds.SyntheticGenConfig(seed=2, n_locomotion=2, n_reaching=1, n_walk_reach=0), skel)
    assert wk._worker is not None
    cfg = dataclasses.replace(config(8), epochs=1, windows_per_sequence=16)
    model = small_model(skel)
    budget = len(pickle.dumps(model)) + 64 * 1024
    assert len(pickle.dumps(tr.build_training_windows(corpus, cfg, skel))) > 4 * budget
    asked, sent = [], []
    connection = wk._worker_connection

    def spy(resident):
        asked.append((wk._worker is None, resident is not None))
        return PipeSpy(connection(resident), sent)

    monkeypatch.setattr(wk, "_worker_connection", spy)
    tr.train(corpus, skel, cfg, model)
    assert asked[0] == (True, True)
    assert sent and all(n < budget for n in sent)
    assert (wk._worker, wk._resident) == (None, None)


def test_shard_bounds_come_from_the_batch_size():
    assert tr.TRAIN_SHARDS == 2
    assert tr._shard_bounds(32) == [(0, 16), (16, 32)]
    assert tr._shard_bounds(3) == [(0, 1), (1, 3)]
    assert tr._shard_bounds(1) == [(0, 0), (0, 1)]


def test_shard_dropout_masks_are_rows_of_the_batch_masks():
    # a layer norm of gain 0 puts out its integer offset exactly, so with
    # integer weights and masks of 0 or 2 every product and sum is exact and
    # each layer's output rows agree bit for bit exactly when the masks do
    cfg = nn.MlpConfig(in_dim=4, out_dim=3, hidden_dim=8, n_layers=3, dropout=0.5)
    rng = np.random.default_rng(0)
    store = nn.ParameterStore()
    for i, (d_in, d_out) in enumerate(cfg.layer_dims()):
        store.add(f"net.w{i}", rng.integers(-3, 4, (d_in, d_out)).astype(float))
        store.add(f"net.b{i}", rng.integers(0, 3, d_out).astype(float))
        if i < cfg.n_layers - 1:
            store.add(f"net.ln_g{i}", np.zeros(d_out))
            store.add(f"net.ln_b{i}", rng.integers(1, 4, d_out).astype(float))
    params = nn.mlp_params(store, "net")
    x = rng.integers(-2, 3, (7, 4)).astype(float)
    layers = []
    batch, _ = nn._mlp(cfg, params, x, False, (5, (0, 7)), inputs=layers)
    untrained, _ = nn._mlp(cfg, params, x, False, None)
    assert not np.array_equal(batch, untrained)
    for lo, hi in [(0, 3), (3, 7), (2, 5), (6, 7)]:
        shard_layers = []
        shard, _ = nn._mlp(cfg, params, x[lo:hi], False, (5, (lo, 7)),
                           inputs=shard_layers)
        np.testing.assert_array_equal(shard, batch[lo:hi])
        for got, want in zip(shard_layers, layers):    # every layer's mask
            np.testing.assert_array_equal(got, want[lo:hi])


def capture_noise(monkeypatch):
    """The noise the reparameterisation and the rollout steps' latents
    receive, in call order."""
    seen = []
    reparameterize, rollout_poses = tr.reparameterize, tr.rollout_poses

    def reparameterize_spy(gauss, noise):
        seen.append(noise.reshape(-1, noise.shape[-1]))
        return reparameterize(gauss, noise)

    def rollout_spy(initial_pose, goal, duration, model, latents, *args):
        seen.append(latents)
        return rollout_poses(initial_pose, goal, duration, model, latents, *args)

    monkeypatch.setattr(tr, "reparameterize", reparameterize_spy)
    monkeypatch.setattr(tr, "rollout_poses", rollout_spy)
    return seen


def batch_loss(batch, model, s, cfg, batch_rows):
    with Tape() as tape:
        total, breakdown, n_total, n_teacher = tr._batch_loss(
            batch, model, s, cfg, np.random.default_rng([7, 1]), dropout_seed=11,
            batch_rows=batch_rows)
    model.params.zero_grad()
    tape.backward(total)
    return model.params.gradients(), breakdown, n_total, n_teacher


@pytest.mark.parametrize("s", [0, 10])
@pytest.mark.parametrize("n", [1, 3, 32])
def test_sharded_step_matches_the_unsharded_batch(skel, windows, monkeypatch, s, n):
    cfg = config(32)
    model = small_model(skel)
    rows = np.arange(n)[::-1] + 1
    seen = capture_noise(monkeypatch)
    grads, whole, n_total, n_teacher = batch_loss(windows[rows], model, s, cfg, (0, n))
    batch_noise = list(seen)
    w = windows.deltas.shape[1]

    shard_grads, parts, counts = [], [], [0, 0]
    for lo, hi in tr._shard_bounds(n):
        if hi == lo:
            continue
        seen.clear()
        g, part, *shard_counts = batch_loss(windows[rows[lo:hi]], model, s, cfg, (lo, n))
        # each shard draws its rows of the batch's noise, exactly
        assert len(seen) == len(batch_noise) == 1 + (s > 0)
        np.testing.assert_array_equal(seen[0], batch_noise[0][lo * w:hi * w])
        for latents, batch_latents in zip(seen[1:], batch_noise[1:]):
            assert latents.shape == (hi - lo, min(s, w - 1), model.spec.latent_dim)
            np.testing.assert_array_equal(latents, batch_latents[lo:hi])
        shard_grads.append(g)
        parts.append(part)
        counts = [c + k for c, k in zip(counts, shard_counts)]
    assert counts == [n_total, n_teacher]
    for field in ("rec", "kl", "joint", "total"):
        assert sum(getattr(p, field) for p in parts) == pytest.approx(
            getattr(whole, field), rel=1e-12)
    for name, g in grads.items():
        summed = sum(sg[name] for sg in shard_grads)
        assert np.abs(summed - g).max() <= 1e-12 * np.abs(g).max(), name


def per_step_batch_loss(windows, model, s, cfg, noise_rng, dropout_seed, batch_rows):
    """The training step composed op by op: every rollout step assembles
    its condition, decodes, integrates and scores its delta and the FK of
    its pose on its own. Returns (total, LossBreakdown floats)."""
    spec, store, skeleton = model.spec, model.params, model.skeleton
    b, w = windows.deltas.shape[:2]
    lo, n = batch_rows

    def step_loss(true_delta, pred_delta, pred_pose, targets):
        diff = pred_delta - true_delta
        jdiff = forward_kinematics(pred_pose, skeleton) - targets
        return ag.mean(diff * diff), ag.mean(jdiff * jdiff)

    deltas = windows.deltas.reshape(b * w, -1)
    conds = windows.conditions.reshape(b * w, -1)
    gauss = md.encode(spec, store, deltas, conds, (dropout_seed, (lo * w, n * w)))
    noise = noise_rng.standard_normal((n, w, spec.latent_dim))[lo:lo + b]
    z = nn.reparameterize(gauss, noise.reshape(b * w, -1))
    pred = md.decode(spec, store, z, conds, (dropout_seed + 1, (lo * w, n * w)))
    pred_pose = integrate_delta(windows.poses[:, :w].reshape(b * w, -1), pred)
    parts = [(*step_loss(deltas, pred, pred_pose, windows.targets.reshape(b * w, -1, 3)),
              b * w)]
    kl = ag.mean(nn.kl_divergence(gauss))
    s_eff = min(s, w - 1)
    start = w - s_eff
    cur_pose = windows.poses[:, start]
    prev_delta = windows.deltas[:, start - 1]
    goal = GoalSpec(windows.goal_position, windows.goal_frame)
    for j in range(start, w):
        cond, _ = assemble_condition(cur_pose, prev_delta, skeleton, goal,
                                     windows.start_frame - 1 + j,
                                     goal_heading=windows.goal_heading)
        zr = noise_rng.standard_normal((n, spec.latent_dim))[lo:lo + b]
        pred = md.decode(spec, store, zr, cond, (dropout_seed + 100 + j, (lo, n)))
        true = pose_delta(cur_pose, windows.poses[:, j + 1])
        cur_pose = integrate_delta(cur_pose, pred)
        parts.append((*step_loss(true, pred, cur_pose, windows.targets[:, j]), b))
        prev_delta = pred
    n_batch = n * (w + s_eff)
    rec = sum(r * (c / n_batch) for r, _, c in parts)
    joint = sum(jl * (c / n_batch) for _, jl, c in parts)
    total = rec + (cfg.alpha * b / n) * kl + joint
    return total, tr.LossBreakdown(rec, ag.value(kl) * b / n, joint, total).as_floats()


@pytest.mark.parametrize("s", [1, 10])
def test_closed_loop_step_matches_the_per_step_composition(skel, windows, s):
    # the rollout steps run through rollout_poses and are scored by one
    # pose-space loss; the per-step composition scored each delta, which
    # equals the pose error turned by the previous pose's yaw
    cfg = config(32)
    model = small_model(skel)
    assert model.spec.decoder.dropout > 0
    batch = windows[np.arange(32)]
    for lo, hi in [(0, 32), *tr._shard_bounds(32)]:
        rows = (lo, 32)
        model.params.zero_grad()
        with Tape() as tape:
            total, whole = per_step_batch_loss(batch[lo:hi], model, s, cfg,
                                               np.random.default_rng([7, 1]), 11, rows)
        tape.backward(total)
        expected = model.params.gradients()
        grads, breakdown, *_ = batch_loss(batch[lo:hi], model, s, cfg, rows)
        for field in ("rec", "kl", "joint", "total"):
            assert getattr(breakdown, field) == pytest.approx(getattr(whole, field),
                                                              rel=1e-12)
        for name, g in expected.items():
            assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


# an infinite goal heading divides inf by inf in geometry._safe_unit, in this
# process or in the forked worker
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("processes", [2, 1])
def test_numeric_fault_in_a_shard_names_its_epoch_and_batch(skel, windows, monkeypatch,
                                                            processes):
    cfg = config(32)
    monkeypatch.setattr(wk, "_process_count", lambda: processes)
    # the s=0 epoch's teacher-forced pass reads the conditions; only the
    # rollout steps of the s=10 epoch read the goal heading
    for epoch, field, at, fault in (
            (0, "conditions", 3, r"non-finite activation \(at enc layer 0\)"),
            (1, "goal_heading", slice(None), r"non-finite delta \(at rollout frame 1\)")):
        order = np.random.default_rng([cfg.seed, epoch, 0xC0FFEE]).permutation(len(windows))
        for row in (order[31], order[0]):     # in shard 1, then in shard 0
            values = getattr(windows, field).copy()
            values[row, at] = np.inf
            broken = dataclasses.replace(windows, **{field: values})
            adam = AdamState(1e-3, 1e-4, 4)
            with pytest.raises(NumericFault, match=rf"^epoch {epoch} batch 0: {fault}") as exc:
                tr.train_epoch(broken, small_model(skel), adam, epoch, cfg)
            assert exc.value.where == "train_epoch"
    # the worker, kept or replaced, still gives the in-process bytes
    after_faults = train_two_epochs(skel, windows, cfg)
    monkeypatch.setattr(wk, "_process_count", lambda: 1)
    assert after_faults == train_two_epochs(skel, windows, cfg)


shard_grads = tr._shard_grads


def dying(windows, model, cfg, epoch, bi, n, shard):
    """_shard_grads, but the process computing the second shard exits."""
    if shard[1]:
        os._exit(3)
    return shard_grads(windows, model, cfg, epoch, bi, n, shard)


def test_dead_worker_raises(skel, windows, monkeypatch):
    wk._stop_worker()     # the next sharded step forks a worker that runs this
    monkeypatch.setattr(tr, "_shard_grads", dying)
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    with pytest.raises(WorkerDiedError, match="exited with code 3"):
        tr.train_epoch(windows, small_model(skel), AdamState(1e-3, 1e-4, 4), 0, config(32))
    assert wk._worker is None


@pytest.mark.parametrize("processes", [2, 1])
def test_no_jobs_give_no_results(monkeypatch, fresh_worker, processes):
    monkeypatch.setattr(wk, "_process_count", lambda: processes)
    assert wk.run_split(tr._shard_grads, (), []) == []
    assert wk.run_split(tr._shard_grads, (), [], resident=object()) == []
    assert wk._worker is None


# a sharded training step, and a benchmark of two one-row chunks
TRAIN_STEP = ("from reachgen import dataset, training\n"
              "from reachgen.nn import AdamState\n"
              "corpus = dataset.generate_synthetic_corpus(dataset.SyntheticGenConfig(\n"
              "    seed=1, n_locomotion=2, n_reaching=1, n_walk_reach=0), skel)\n"
              "cfg = training.TrainConfig(window_len=8, batch_size=4)\n"
              "windows = training.build_training_windows(corpus, cfg, skel)\n"
              "training.train_epoch(windows, model, AdamState(1e-3, 1e-4, 9), 0, cfg)\n")
TWO_CHUNKS = ("from reachgen import evaluation\n"
              "evaluation.ROLLOUT_ROWS = 1\n"
              "cfg = evaluation.EvalConfig(n_angles=2, n_heights=1, n_distances=1,\n"
              "    n_initial_poses=1, samples_per_pair=1, duration=4)\n"
              "evaluation.run_benchmark(model, cfg, seed=0)\n")


@pytest.mark.parametrize("run", [TRAIN_STEP, TWO_CHUNKS], ids=["train", "evaluate"])
def test_no_worker_outlives_its_process(run):
    code = ("from reachgen import worker\n"
            "from reachgen.body import desk_skeleton\n"
            "from reachgen.model import fresh_model\n"
            "worker._process_count = lambda: 2\n"
            "skel = desk_skeleton()\n"
            "model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=0)\n"
            + run +
            "print(worker._worker[1].pid)\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    pid = int(out.stdout.split()[-1])
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        state = None
    assert state in (None, "Z"), f"worker {pid} still running (state {state})"
