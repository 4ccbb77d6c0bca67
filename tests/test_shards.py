"""The sharded training step: every batch is cut into TRAIN_SHARDS fixed row
shards, and the bits depend on that cut alone, never on whether a shard ran
in the worker process or in this one."""
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from reachgen import dataset as ds
from reachgen import nn
from reachgen import training as tr
from reachgen.autodiff import Tape
from reachgen.body import desk_skeleton
from reachgen.errors import NumericFault, WorkerDiedError
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
    moments = {name: (adam.m[name].tobytes(), adam.v[name].tobytes()) for name in adam.m}
    return losses, params, moments


@pytest.mark.parametrize("batch_size", [32, 3, 1])
def test_worker_and_in_process_give_the_same_bytes(skel, windows, monkeypatch, batch_size):
    # 33 windows: a partial last batch of 1 at batch size 32, whose first
    # shard is empty, 11 batches of 3 and 33 of 1
    cfg = config(batch_size)
    monkeypatch.setattr(tr, "_process_count", lambda: 2)
    in_worker = train_two_epochs(skel, windows, cfg)
    monkeypatch.setattr(tr, "_process_count", lambda: 1)
    in_process = train_two_epochs(skel, windows, cfg)
    assert in_worker == in_process


def test_bits_do_not_depend_on_the_blas_thread_count(skel, monkeypatch):
    # at desk size OpenBLAS rounds a 2-thread matmul differently from a
    # 1-thread one; each process runs a step with one thread, in process too
    calls = tr._blas_thread_calls()
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
            monkeypatch.setattr(tr, "_process_count", lambda: processes)
            model = fresh_model(skel, seed=1)
            adam = AdamState(1e-3, 1e-4, 4)
            for epoch in (0, cfg.ramp_epochs):     # s=0, then s=10
                tr.train_epoch(windows, model, adam, epoch, cfg)
            bits.append([model.params[name].data.tobytes() for name in model.params.names()])
            assert get() == 2
    finally:
        put(before)
    assert bits[0] == bits[1]


def test_shard_bounds_come_from_the_batch_size():
    assert tr.TRAIN_SHARDS == 2
    assert tr._shard_bounds(32) == [(0, 16), (16, 32)]
    assert tr._shard_bounds(3) == [(0, 1), (1, 3)]
    assert tr._shard_bounds(1) == [(0, 0), (0, 1)]


def test_shard_dropout_masks_are_rows_of_the_batch_masks():
    # integer weights and inputs and masks of 0 or 2 keep every product and
    # sum exact, so the outputs agree bit for bit exactly when the masks do
    cfg = nn.MlpConfig(in_dim=4, out_dim=3, hidden_dim=8, n_layers=3,
                       dropout=0.5, layer_norm=False)
    rng = np.random.default_rng(0)
    store = nn.ParameterStore()
    for i, (d_in, d_out) in enumerate(cfg.layer_dims()):
        store.add(f"net.w{i}", rng.integers(-3, 4, (d_in, d_out)).astype(float))
        store.add(f"net.b{i}", rng.integers(0, 3, d_out).astype(float))
    params = nn.mlp_params(cfg, store, "net")
    x = rng.integers(-2, 3, (7, 4)).astype(float)
    batch, _ = nn._mlp(cfg, params, x, False, train=True, dropout_seed=5)
    untrained, _ = nn._mlp(cfg, params, x, False)
    assert not np.array_equal(batch, untrained)
    for lo, hi in [(0, 3), (3, 7), (2, 5), (6, 7)]:
        shard, _ = nn._mlp(cfg, params, x[lo:hi], False, train=True, dropout_seed=5,
                           dropout_rows=(lo, 7))
        np.testing.assert_array_equal(shard, batch[lo:hi])


def capture_noise(monkeypatch):
    """The noise each reparameterisation and each rollout step's decode
    receive, in call order."""
    seen = []
    reparameterize, decode = tr.reparameterize, tr.decode

    def reparameterize_spy(gauss, noise):
        seen.append(noise.reshape(-1, noise.shape[-1]))
        return reparameterize(gauss, noise)

    def decode_spy(spec, store, z, cond, **kwargs):
        if not hasattr(z, "requires_grad"):    # a rollout step's drawn latent
            seen.append(z)
        return decode(spec, store, z, cond, **kwargs)

    monkeypatch.setattr(tr, "reparameterize", reparameterize_spy)
    monkeypatch.setattr(tr, "decode", decode_spy)
    return seen


def batch_loss(batch, model, s, cfg, batch_rows=None):
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
    grads, whole, n_total, n_teacher = batch_loss(windows[rows], model, s, cfg)
    batch_noise = list(seen)
    w = windows.deltas.shape[1]

    shard_grads, parts, counts = [], [], [0, 0]
    for lo, hi in tr._shard_bounds(n):
        if hi == lo:
            continue
        seen.clear()
        shard = tr._shard_windows(windows, rows[lo:hi], s > 0)
        g, part, *shard_counts = batch_loss(shard, model, s, cfg, (lo, n))
        # each shard draws its rows of the batch's noise, exactly
        assert len(seen) == len(batch_noise) == 1 + min(s, w - 1)
        np.testing.assert_array_equal(seen[0], batch_noise[0][lo * w:hi * w])
        for step, batch_step in zip(seen[1:], batch_noise[1:]):
            np.testing.assert_array_equal(step, batch_step[lo:hi])
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


@pytest.mark.parametrize("processes", [2, 1])
def test_numeric_fault_in_a_shard_names_its_epoch_and_batch(skel, windows, monkeypatch,
                                                            processes):
    cfg = config(32)
    monkeypatch.setattr(tr, "_process_count", lambda: processes)
    order = np.random.default_rng([cfg.seed, 0, 0xC0FFEE]).permutation(len(windows))
    for row in (order[31], order[0]):     # in shard 1, then in shard 0
        conditions = windows.conditions.copy()
        conditions[row, 3] = np.inf
        broken = dataclasses.replace(windows, conditions=conditions)
        with pytest.raises(NumericFault, match=r"^epoch 0 batch 0: non-finite "
                                               r"activation \(at enc layer 0\)") as exc:
            tr.train_epoch(broken, small_model(skel), AdamState(1e-3, 1e-4, 4), 0, cfg)
        assert exc.value.where == "train_epoch"
    # the worker, kept or replaced, still gives the in-process bytes
    after_faults = train_two_epochs(skel, windows, cfg)
    monkeypatch.setattr(tr, "_process_count", lambda: 1)
    assert after_faults == train_two_epochs(skel, windows, cfg)


def test_dead_worker_raises(skel, windows, monkeypatch):
    tr._stop_worker()     # the next sharded step forks a worker that runs this
    shard_grads = tr._shard_grads

    def dying(shard, model, cfg, epoch, bi, batch_rows):
        if batch_rows[0]:
            os._exit(3)
        return shard_grads(shard, model, cfg, epoch, bi, batch_rows)

    monkeypatch.setattr(tr, "_shard_grads", dying)
    monkeypatch.setattr(tr, "_process_count", lambda: 2)
    with pytest.raises(WorkerDiedError, match="exited with code 3"):
        tr.train_epoch(windows, small_model(skel), AdamState(1e-3, 1e-4, 4), 0, config(32))
    assert tr._worker is None


def test_no_worker_outlives_its_process():
    code = ("import numpy as np\n"
            "from reachgen import dataset, training\n"
            "from reachgen.body import desk_skeleton\n"
            "from reachgen.model import fresh_model\n"
            "from reachgen.nn import AdamState\n"
            "training._process_count = lambda: 2\n"
            "skel = desk_skeleton()\n"
            "corpus = dataset.generate_synthetic_corpus(dataset.SyntheticGenConfig(\n"
            "    seed=1, n_locomotion=2, n_reaching=1, n_walk_reach=0), skel)\n"
            "cfg = training.TrainConfig(window_len=8, batch_size=4)\n"
            "windows = training.build_training_windows(corpus, cfg, skel)\n"
            "model = fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2)\n"
            "training.train_epoch(windows, model, AdamState(1e-3, 1e-4, 9), 0, cfg)\n"
            "print(training._worker[1].pid)\n")
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
