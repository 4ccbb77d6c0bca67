import numpy as np
import pytest

from reachgen import autodiff as ag
from reachgen import nn
from reachgen.autodiff import Tape, Tensor
from reachgen.body import desk_skeleton
from reachgen.errors import DimensionMismatchError, NumericFault
from reachgen.model import fresh_model


def make_mlp(cfg, seed=0):
    store = nn.ParameterStore()
    nn.init_mlp_params(cfg, store, "net", np.random.default_rng(seed))
    return store


def test_one_layer_identity_relu_shape():
    # final layer is affine only, so use a 2-layer net to exercise relu; the
    # layer norm takes (-1, 1), of variance 1, to (-1, 1) / sqrt(1 + eps)
    cfg = nn.MlpConfig(in_dim=2, out_dim=2, hidden_dim=2, n_layers=2, dropout=0.0)
    store = nn.ParameterStore()
    store.add("net.w0", np.eye(2))
    store.add("net.b0", np.zeros(2))
    store.add("net.ln_g0", np.ones(2))
    store.add("net.ln_b0", np.zeros(2))
    store.add("net.w1", np.eye(2))
    store.add("net.b1", np.zeros(2))
    out = nn.mlp_forward(cfg, store, np.array([-1.0, 1.0]), "net", None)
    np.testing.assert_array_equal(out, [0.0, 1.0 / np.sqrt(1.0 + nn.LAYER_NORM_EPS)])


def test_dropout_rate_zero_train_equals_eval():
    cfg = nn.MlpConfig(in_dim=3, out_dim=2, hidden_dim=8, n_layers=3, dropout=0.0)
    store = make_mlp(cfg, seed=1)
    x = np.array([0.3, -0.4, 1.0])
    a = nn.mlp_forward(cfg, store, x, "net", (7, (0, 1)))
    b = nn.mlp_forward(cfg, store, x, "net", None)
    np.testing.assert_array_equal(a, b)


def test_dropout_mask_deterministic_per_seed():
    # dropout is a (seed, rows) argument, so two equal calls give equal bits
    cfg = nn.MlpConfig(in_dim=4, out_dim=4, hidden_dim=32, n_layers=3, dropout=0.5)
    store = make_mlp(cfg, seed=2)
    for x in (np.ones(4), np.ones((3, 4))):
        rows = (0, x.size // 4)
        a = nn.mlp_forward(cfg, store, x, "net", (123, rows))
        b = nn.mlp_forward(cfg, store, x, "net", (123, rows))
        c = nn.mlp_forward(cfg, store, x, "net", (124, rows))
        assert a.tobytes() == b.tobytes()
        assert np.any(a != c)


def test_eval_forward_is_pure_function():
    cfg = nn.MlpConfig(in_dim=5, out_dim=3, hidden_dim=16, n_layers=4, dropout=0.3)
    store = make_mlp(cfg, seed=3)
    x = np.random.default_rng(0).normal(size=(7, 5))
    a = nn.mlp_forward(cfg, store, x, "net", None)
    b = nn.mlp_forward(cfg, store, x, "net", None)
    np.testing.assert_array_equal(a, b)


def test_numeric_fault_carries_layer_index():
    cfg = nn.MlpConfig(in_dim=2, out_dim=2, hidden_dim=2, n_layers=2, dropout=0.0)
    store = nn.ParameterStore()
    store.add("net.w0", np.array([[np.inf, 0.0], [0.0, 1.0]]))
    store.add("net.b0", np.zeros(2))
    store.add("net.ln_g0", np.ones(2))
    store.add("net.ln_b0", np.zeros(2))
    store.add("net.w1", np.eye(2))
    store.add("net.b1", np.zeros(2))
    with pytest.raises(NumericFault) as exc:
        nn.mlp_forward(cfg, store, np.ones(2), "net", None)
    assert "layer 0" in str(exc.value)


def test_mlp_gradients_match_finite_differences():
    cfg = nn.MlpConfig(in_dim=4, out_dim=3, hidden_dim=6, n_layers=3, dropout=0.0)
    store = make_mlp(cfg, seed=4)
    x0 = np.random.default_rng(5).normal(size=(2, 4))
    w = np.random.default_rng(6).normal(size=(2, 3))

    store.zero_grad()
    with Tape() as tape:
        out = nn.mlp_forward(cfg, store, x0, "net", None)
        loss = ag.sum(out * w)
    tape.backward(loss)
    grads = store.gradients()

    for name, param in store.items():
        base = param.data.copy()

        def f(v, name=name, param=param, base=base):
            param.data = v
            out = nn.mlp_forward(cfg, store, x0, "net", None)
            param.data = base
            return np.sum(ag.value(out) * w)

        fd = ag.finite_difference_gradient(f, base.copy())
        rel = np.abs(grads[name] - fd) / np.maximum(np.abs(fd), 1e-6)
        assert np.max(rel) < 1e-4, name


def test_reparameterize_trivial_cases():
    g = nn.GaussianParams(np.array([1.0, -2.0]), np.array([0.3, -0.7]))
    np.testing.assert_array_equal(nn.reparameterize(g, np.zeros(2)), g.mean)
    g0 = nn.GaussianParams(np.zeros(3), np.zeros(3))
    noise = np.array([0.5, -1.0, 2.0])
    np.testing.assert_array_equal(nn.reparameterize(g0, noise), noise)


def test_reparameterize_empirical_std():
    rng = np.random.default_rng(7)
    log_std = np.array([0.25])
    g = nn.GaussianParams(np.zeros(1), log_std)
    draws = np.array([ag.value(nn.reparameterize(g, rng.standard_normal(1)))
                      for _ in range(0)])
    # vectorized: z = exp(log_std) * noise
    noise = rng.standard_normal(1_000_000)
    z = np.exp(log_std[0]) * noise
    assert abs(np.std(z) - np.exp(log_std[0])) / np.exp(log_std[0]) < 0.01


def test_kl_trivial_and_closed_form_values():
    zero = nn.GaussianParams(np.zeros(1), np.zeros(1))
    assert nn.kl_divergence(zero) == 0.0

    unit_mean = nn.GaussianParams(np.array([1.0]), np.zeros(1))
    np.testing.assert_allclose(nn.kl_divergence(unit_mean), 0.5)

    wide = nn.GaussianParams(np.zeros(1), np.array([np.log(2.0)]))
    np.testing.assert_allclose(nn.kl_divergence(wide), 1.5 - np.log(2.0))


def test_kl_nonnegative_and_zero_iff_unit():
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = nn.GaussianParams(rng.normal(size=4), rng.normal(scale=0.5, size=4))
        assert nn.kl_divergence(g) >= 0.0


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(9)
    n = 1_000_000
    for _ in range(5):
        mu = rng.normal(scale=0.8)
        ls = rng.normal(scale=0.4)
        sig = np.exp(ls)
        g = nn.GaussianParams(np.array([mu]), np.array([ls]))
        # standard: E_{z~N(mu,sig)}[log q(z) - log p(z)]
        z = mu + sig * rng.standard_normal(n)
        log_q = -0.5 * ((z - mu) / sig) ** 2 - np.log(sig) - 0.5 * np.log(2 * np.pi)
        log_p = -0.5 * z ** 2 - 0.5 * np.log(2 * np.pi)
        mc = np.mean(log_q - log_p)
        closed = float(ag.value(nn.kl_divergence(g)))
        assert abs(closed - mc) <= 0.01 * max(abs(closed), 0.05)


def test_adam_zero_gradient_keeps_parameters_increments_step():
    store = nn.ParameterStore()
    store.add("p", np.array([1.0, 2.0]))
    state = nn.AdamState(lr_base=1e-2, lr_final=1e-3, total_steps=10)
    nn.adam_step(state, store, np.zeros(2))
    np.testing.assert_array_equal(store["p"].data, [1.0, 2.0])
    assert state.step == 1


def test_adam_first_step_hand_computed():
    # constant gradient 1 from zero: bias-corrected m_hat = 1, v_hat = 1
    # so the step is -lr / (1 + eps)
    store = nn.ParameterStore()
    store.add("p", np.array([0.0]))
    state = nn.AdamState(lr_base=1e-2, lr_final=1e-2, total_steps=100)
    nn.adam_step(state, store, np.array([1.0]))
    expected = -1e-2 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(store["p"].data, [expected], rtol=1e-12)


def test_adam_lr_schedule_endpoints():
    state = nn.AdamState(lr_base=1e-4, lr_final=1e-5, total_steps=1000)
    assert state.lr_at(0) == 1e-4
    assert state.lr_at(1000) == 1e-5
    assert state.lr_at(2000) == 1e-5
    mid = state.lr_at(500)
    np.testing.assert_allclose(mid, (1e-4 + 1e-5) / 2)


def test_adam_rejects_nonfinite_gradient():
    store = nn.ParameterStore()
    store.add("p", np.zeros(1))
    state = nn.AdamState(1e-3, 1e-4, 10)
    with pytest.raises(NumericFault):
        nn.adam_step(state, store, np.array([np.nan]))


def per_parameter_adam(state, store, grads, moments):
    """The per-parameter Adam that the flat adam_step replaced; `moments`
    maps each parameter's name to its (m, v)."""
    lr = state.lr_at(state.step)
    state.step += 1
    t = state.step
    b1, b2 = nn.ADAM_BETAS
    for name, param in store.items():
        g = grads[name]
        m, v = moments.get(name, (np.zeros_like(param.data), np.zeros_like(param.data)))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        moments[name] = (m, v)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)


@pytest.mark.parametrize("case", ["desk-model", "latents"])
def test_flat_adam_matches_per_parameter_adam_bit_for_bit(case):
    # the desk model's 28 parameter shapes, one left without a gradient, and
    # latent refinement's one-parameter store
    rng = np.random.default_rng(44)
    if case == "desk-model":
        store = fresh_model(desk_skeleton(), seed=3).params
        assert len(store) == 28
    else:
        store = nn.ParameterStore()
        store.add("latents", rng.normal(size=(90, 16)))
    ref_store = store.copy()
    state, ref_state = (nn.AdamState(1e-2, 1e-3, total_steps=5) for _ in range(2))
    moments = {}
    for _ in range(5):
        for name, p in list(store.items())[:len(store) - (case == "desk-model")]:
            p.grad = rng.normal(size=p.data.shape) * rng.choice([1e-6, 1.0, 1e3])
        nn.adam_step(state, store, store.flat_gradient())
        per_parameter_adam(ref_state, ref_store, store.gradients(), moments)
        for name in store.names():
            assert store[name].data.tobytes() == ref_store[name].data.tobytes(), name
    assert state.step == ref_state.step == 5
    m, v = (np.concatenate([moments[name][k].ravel() for name in store.names()])
            for k in (0, 1))
    assert (state.m.tobytes(), state.v.tobytes()) == (m.tobytes(), v.tobytes())


def test_adam_rejects_a_store_whose_size_changed():
    store = nn.ParameterStore()
    store.add("p", np.zeros(3))
    state = nn.AdamState(1e-3, 1e-4, 10)
    nn.adam_step(state, store, np.ones(3))
    with pytest.raises(DimensionMismatchError):
        nn.adam_step(state, store, np.ones(4))     # a gradient of the wrong size
    store.add("q", np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        nn.adam_step(state, store, np.ones(5))     # moments of the old size
    assert state.step == 1
    np.testing.assert_array_equal(store["q"].data, np.zeros(2))


def test_gaussian_from_stacked_clamps_log_std():
    out = np.array([0.5, -0.5, 10.0, -20.0])
    g = nn.GaussianParams.from_stacked(out)
    np.testing.assert_array_equal(ag.value(g.mean), [0.5, -0.5])
    np.testing.assert_array_equal(ag.value(g.log_std), [4.0, -8.0])


def test_parameter_store_deterministic_order_and_copy():
    store = nn.ParameterStore()
    store.add("b", np.zeros(2))
    store.add("a", np.ones(3))
    assert store.names() == ["b", "a"]
    dup = store.copy()
    assert dup.names() == ["b", "a"]
    dup["a"].data[0] = 99.0
    assert store["a"].data[0] == 1.0


# ------------------------------------------------------------- fused MLP

def ref_layer_norm(x, gain, offset):
    """The elementary-op composition of a layer norm, run tape-free."""
    inv_n = 1.0 / np.shape(x)[-1]
    centered = x - ag.sum(x, axis=-1)[..., None] * inv_n
    var = ag.sum(centered * centered, axis=-1)[..., None] * inv_n
    return centered / np.sqrt(var + nn.LAYER_NORM_EPS) * gain + offset


def ref_affine(h, w, b):
    """The elementary-op composition of an affine layer, run tape-free; a
    1-D input goes through matmul as a (1, d) matrix."""
    if np.ndim(h) == 1:
        return (np.reshape(h, (1, -1)) @ w.data).reshape(-1) + b
    return h @ w.data + b


def ref_relu(h):
    """np.maximum on plain arrays; a multiply by the positive mask under the
    tape, as the relu op did."""
    if isinstance(h, Tensor):
        return h * (h.data > 0.0)
    return np.maximum(h, 0.0)


def ref_mlp(cfg, store, x, dropout_seed, prefix="net"):
    """The per-layer elementary-op composition `nn.mlp_forward` replaced;
    with a `dropout_seed`, each layer's mask is drawn for the whole input."""
    rng = (np.random.default_rng(dropout_seed)
           if dropout_seed is not None and cfg.dropout > 0.0 else None)
    h = x
    for i in range(cfg.n_layers):
        h = ref_affine(h, store[f"{prefix}.w{i}"], store[f"{prefix}.b{i}"])
        if i < cfg.n_layers - 1:
            h = ref_layer_norm(h, store[f"{prefix}.ln_g{i}"], store[f"{prefix}.ln_b{i}"])
            h = ref_relu(h)
            if rng is not None:
                keep = 1.0 - cfg.dropout
                h = h * ((rng.random(ag.value(h).shape) < keep) / keep)
    return h


def ref_layer_norm_vjp(g, xhat, std, gain):
    """The layer norm's input gradient as one expression, run tape-free."""
    inv_n = 1.0 / g.shape[-1]
    gx = g * gain
    return (gx - gx.sum(axis=-1, keepdims=True) * inv_n
            - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) * inv_n)) / std


def test_layer_norm_writes_only_into_arrays_it_allocated():
    rng = np.random.default_rng(45)
    gain, offset = rng.normal(size=6), rng.normal(size=6)
    for lead in ((), (1,), (4,), (2, 3)):
        x = rng.normal(size=lead + (6,)) * 3.0
        g = rng.normal(size=x.shape)
        x0, g0 = x.copy(), g.copy()
        out, xhat, std = nn._layer_norm(x, gain, offset)
        xhat0 = xhat.copy()
        assert out.tobytes() == ref_layer_norm(x, gain, offset).tobytes(), lead
        grad = nn._layer_norm_vjp(g, xhat, std, gain)
        assert grad.tobytes() == ref_layer_norm_vjp(g, xhat, std, gain).tobytes(), lead
        for kept, before in ((x, x0), (g, g0), (xhat, xhat0)):
            assert kept.tobytes() == before.tobytes(), lead
        assert not np.shares_memory(out, xhat) and not np.shares_memory(grad, xhat)


def mlp_case(seed, dropout):
    cfg = nn.MlpConfig(in_dim=8, out_dim=5, hidden_dim=6, n_layers=3, dropout=dropout)
    store = make_mlp(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, p in store.items():    # move the gains and offsets off 1 and 0
        p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
    return cfg, store


def test_fused_affine_and_layer_norm_forward_bits():
    """The fused MLP (affine, layer norm, relu and dropout per layer) has
    the bits of the elementary composition."""
    rng = np.random.default_rng(40)
    for dropout in (0.0, 0.4):
        cfg, store = mlp_case(40, dropout)
        for lead in ((), (1,), (3,), (2, 3)):
            x = rng.normal(size=lead + (8,)) * 2.0
            for seed in (None, 7):
                out = nn.mlp_forward(cfg, store, x, "net",
                                     None if seed is None else (seed, (0, x.size // 8)))
                expected = ref_mlp(cfg, store, x, seed)
                assert out.shape == expected.shape == lead + (5,)
                assert out.tobytes() == expected.tobytes(), (dropout, lead, seed)


def test_fused_affine_and_layer_norm_gradients():
    """One tape node for the whole MLP, and a VJP that matches finite
    differences for the input and every parameter."""
    rng = np.random.default_rng(41)
    for dropout in (0.0, 0.4):
        cfg, store = mlp_case(41, dropout)
        for lead in ((), (3,), (2, 3)):
            x0 = rng.normal(size=lead + (8,))
            weights = rng.normal(size=lead + (5,))

            def loss(x):
                out = nn.mlp_forward(cfg, store, x, "net", (3, (0, x.size // 8)))
                return np.sum(ag.value(out) * weights)

            store.zero_grad()
            x = Tensor(x0, requires_grad=True)
            with Tape() as tape:
                out = nn.mlp_forward(cfg, store, x, "net", (3, (0, x0.size // 8)))
                assert len(tape) == 1
                total = ag.sum(out * weights)
            tape.backward(total)
            fd = ag.finite_difference_gradient(loss, x0.copy(), h=1e-6)
            np.testing.assert_allclose(x.grad, fd, rtol=1e-5, atol=1e-8,
                                       err_msg=f"input, lead {lead}")
            for name, param in store.items():
                base = param.data.copy()

                def f(v, param=param, base=base):
                    param.data = v
                    try:
                        return loss(x0)
                    finally:
                        param.data = base

                fd = ag.finite_difference_gradient(f, base.copy(), h=1e-6)
                np.testing.assert_allclose(param.grad, fd, rtol=1e-5, atol=1e-8,
                                           err_msg=f"{name}, lead {lead}")


def test_frozen_parameters_keep_the_input_gradient_bits():
    """With every parameter's requires_grad off, the VJP runs only the input
    path: the input gradient has the unfrozen bits and no parameter gets a
    gradient."""
    rng = np.random.default_rng(42)
    cfg, store = mlp_case(42, 0.0)
    for lead in ((), (3,)):
        x0 = rng.normal(size=lead + (8,))
        weights = rng.normal(size=lead + (5,))
        grads = []
        for frozen in (False, True):
            store.zero_grad()
            for _, p in store.items():
                p.requires_grad = not frozen
            x = Tensor(x0, requires_grad=True)
            with Tape() as tape:
                total = ag.sum(nn.mlp_forward(cfg, store, x, "net", None) * weights)
            tape.backward(total)
            grads.append(x.grad.tobytes())
            assert all((p.grad is None) == frozen for _, p in store.items())
        assert grads[0] == grads[1], lead


def test_plain_input_gets_no_gradient_but_parameters_do():
    """The VJP skips the input's gradient when the input is a plain array;
    the parameter gradients keep their bits."""
    cfg, store = mlp_case(42, 0.0)
    x = np.random.default_rng(42).normal(size=(4, 8))
    grads = []
    for inp in (x, Tensor(x, requires_grad=True)):
        store.zero_grad()
        with Tape() as tape:
            total = ag.sum(nn.mlp_forward(cfg, store, inp, "net", None))
        tape.backward(total)
        grads.append({name: p.grad.tobytes() for name, p in store.items()})
    assert grads[0] == grads[1]
    assert inp.grad is not None


def test_nan_in_a_middle_layer_is_named():
    cfg, store = mlp_case(43, 0.0)
    store["net.b1"].data[2] = np.nan
    with pytest.raises(NumericFault) as exc:
        nn.mlp_forward(cfg, store, np.ones((2, 8)), "net", None)
    assert exc.value.where == "net layer 1"
