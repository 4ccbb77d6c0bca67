"""MLP with layer-norm/relu/dropout, Adam with linear lr decay, Gaussian
reparameterization and the closed-form KL to the unit normal. 64-bit floats
throughout so finite-difference gradient checks have headroom.

Dropout is one argument, `dropout=None | (seed, (lo, n))`, with no default:
every mask is drawn from a seed, so equal calls give equal bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ag
from .autodiff import Tensor
from .errors import DimensionMismatchError, NumericFault, check_count, check_fraction

LOG_STD_MIN = -8.0
LOG_STD_MAX = 4.0
LAYER_NORM_EPS = 1e-5
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class ParameterStore:
    """Named float64 leaf tensors with deterministic iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Zero arrays stand in for parameters untouched by the tape."""
        return {
            name: (np.zeros_like(t.data) if t.grad is None else t.grad)
            for name, t in self._params.items()
        }

    def flat_gradient(self) -> np.ndarray:
        """gradients() as one float64 vector in names() order, the form
        adam_step takes."""
        return np.concatenate([g.ravel() for g in self.gradients().values()])

    def copy(self) -> "ParameterStore":
        fresh = ParameterStore()
        for name, t in self._params.items():
            fresh.add(name, t.data.copy())
        return fresh


@dataclass(frozen=True)
class MlpConfig:
    in_dim: int
    out_dim: int
    hidden_dim: int
    n_layers: int                # number of affine layers
    dropout: float

    def __post_init__(self):
        check_count("hidden_dim", self.hidden_dim)
        check_count("n_layers", self.n_layers)
        check_fraction("dropout", self.dropout)

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.in_dim] + [self.hidden_dim] * (self.n_layers - 1) + [self.out_dim]
        return list(zip(dims[:-1], dims[1:]))


def init_mlp_params(cfg: MlpConfig, store: ParameterStore, prefix: str,
                    rng: np.random.Generator) -> None:
    """He init for hidden layers, each followed by a unit-gain layer norm;
    the output layer starts 10x smaller so initial predictions sit near zero
    (regression targets are small)."""
    dims = cfg.layer_dims()
    for i, (d_in, d_out) in enumerate(dims):
        last = i == len(dims) - 1
        scale = 0.1 * np.sqrt(1.0 / d_in) if last else np.sqrt(2.0 / d_in)
        store.add(f"{prefix}.w{i}", rng.normal(scale=scale, size=(d_in, d_out)))
        store.add(f"{prefix}.b{i}", np.zeros(d_out))
        if not last:
            store.add(f"{prefix}.ln_g{i}", np.ones(d_out))
            store.add(f"{prefix}.ln_b{i}", np.zeros(d_out))


def mlp_forward(cfg: MlpConfig, store: ParameterStore, x, prefix: str,
                dropout: tuple[int, tuple[int, int]] | None):
    """Forward pass: per layer affine -> layer-norm -> relu -> dropout
    (inverted scaling); final layer affine only.

    x is (..., in_dim), plain array or Tensor. The whole network is one
    fused op: it records one tape node whose VJP runs back through every
    layer; while no parameter requires a gradient (latent refinement
    freezes the model), it runs only the input path and gives the
    parameters None. `dropout` is None or (seed, rows), as `_mlp` takes it.
    Raises NumericFault naming the first layer whose activations went
    non-finite: only the output is checked on every call, and the layer
    inputs are scanned once it is non-finite.
    """
    params = mlp_params(store, prefix)
    inputs = []
    out, vjp = _mlp(cfg, params, ag.value(x), isinstance(x, Tensor) and x.requires_grad,
                    dropout, inputs)
    if not np.isfinite(out).all():
        bad = next((i for i in range(cfg.n_layers - 1)
                    if not np.isfinite(inputs[i + 1]).all()), cfg.n_layers - 1)
        raise NumericFault("non-finite activation", where=f"{prefix} layer {bad}")
    return ag.record(out, (x, *params), vjp)


def mlp_params(store: ParameterStore, prefix: str) -> list:
    """The network's parameters in the order of mlp_forward's inputs, which
    is the order init_mlp_params adds them: per layer the weight and bias,
    then the layer norm's gain and offset."""
    return [t for name, t in store.items() if name.startswith(prefix + ".")]


def _mlp(cfg: MlpConfig, params: list, xd, wants_input_grad: bool,
         dropout: tuple[int, tuple[int, int]] | None, inputs: list | None = None):
    """(out, vjp) of mlp_forward on a plain input, with `params` from
    mlp_params; vjp(g) returns the gradients of (x, *params), None for the
    input unless `wants_input_grad`. A non-finite activation runs on to the
    output quietly; `inputs`, when given, receives each layer's input.

    `dropout` is None (no dropout) or (seed, (lo, n)): the input's rows
    are rows lo.. of an n-row batch, and each layer's dropout mask is those
    rows of the mask the seed draws for the whole batch, so a row's mask
    does not depend on how the batch is cut. The draw takes one PCG64
    output per element, so skipping the other rows is an `advance`.
    """
    if xd.shape[-1] != cfg.in_dim:
        raise DimensionMismatchError(
            f"input dim {xd.shape[-1]}, config expects {cfg.in_dim}")
    dropout_rng = None
    if dropout is not None and cfg.dropout > 0.0:
        dropout_seed, (lo, rows) = dropout
        dropout_rng = np.random.default_rng(dropout_seed)
    keep = 1.0 - cfg.dropout
    n = cfg.n_layers
    layers = []     # per layer: (input, pre-relu, xhat, std, dropout mask)
    h = xd
    k = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(n):
            w = params[k].data
            b = params[k + 1].data
            k += 2
            h_in = h
            # a 1-D h is multiplied as a (1, d) matrix: BLAS may round a
            # vector-matrix product differently, and rollout bits rest on this
            if h.ndim == 1:
                h = (h.reshape(1, -1) @ w).reshape(-1)
            else:
                h = h @ w
            h += b
            pre = xhat = std = mask = None
            if i < n - 1:
                h, xhat, std = _layer_norm(h, params[k].data, params[k + 1].data)
                k += 2
                pre = h
                h = np.maximum(pre, 0.0)
                if dropout_rng is not None:
                    dropout_rng.bit_generator.advance(lo * h.shape[-1])
                    mask = (dropout_rng.random(h.shape) < keep) / keep
                    dropout_rng.bit_generator.advance((rows - lo) * h.shape[-1] - h.size)
                    h *= mask
            layers.append((h_in, pre, xhat, std, mask))
    if inputs is not None:
        inputs += [layer[0] for layer in layers]
    wants_param_grads = any(p.requires_grad for p in params)

    def vjp(g):
        grads = []
        k = len(params)
        for i in reversed(range(n)):
            h_in, pre, xhat, std, mask = layers[i]
            if pre is not None:
                if mask is not None:
                    g = g * mask
                g = g * (pre > 0.0)
                k -= 2
                if wants_param_grads:
                    lead = tuple(range(g.ndim - 1))
                    grads += (g.sum(axis=lead), (g * xhat).sum(axis=lead))
                g = _layer_norm_vjp(g, xhat, std, params[k].data)
            k -= 2
            if wants_param_grads:
                g2 = g.reshape(-1, g.shape[-1])
                grads += (g2.sum(axis=0), h_in.reshape(-1, h_in.shape[-1]).T @ g2)
            if i or wants_input_grad:
                g = g @ params[k].data.T
        if not wants_param_grads:
            grads = [None] * len(params)
        grads.append(g if wants_input_grad else None)
        return grads[::-1]

    return h, vjp


def _layer_norm(xd, gain, offset):
    """(out, xhat, std): (x - mean) / sqrt(var + eps) * gain + offset over
    the last axis, with what its VJP reads. The full-size temporaries are
    written in place into arrays allocated here, never into `xd`."""
    inv_n = 1.0 / xd.shape[-1]
    xhat = xd - xd.sum(axis=-1, keepdims=True) * inv_n
    out = xhat * xhat
    std = np.sqrt(out.sum(axis=-1, keepdims=True) * inv_n + LAYER_NORM_EPS)
    xhat /= std
    np.multiply(xhat, gain, out)
    out += offset
    return out, xhat, std


def _layer_norm_vjp(g, xhat, std, gain):
    """Gradient of the layer norm's input; its gain's is (g * xhat) and its
    offset's g, each summed over the leading axes. The full-size
    temporaries are written in place into arrays allocated here, never into
    `g` or `xhat`."""
    inv_n = 1.0 / g.shape[-1]
    gx = g * gain
    gxx = gx * xhat
    mean_gx = gx.sum(axis=-1, keepdims=True) * inv_n
    mean_gxx = gxx.sum(axis=-1, keepdims=True) * inv_n
    gx -= mean_gx
    np.multiply(xhat, mean_gxx, gxx)
    gx -= gxx
    gx /= std
    return gx


@dataclass
class GaussianParams:
    """mean and log-std vectors; log-std clamped to [-8, 4] at creation."""

    mean: object
    log_std: object

    @classmethod
    def from_stacked(cls, out):
        """Split an encoder output of length 2K into mean and clamped log-std."""
        k = ag.value(out).shape[-1] // 2
        return cls(out[..., :k], ag.clip(out[..., k:], LOG_STD_MIN, LOG_STD_MAX))


def reparameterize(g: GaussianParams, noise):
    """z = mean + exp(log_std) * noise, differentiable in both parameters."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape[-1] != ag.value(g.mean).shape[-1]:
        raise DimensionMismatchError("noise length does not match Gaussian dim")
    return g.mean + ag.exp(g.log_std) * noise


def kl_divergence(g: GaussianParams):
    """KL(N(mu, sigma) || N(0, I)) = sum 0.5(mu^2 + sigma^2 - 1) - log sigma,
    the encoded Gaussian against the unit normal, summed over dims."""
    mu, ls = g.mean, g.log_std
    sig2 = ag.exp(ls * 2.0)
    per = 0.5 * (mu * mu + sig2 - 1.0) - ls
    return ag.sum(per, axis=-1)


@dataclass
class AdamState:
    """Adam moments plus a linear lr schedule from lr_base to lr_final.

    `m` and `v` are flat float64 vectors over the store's parameters in
    names() order, as adam_step's gradient is; None before the first step.
    """

    lr_base: float
    lr_final: float
    total_steps: int
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)

    def lr_at(self, step: int) -> float:
        if self.total_steps <= 0:
            return self.lr_base
        if step >= self.total_steps:
            return self.lr_final
        frac = step / self.total_steps
        return self.lr_base * (1.0 - frac) + self.lr_final * frac


def adam_step(state: AdamState, store: ParameterStore, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of the store's parameters as one flat
    vector in names() order, `grad` being the gradient in that layout
    (ParameterStore.flat_gradient). Each parameter's data becomes its slice
    of the updated vector. The update is elementwise, so every parameter
    gets the bits a per-parameter update gives it."""
    params = [t for _, t in store.items()]
    theta = np.concatenate([t.data.ravel() for t in params])
    if grad.shape != theta.shape or (state.m is not None
                                     and state.m.shape != theta.shape):
        raise DimensionMismatchError(
            f"gradient of shape {grad.shape} and moments of "
            f"{None if state.m is None else state.m.shape} for "
            f"{theta.size} parameter values")
    if not np.all(np.isfinite(grad)):
        raise NumericFault("non-finite gradient", where="adam_step")
    lr = state.lr_at(state.step)
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETAS
    m = np.zeros_like(theta) if state.m is None else state.m
    v = np.zeros_like(theta) if state.v is None else state.v
    state.m = m = b1 * m + (1.0 - b1) * grad
    state.v = v = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    lo = 0
    for param in params:
        hi = lo + param.data.size
        param.data = theta[lo:hi].reshape(param.data.shape)
        lo = hi
