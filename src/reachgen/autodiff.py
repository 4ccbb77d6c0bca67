"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every op here accepts either plain ndarrays (fast path, no recording) or
Tensor objects. When a Tape is active and an input requires gradients, the op
records a node with a vector-Jacobian closure; Tape.backward walks the nodes
in reverse creation order (creation order is already topological).

The elementary ops are add, subtract and multiply (also through Tensor's
`+`, `-` and `*`, with a Tensor on the left of `-`), exp, clip, take
(indexing), sum, mean and concatenate. Fused ops elsewhere in the package
(FK, a joint read, a pose delta and its integration, the whole MLP, the
condition vector, a rollout frame) compute their forward in plain numpy and
call `record` once with a hand-written VJP, so each records one node however
many array operations it runs. A Tensor has no unary `-`, `/` or `@`: a
negation, a division or a matmul on the tape lives inside a fused op.

Ops never mutate inputs, so the same source line serves data generation,
inference, and training.
"""
from __future__ import annotations

import numpy as np

from .errors import TapeReuseError


class Tape:
    """Records operations for one backward pass.

    Use as a context manager; ops executed while the tape is active are
    recorded. A tape can be walked exactly once.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._walked = False

    def __enter__(self):
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._stack.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, output: "Tensor") -> None:
        """Seed `output` with ones and accumulate leaf grads."""
        if self._walked:
            raise TapeReuseError("tape has already been walked")
        self._walked = True
        seed = np.ones(output.data.shape)
        output.grad = seed if output.grad is None else output.grad + seed
        for node in reversed(self._nodes):
            if node.grad is None or node._vjp is None:
                continue
            grads = node._vjp(node.grad)
            for inp, g in zip(node._inputs, grads):
                if g is None or not isinstance(inp, Tensor) or not inp.requires_grad:
                    continue
                inp.grad = g if inp.grad is None else inp.grad + g


class Tensor:
    """A float64 ndarray plus an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_inputs", "_vjp")

    # keep numpy from consuming Tensors in mixed expressions; reflected
    # operators below take over instead
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._inputs = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor({self.data!r}, requires_grad={self.requires_grad})"

    # arithmetic; implementations live in module functions

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return subtract(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __getitem__(self, idx):
        return take(self, idx)


def value(x):
    """Underlying ndarray of a Tensor, or x itself."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _record(out_data, inputs, vjp):
    # without an active tape no gradient can ever be requested, so ops
    # degrade to plain arrays and inference runs at numpy speed
    if not Tape._stack:
        return out_data
    out = Tensor(out_data)
    for i in inputs:
        if isinstance(i, Tensor) and i.requires_grad:
            out.requires_grad = True
            out._inputs = tuple(inputs)
            out._vjp = vjp
            Tape._stack[-1]._nodes.append(out)
            break
    return out


def record(out_data, inputs, vjp):
    """Result of a fused op computed in plain numpy from `inputs`.

    A plain array unless a tape is active and some input is a Tensor; then
    a Tensor recorded as one node when an input requires gradients.
    `vjp(g)` returns one gradient per input, shaped like that input (None
    where no gradient flows).
    """
    if not _any_tensor(*inputs):
        return out_data
    return _record(out_data, inputs, vjp)


def unbroadcast(g, shape):
    """Sum g over axes that were broadcast so it matches `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _any_tensor(*xs):
    for x in xs:
        if isinstance(x, Tensor):
            return True
    return False


# ---------------------------------------------------------------- binary ops

def add(x, y):
    if not _any_tensor(x, y):
        return np.add(x, y)
    xd, yd = value(x), value(y)
    return _record(xd + yd, (x, y),
                   lambda g: (unbroadcast(g, xd.shape), unbroadcast(g, yd.shape)))


def subtract(x, y):
    if not _any_tensor(x, y):
        return np.subtract(x, y)
    xd, yd = value(x), value(y)
    return _record(xd - yd, (x, y),
                   lambda g: (unbroadcast(g, xd.shape), unbroadcast(-g, yd.shape)))


def multiply(x, y):
    if not _any_tensor(x, y):
        return np.multiply(x, y)
    xd, yd = value(x), value(y)
    return _record(xd * yd, (x, y),
                   lambda g: (unbroadcast(g * yd, xd.shape), unbroadcast(g * xd, yd.shape)))


# ----------------------------------------------------------------- unary ops

def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(x)
    out = np.exp(value(x))
    return _record(out, (x,), lambda g: (g * out,))


def clip(x, lo, hi):
    """x limited to [lo, hi] for scalar bounds; the gradient passes only
    strictly inside the bounds."""
    if not isinstance(x, Tensor):
        return np.minimum(np.maximum(x, lo), hi)
    xd = value(x)
    inside = (xd > lo) & (xd < hi)
    return _record(np.minimum(np.maximum(xd, lo), hi), (x,), lambda g: (g * inside,))


# ------------------------------------------------------------ shape/reduce

def _is_basic_index(idx) -> bool:
    """True for slices, ints, Ellipsis and None: every element is picked at
    most once, so a gradient can be written instead of accumulated."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(i is Ellipsis or i is None or isinstance(i, (slice, int, np.integer))
               for i in items)


def take(x, idx):
    if not isinstance(x, Tensor):
        return np.asarray(x)[idx]
    xd = value(x)
    basic = _is_basic_index(idx)

    def vjp(g):
        gx = np.zeros_like(xd)
        if basic:
            gx[idx] = g
        else:
            np.add.at(gx, idx, g)
        return (gx,)

    return _record(xd[idx], (x,), vjp)


def sum(x, axis=None):  # noqa: A001 - mirrors numpy naming
    if not isinstance(x, Tensor):
        return np.sum(x, axis=axis)
    xd = value(x)
    out = np.sum(xd, axis=axis)

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, xd.shape).copy(),)

    return _record(out, (x,), vjp)


def mean(x):
    """Mean over every element."""
    return sum(x) * (1.0 / value(x).size)


def concatenate(parts, axis):
    if not _any_tensor(*parts):
        return np.concatenate(parts, axis=axis)
    datas = [value(p) for p in parts]
    out = np.concatenate(datas, axis=axis)

    def vjp(g):
        lead = (slice(None),) * (axis % g.ndim)
        grads, start = [], 0
        for d in datas:
            stop = start + d.shape[axis]
            grads.append(g[lead + (slice(start, stop),)])
            start = stop
        return grads

    return _record(out, tuple(parts), vjp)


def finite_difference_gradient(fn, x0, h=1e-5):
    """Central-difference gradient of scalar fn at x0 (flat, same shape)."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(fn(x0))
        flat[i] = orig - h
        fm = float(fn(x0))
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g
