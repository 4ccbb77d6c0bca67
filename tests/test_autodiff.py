import numpy as np
import pytest

from reachgen import autodiff as ag
from reachgen.autodiff import Tape, Tensor
from reachgen.errors import TapeReuseError


def grad_of(fn, x0, h=1e-6):
    """Central finite differences; independent of the tape machinery."""
    return ag.finite_difference_gradient(fn, x0, h=h)


def check_unary(op_name, fn_np, x0, h=1e-6, rtol=1e-6):
    op = getattr(ag, op_name)
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        y = op(x)
        loss = ag.sum(y * y)
    tape.backward(loss)
    fd = grad_of(lambda v: np.sum(fn_np(v) ** 2), x0.copy(), h=h)
    np.testing.assert_allclose(x.grad, fd, rtol=rtol, atol=1e-8)


def test_unary_gradients():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.2, 1.5, size=(3, 4))
    check_unary("exp", np.exp, x)


def test_binary_gradients_with_broadcasting():
    rng = np.random.default_rng(1)
    a0 = rng.normal(size=(2, 3, 4))
    b0 = rng.uniform(0.5, 2.0, size=(4,))

    for op, np_op in [(ag.add, np.add), (ag.subtract, np.subtract),
                      (ag.multiply, np.multiply)]:
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        with Tape() as tape:
            y = op(a, b)
            loss = ag.sum(y * y)
        tape.backward(loss)
        fd_a = grad_of(lambda v: np.sum(np_op(v, b0) ** 2), a0.copy())
        fd_b = grad_of(lambda v: np.sum(np_op(a0, v) ** 2), b0.copy())
        np.testing.assert_allclose(a.grad, fd_a, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(b.grad, fd_b, rtol=1e-5, atol=1e-8)


def test_getitem_concat_stack_gradients():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(4, 6))
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        a = x[..., 0:3]
        b = x[..., 3:6]
        c = ag.concatenate([a * 2.0, b], axis=-1)
        d = ag.concatenate([c[..., 0:1], c[..., 5:6]], axis=-1)
        loss = ag.sum(d * d)
    tape.backward(loss)

    def ref(v):
        a = v[..., 0:3] * 2.0
        b = v[..., 3:6]
        c = np.concatenate([a, b], axis=-1)
        d = np.concatenate([c[..., 0:1], c[..., 5:6]], axis=-1)
        return np.sum(d * d)

    fd = grad_of(ref, x0.copy())
    np.testing.assert_allclose(x.grad, fd, rtol=1e-5, atol=1e-8)


def test_sum_mean_axis_gradients():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(3, 5))
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        m = ag.sum(x, axis=1) * 0.2
        loss = ag.sum(m * m) + ag.mean(x) * 0.1
    tape.backward(loss)
    fd = grad_of(lambda v: np.sum((np.sum(v, axis=1) * 0.2) ** 2) + np.mean(v) * 0.1,
                 x0.copy())
    np.testing.assert_allclose(x.grad, fd, rtol=1e-5, atol=1e-8)


def test_clip_gradients():
    x0 = np.array([-1.0, 0.5, 2.0, -0.2])
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        c = ag.clip(x, -0.5, 1.0)
        loss = ag.sum(c * c)
    tape.backward(loss)
    fd = grad_of(lambda v: np.sum(np.clip(v, -0.5, 1.0) ** 2), x0.copy())
    np.testing.assert_allclose(x.grad, fd, rtol=1e-5, atol=1e-8)

    # clip records one node; exactly at a bound its gradient is 0, and its
    # bits equal a maximum mask times a minimum mask, signed zeros included
    lo, hi = -0.5, 1.0
    x0 = np.array([lo, hi, -0.0, 0.3, -2.0, 3.0, np.nextafter(lo, 0.0)])
    g0 = np.array([1.5, -2.0, 0.25, -1.0, 4.0, -3.0, 0.5])
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        out = ag.clip(x, lo, hi)
        nodes = len(tape)
        loss = ag.sum(out * g0)    # seeds clip's output gradient with g0
    assert nodes == 1
    clamped = np.maximum(x0, lo)
    assert out.data.tobytes() == np.minimum(clamped, hi).tobytes()
    tape.backward(loss)
    assert x.grad[0] == 0.0 and x.grad[1] == 0.0
    assert x.grad.tobytes() == (g0 * (clamped < hi) * (x0 > lo)).tobytes()


def test_zero_output_gradient_gives_zero_parameter_gradients():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
        loss = ag.sum(y * np.zeros(3))    # seeds y's output gradient with zeros
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_tape_reuse_raises():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        y = ag.sum(x)
    tape.backward(y)
    with pytest.raises(TapeReuseError):
        tape.backward(y)


def test_no_tape_degrades_to_plain_arrays():
    x = Tensor(np.ones(2), requires_grad=True)
    y = x * 3.0
    assert isinstance(y, np.ndarray)


def test_gradient_accumulates_over_reused_input():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        loss = ag.sum(x * x + x * 3.0)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def test_numpy_fast_path_returns_ndarray():
    a = np.ones((2, 3))
    assert isinstance(ag.add(a, a), np.ndarray)
    assert isinstance(ag.sum(a), np.float64)
    assert isinstance(ag.concatenate([a, a], axis=0), np.ndarray)
