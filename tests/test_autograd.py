"""Backward-pass correctness: finite differences on every op, tape semantics."""

import contextlib

import numpy as np
import pytest

from gradcheck import check_gradients
from pamunet import tensor as T
from pamunet.attention import scaled_dot_attention_streaming
from pamunet.tensor import Tensor


def rand(*shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)


def test_quadratic_loss_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = T.tsum(T.mul(w, w))
    T.backward(loss)
    np.testing.assert_allclose(w.grad, [2.0, 4.0])


def test_unused_parameter_gets_zero_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    T.backward(T.tsum(T.mul(w, w)))
    assert unused.grad is None or not unused.grad.any()


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(w, 2.0)
    with pytest.raises(T.GradError, match="scalar"):
        T.backward(y)
    T.reset_tape()


def test_repeated_backward_is_an_error():
    w = Tensor(np.ones(2), requires_grad=True)
    loss = T.tsum(T.mul(w, w))
    T.backward(loss)
    with pytest.raises(T.GradError, match="tape"):
        T.backward(loss)


def test_backward_off_tape_is_an_error():
    with T.no_grad():
        loss = T.tsum(Tensor(np.ones(1), requires_grad=True))
    with pytest.raises(T.GradError, match="tape"):
        T.backward(loss)


NO_GRAD_OPS = {
    "mul": lambda q, k, v: [T.mul(q, k)],
    "split": lambda q, k, v: T.split(q, 2, axis=1),
    "streaming": lambda q, k, v: list(scaled_dot_attention_streaming(q, k, v, chunk=2)),
}


@pytest.mark.parametrize("op", NO_GRAD_OPS.values(), ids=NO_GRAD_OPS.keys())
@pytest.mark.parametrize("under_no_grad", [True, False], ids=["no_grad", "no_input_requires_grad"])
def test_no_grad_blocks_recording(op, under_no_grad):
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((1, 4, 2)), requires_grad=under_no_grad) for _ in range(3))
    nodes = T._tls().tape.nodes
    before = len(nodes)
    with T.no_grad() if under_no_grad else contextlib.nullcontext():
        outs = op(q, k, v)
    assert len(nodes) == before
    assert all(not o.requires_grad and o.node_id is None for o in outs)


def test_grad_accumulates_across_reuse():
    w = Tensor(np.array([3.0]), requires_grad=True)
    loss = T.tsum(T.add(T.mul(w, w), T.mul(w, w)))
    T.backward(loss)
    np.testing.assert_allclose(w.grad, [12.0])


@pytest.mark.parametrize("shape_a,shape_b", [((2, 3, 4, 4), (2, 3, 4, 4)), ((1, 3, 4, 4), (1, 3, 1, 1)), ((2, 3, 1, 4), (1, 3, 5, 1))])
def test_fd_add_sub_mul(shape_a, shape_b):
    a, b = rand(*shape_a, seed=1), rand(*shape_b, seed=2)
    check_gradients(lambda: T.tsum(T.mul(T.add(a, b), T.sub(a, b))), [a, b])


def test_fd_relu6():
    # Stay away from the 0 / 6 kinks so the difference quotient is valid.
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-3, 9, (2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
    x.data[np.abs(x.data) < 0.05] += 0.2
    x.data[np.abs(x.data - 6.0) < 0.05] += 0.2
    check_gradients(lambda: T.tsum(T.relu6(x)), [x])


def test_fd_clamp():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-1, 2, (3, 5)), requires_grad=True, dtype=np.float64)
    x.data[np.abs(x.data) < 0.05] += 0.2
    x.data[np.abs(x.data - 1.0) < 0.05] += 0.2
    check_gradients(lambda: T.tsum(T.mul(T.clamp(x, 0.0, 1.0), x)), [x])


def test_fd_sigmoid_exp_log_tanh():
    x = rand(2, 6, seed=6, scale=0.7)
    pos = Tensor(np.abs(x.data) + 0.5, requires_grad=True, dtype=np.float64)
    check_gradients(lambda: T.tsum(T.sigmoid(x)), [x])
    check_gradients(lambda: T.tsum(T.exp(x)), [x])
    check_gradients(lambda: T.tsum(T.tanh(x)), [x])
    check_gradients(lambda: T.tsum(T.log(pos)), [pos])


def test_fd_matmul_2d_and_batched():
    a, b = rand(4, 3, seed=7), rand(3, 5, seed=8)
    check_gradients(lambda: T.tsum(T.matmul(a, b)), [a, b])
    a3, b3 = rand(2, 3, 4, seed=9), rand(2, 4, 2, seed=10)
    check_gradients(lambda: T.tsum(T.mul(T.matmul(a3, b3), T.matmul(a3, b3))), [a3, b3])


def test_fd_softmax():
    x = rand(3, 6, seed=11)
    w = rand(3, 6, seed=12)
    check_gradients(lambda: T.tsum(T.mul(T.softmax(x, axis=1), w)), [x])


def test_fd_mean_variance():
    x = rand(2, 3, 3, seed=13)
    check_gradients(lambda: T.mean(T.mul(x, x)), [x])
    check_gradients(lambda: T.variance(x), [x])


def test_fd_reshape_transpose():
    x = rand(2, 3, 4, seed=14)
    w = rand(4, 3, 2, seed=15)
    check_gradients(lambda: T.tsum(T.mul(T.transpose(T.reshape(x, (2, 3, 4)), (2, 1, 0)), w)), [x])


def test_fd_concat_split():
    a, b = rand(1, 2, 3, 3, seed=16), rand(1, 4, 3, 3, seed=17)
    check_gradients(lambda: T.tsum(T.mul(T.concat([a, b], axis=1), T.concat([a, b], axis=1))), [a, b])
    x = rand(1, 4, 2, 2, seed=18)

    def f():
        lo, hi = T.split(x, 2, axis=1)
        return T.tsum(T.add(T.mul(lo, lo), T.mul(hi, 3.0)))

    check_gradients(f, [x])


def test_fd_split_with_unused_branch():
    x = rand(1, 4, 2, 2, seed=19)

    def f():
        lo, _hi = T.split(x, 2, axis=1)
        return T.tsum(T.mul(lo, lo))

    check_gradients(f, [x])


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_fd_conv2d(stride, padding):
    x = rand(2, 3, 6, 6, seed=20)
    w = rand(4, 3, 3, 3, seed=21, scale=0.5)
    check_gradients(lambda: T.tsum(T.mul(T.conv2d(x, w, stride, padding),
                                         T.conv2d(x, w, stride, padding))), [x, w])


@pytest.mark.parametrize("stride", [1, 2])
def test_fd_depthwise(stride):
    x = rand(2, 3, 5, 5, seed=22)
    kd = rand(3, 1, 3, 3, seed=23, scale=0.5)
    check_gradients(lambda: T.tsum(T.mul(T.depthwise_conv2d(x, kd, stride, 1),
                                         T.depthwise_conv2d(x, kd, stride, 1))), [x, kd])


def test_fd_pointwise():
    x = rand(2, 4, 4, 4, seed=24)
    kp = rand(6, 4, 1, 1, seed=25, scale=0.5)
    check_gradients(lambda: T.tsum(T.mul(T.pointwise_conv2d(x, kp),
                                         T.pointwise_conv2d(x, kp))), [x, kp])


@pytest.mark.parametrize("stride,k", [(1, 2), (2, 2), (2, 3)])
def test_fd_conv_transpose(stride, k):
    x = rand(2, 3, 4, 4, seed=26)
    w = rand(3, 2, k, k, seed=27, scale=0.5)
    check_gradients(lambda: T.tsum(T.mul(T.conv_transpose2d(x, w, stride),
                                         T.conv_transpose2d(x, w, stride))), [x, w])


def test_gradients_do_not_leak_between_tapes():
    w = Tensor(np.array([2.0]), requires_grad=True)
    T.backward(T.tsum(T.mul(w, w)))
    first = w.grad.copy()
    w.zero_grad()
    T.backward(T.tsum(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, first)


# -- bias and ReLU6 inside the conv ops ------------------------------------------------

# op name -> (x shape, kernel shape, call); pointwise has no stride, so it runs
# once, and conv_transpose2d takes a bias but no ReLU6
FUSED_OPS = {
    "conv2d": ((2, 3, 7, 7), (4, 3, 3, 3),
               lambda x, k, s, **kw: T.conv2d(x, k, s, 1, **kw)),
    "depthwise_conv2d": ((2, 3, 7, 7), (3, 1, 3, 3),
                         lambda x, k, s, **kw: T.depthwise_conv2d(x, k, s, 1, **kw)),
    "pointwise_conv2d": ((2, 3, 7, 7), (4, 3, 1, 1),
                         lambda x, k, s, **kw: T.pointwise_conv2d(x, k, **kw)),
    "conv_transpose2d": ((2, 3, 5, 5), (3, 4, 2, 2),
                         lambda x, k, s, **kw: T.conv_transpose2d(x, k, s, **kw)),
}
FUSED_CASES = [(name, s) for name in FUSED_OPS
               for s in ((1,) if name == "pointwise_conv2d" else (1, 2))]
RELU6_CASES = [(name, s) for name, s in FUSED_CASES if name != "conv_transpose2d"]


def _fused_inputs(name, dtype, seed):
    x_shape, k_shape, call = FUSED_OPS[name]
    c_out = k_shape[1] if name == "conv_transpose2d" else k_shape[0]
    rng = np.random.default_rng(seed)
    x, k, b = (Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=dtype)
               for shape, scale in ((x_shape, 3.0), (k_shape, 1.0), ((c_out, 1, 1), 2.0)))
    return call, x, k, b


def _value_and_grads(f, inputs, upstream):
    out = f()
    T.backward(T.tsum(T.mul(out, upstream)))
    grads = [t.grad for t in inputs]
    for t in inputs:
        t.zero_grad()
    return [out.data] + grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,stride,relu6", [c + (False,) for c in FUSED_CASES]
                         + [c + (True,) for c in RELU6_CASES])
def test_fused_conv_equals_unfused_composition_bitwise(name, stride, relu6, dtype):
    call, x, k, b = _fused_inputs(name, dtype, seed=30)
    act = T.relu6 if relu6 else (lambda t: t)
    kw = {"relu6": True} if relu6 else {}
    with T.no_grad():
        shape = call(x, k, stride).shape
    upstream = Tensor(np.random.default_rng(31).standard_normal(shape), dtype=dtype)
    fused = _value_and_grads(lambda: call(x, k, stride, bias=b, **kw), [x, k, b], upstream)
    plain = _value_and_grads(lambda: act(T.add(call(x, k, stride), b)), [x, k, b], upstream)
    if relu6:
        assert 0 < np.count_nonzero((fused[0] > 0) & (fused[0] < 6)) < fused[0].size
    for what, got, want in zip(("output", "x grad", "kernel grad", "bias grad"), fused, plain):
        assert got.dtype == want.dtype == dtype, what
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("name,stride", RELU6_CASES)
def test_fd_fused_conv_with_bias(name, stride):
    # a seed whose pre-activations all sit clear of the ReLU6 kinks, so every
    # central difference is a derivative estimate
    for seed in range(40, 80):
        call, x, k, b = _fused_inputs(name, np.float64, seed)
        with T.no_grad():
            pre = T.add(call(x, k, stride), b).data
        if np.min(np.minimum(np.abs(pre), np.abs(pre - 6.0))) > 1e-3:
            break
    else:
        pytest.fail("no kink-free seed")
    assert 0 < np.count_nonzero((pre > 0) & (pre < 6)) < pre.size
    check_gradients(lambda: T.tsum(T.mul(call(x, k, stride, bias=b, relu6=True),
                                         call(x, k, stride, bias=b, relu6=True))), [x, k, b])
