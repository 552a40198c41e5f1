"""Backward-pass correctness: finite differences on every op, tape semantics."""

import contextlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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
    nodes = T._STATE.nodes
    before = len(nodes)
    with T.no_grad() if under_no_grad else contextlib.nullcontext():
        outs = op(q, k, v)
    assert len(nodes) == before
    assert all(not o.requires_grad for o in outs)


def test_tape_switch_and_dtype_are_per_thread():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = T.tsum(T.mul(w, w))
    recorded = len(T._STATE.nodes)

    def worker():
        v = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        T.backward(T.tsum(T.mul(v, 2.0)))
        return v.dtype, v.grad

    with T.no_grad(), T.using_dtype(np.float64):
        assert Tensor(0.0).dtype == np.float64
        with ThreadPoolExecutor(1) as pool:
            dtype, grad = pool.submit(worker).result(timeout=60)
    assert dtype == np.float32 and grad.dtype == np.float32
    np.testing.assert_array_equal(grad, [2.0, 2.0])
    assert len(T._STATE.nodes) == recorded
    T.backward(loss)
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


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


def _scatter_reference(g, kernel, x_shape, stride, padding):
    """conv2d's input gradient as the op once computed it: a (N,Ho,Wo,C,k,k)
    window gradient whose taps are added, in tap order, through transposed views."""
    n, c, h, w = x_shape
    c_out, _, k, _ = kernel.shape
    ho, wo = g.shape[2:]
    wm = kernel.reshape(c_out, c * k * k)
    win = (g.reshape(n, c_out, ho * wo).transpose(0, 2, 1) @ wm).reshape(n, ho, wo, c, k, k)
    grid = np.zeros((n, c, h + 2 * padding, w + 2 * padding), g.dtype)
    for i in range(k):
        for j in range(k):
            grid[:, :, i:i + (ho - 1) * stride + 1:stride, j:j + (wo - 1) * stride + 1:stride] += (
                win[:, :, :, :, i, j].transpose(0, 3, 1, 2))
    return grid[:, :, padding:padding + h, padding:padding + w]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,c_out,stride", [
    ((4, 16, 16, 16), 8, 1), ((4, 8, 32, 32), 4, 1), ((4, 8, 64, 64), 4, 1),  # criterion-8 vanilla fuses
    ((2, 3, 17, 15), 4, 2),
])
def test_conv2d_input_gradient_equals_window_scatter_bitwise(x_shape, c_out, stride, dtype):
    rng = np.random.default_rng(32)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True, dtype=dtype)
    w = Tensor(rng.standard_normal((c_out, x_shape[1], 3, 3)), dtype=dtype)
    out = T.conv2d(x, w, stride, 1)
    g = rng.standard_normal(out.shape).astype(dtype)
    T.backward(T.tsum(T.mul(out, Tensor(g, dtype=dtype))))
    want = _scatter_reference(g, w.data, x.shape, stride, 1)
    assert x.grad.dtype == want.dtype and x.grad.tobytes() == want.tobytes()


def _im2col_reference(x, kernel, stride, padding, g):
    """conv2d's output and kernel gradient from an im2col read through
    ``sliding_window_view`` over ``np.pad``, with the op's own ``cols @ W.T``
    and ``tensordot``."""
    n, c = x.shape[:2]
    c_out, _, k, _ = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]  # (N,C,Ho,Wo,k,k)
    ho, wo = win.shape[2:4]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n, ho * wo, c * k * k)
    out = (cols @ kernel.reshape(c_out, c * k * k).T).transpose(0, 2, 1).reshape(n, c_out, ho, wo)
    gf = g.reshape(n, c_out, ho * wo).transpose(0, 2, 1)
    return out, np.tensordot(gf, cols, axes=([0, 1], [0, 1])).reshape(kernel.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_conv2d_equals_im2col_reference_bitwise(n, stride, k, padding, dtype):
    rng = np.random.default_rng(35)
    x = Tensor(rng.standard_normal((n, 3, 9, 8)), requires_grad=True, dtype=dtype)
    w = Tensor(rng.standard_normal((4, 3, k, k)), requires_grad=True, dtype=dtype)
    out = T.conv2d(x, w, stride, padding)
    g = rng.standard_normal(out.shape).astype(dtype)
    T.backward(T.tsum(T.mul(out, Tensor(g, dtype=dtype))))
    want = (*_im2col_reference(x.data, w.data, stride, padding, g),
            _scatter_reference(g, w.data, x.shape, stride, padding))
    for what, got, wnt in zip(("output", "kernel grad", "x grad"), (out.data, w.grad, x.grad), want):
        assert got.dtype == wnt.dtype == dtype, what
        assert got.shape == wnt.shape and got.tobytes() == wnt.tobytes(), what


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_conv_transpose_gradients_equal_tile_copy_bitwise(n, k, dtype):
    # the reference reads g's tiles through a contiguous reshape/transpose copy
    rng = np.random.default_rng(36)
    x = Tensor(rng.standard_normal((n, 3, 5, 4)), requires_grad=True, dtype=dtype)
    w = Tensor(rng.standard_normal((3, 2, k, k)), requires_grad=True, dtype=dtype)
    out = T.conv_transpose2d(x, w, k)
    g = rng.standard_normal(out.shape).astype(dtype)
    T.backward(T.tsum(T.mul(out, Tensor(g, dtype=dtype))))
    tiles = np.ascontiguousarray(g.reshape(n, 2, 5, k, 4, k).transpose(0, 2, 4, 1, 3, 5))  # (N,H,W,C_out,k,k)
    want_k = np.tensordot(x.data, tiles, axes=([0, 2, 3], [0, 1, 2]))
    want_x = np.tensordot(tiles, w.data, axes=([3, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    for what, got, wnt in (("x grad", x.grad, want_x), ("kernel grad", w.grad, want_k)):
        assert got.dtype == wnt.dtype == dtype, what
        assert got.shape == wnt.shape and got.tobytes() == wnt.tobytes(), what


@pytest.mark.parametrize("stride", [1, 2])
def test_fd_depthwise(stride):
    x = rand(2, 3, 5, 5, seed=22)
    kd = rand(3, 1, 3, 3, seed=23, scale=0.5)
    check_gradients(lambda: T.tsum(T.mul(T.depthwise_conv2d(x, kd, stride, 1),
                                         T.depthwise_conv2d(x, kd, stride, 1))), [x, kd])


def _depthwise_reference(x, kd, bias, stride, padding, upstream):
    """depthwise_conv2d as the op once computed it, with ``bias=`` and
    ``relu6=True`` unless ``bias`` is None: one strided pass over the whole
    padded input per kernel tap, forward and backward, with the kernel
    gradient summed in the op's order.  Returns the output and the x, kernel
    and bias gradients."""
    n, c, h, w = x.shape
    k = kd.shape[2]
    ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x

    def tap(i, j):
        return (slice(None), slice(None), slice(i, i + (ho - 1) * stride + 1, stride),
                slice(j, j + (wo - 1) * stride + 1, stride))

    out = np.empty((n, c, ho, wo), x.dtype)
    tmp = np.empty_like(out)
    for t, (i, j) in enumerate(np.ndindex(k, k)):
        np.multiply(xp[tap(i, j)], kd[None, :, 0, i, j, None, None], out=tmp if t else out)
        if t:
            out += tmp
    g, gb = upstream, None
    if bias is not None:
        out += bias
        np.maximum(out, 0, out=out)
        np.minimum(out, 6, out=out)
        g = upstream * ((out > 0) & (out < 6))
        gb = g.sum(axis=0).sum(axis=(1, 2), keepdims=True)
    # the kernel gradient per (n, c) plane on the wide (Ho, Ws) grid, zeros
    # past Wo in both factors, then summed over the batch
    ws = -(-(w + 2 * padding) // stride)

    def wide(a):
        grid = np.zeros((n * c, ho, ws), a.dtype)
        grid[:, :, :wo] = a.reshape(n * c, ho, wo)
        return grid.reshape(n * c, ho * ws)

    gk = np.empty((n, c, k, k), g.dtype)
    gxp = np.zeros_like(xp)
    prod = np.empty_like(g)
    for i, j in np.ndindex(k, k):
        gk[:, :, i, j] = np.einsum("pi,pi->p", wide(g), wide(xp[tap(i, j)])).reshape(n, c)
        np.multiply(g, kd[None, :, 0, i, j, None, None], out=prod)
        gxp[tap(i, j)] += prod
    return out, gxp[:, :, padding:padding + h, padding:padding + w], gk.sum(axis=0)[:, None], gb


def _check_depthwise_bitwise(shape, k, stride, padding, dtype, x_grad=True, fused=True):
    rng = np.random.default_rng(33)
    x = Tensor(rng.standard_normal(shape) * 3, requires_grad=x_grad, dtype=dtype)
    x.data[:, :, :5] = 0.0  # an all-zero band, as after a ReLU6
    kd = Tensor(rng.standard_normal((shape[1], 1, k, k)), requires_grad=True, dtype=dtype)
    kd.data[0] = -np.abs(kd.data[0])  # so channel 0's band sums to -0
    b = Tensor(rng.standard_normal((shape[1], 1, 1)), requires_grad=True, dtype=dtype) if fused else None
    out = T.depthwise_conv2d(x, kd, stride, padding, bias=b, relu6=fused)
    upstream = rng.standard_normal(out.shape).astype(dtype)
    upstream[upstream > 1.0] = -0.0
    upstream[upstream < -1.0] = 0.0
    T.backward(T.tsum(T.mul(out, Tensor(upstream, dtype=dtype))))
    want = _depthwise_reference(x.data, kd.data, None if b is None else b.data, stride, padding, upstream)
    got = (out.data, x.grad, kd.grad, None if b is None else b.grad)
    if fused:
        assert 0 < np.count_nonzero((out.data > 0) & (out.data < 6)) < out.data.size
    else:
        assert np.any((out.data == 0) & np.signbit(out.data))
    for what, g, wnt in zip(("output", "x grad", "kernel grad", "bias grad"), got, want):
        if (what == "x grad" and not x_grad) or (what == "bias grad" and not fused):
            assert g is None
            continue
        assert g.dtype == wnt.dtype == dtype, what
        assert g.shape == wnt.shape and g.tobytes() == wnt.tobytes(), what


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 8, 32, 32), (2, 3, 17, 15), (1, 5, 9, 12)])
@pytest.mark.parametrize("k,padding", [(1, 0), (1, 1), (3, 0), (3, 1)])
@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_equals_per_tap_reference_bitwise(stride, k, padding, shape, dtype):
    _check_depthwise_bitwise(shape, k, stride, padding, dtype)


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_bitwise_without_input_gradient(stride):
    _check_depthwise_bitwise((2, 3, 17, 15), 3, stride, 1, np.float32, x_grad=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_bitwise_without_bias_or_clamp(stride, dtype):
    # the zero band's outputs are sums of signed zeros, so they check where the
    # tap sum starts as well as its order
    _check_depthwise_bitwise((2, 3, 17, 15), 3, stride, 1, dtype, fused=False)


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_bitwise_over_small_row_blocks(stride, monkeypatch):
    # ten planes in blocks of four: two full blocks and a ragged block of two
    shape, itemsize = (2, 5, 9, 12), 8
    ho, ws = (9 + 2 - 3) // stride + 1, -(-(12 + 2) // stride)
    monkeypatch.setattr(T, "_DW_BLOCK_BYTES", 4 * ho * ws * itemsize)
    _check_depthwise_bitwise(shape, 3, stride, 1, np.float64)


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_float32_kernel_gradient_is_accurate(stride):
    # at a paper-sized shape each kernel-gradient entry sums 2 x 64 x 64
    # (stride 1) products; the float64 op on the same float32 values is the reference
    rng = np.random.default_rng(37)
    x = rng.standard_normal((2, 96, 64, 64)).astype(np.float32)
    kd = rng.standard_normal((96, 1, 3, 3)).astype(np.float32)
    g = rng.standard_normal((2, 96, 64 // stride, 64 // stride)).astype(np.float32)
    grads = []
    for dtype in (np.float32, np.float64):
        k = Tensor(kd, requires_grad=True, dtype=dtype)
        out = T.depthwise_conv2d(Tensor(x, dtype=dtype), k, stride, 1)
        T.backward(T.tsum(T.mul(out, Tensor(g, dtype=dtype))))
        grads.append(k.grad)
    got, ref = grads
    assert got.dtype == np.float32 and ref.dtype == np.float64
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_backward_memory(stride):
    """The backward holds the upstream gradient, the new x gradient and a few
    row-block buffers, among them the block's refilled phase planes: no padded
    copy of the whole input, full-size product or cropped copy.  The bound
    leaves room for two padded-input-sized arrays besides."""
    n, c, h, w = 2, 32, 128, 128
    rng = np.random.default_rng(34)
    x = Tensor(rng.standard_normal((n, c, h, w)), requires_grad=True, dtype=np.float32)
    kd = Tensor(rng.standard_normal((c, 1, 3, 3)), requires_grad=True, dtype=np.float32)
    out = T.depthwise_conv2d(x, kd, stride, 1)
    tracemalloc.start()
    try:
        T.backward(T.tsum(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = n * c * (h + 2) * (w + 2) * 4
    assert peak <= out.data.nbytes + 2 * padded + x.data.nbytes + 2**20


def test_fd_pointwise():
    x = rand(2, 4, 4, 4, seed=24)
    kp = rand(6, 4, 1, 1, seed=25, scale=0.5)
    check_gradients(lambda: T.tsum(T.mul(T.pointwise_conv2d(x, kp),
                                         T.pointwise_conv2d(x, kp))), [x, kp])


@pytest.mark.parametrize("stride,k", [(1, 1), (2, 2)])  # the head, the decoder upsample
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
# once, conv_transpose2d runs at its kernel's stride 2 only and takes a bias but
# no ReLU6
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
               for s in {"pointwise_conv2d": (1,), "conv_transpose2d": (2,)}.get(name, (1, 2))]
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
