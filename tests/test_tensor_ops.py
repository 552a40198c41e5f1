"""Forward-value tests for the tensor ops, checked against naive oracles."""

import numpy as np
import pytest

from pamunet import tensor as T
from pamunet.tensor import Tensor


def naive_conv2d(x, w, stride, padding):
    """Direct quadruple-loop convolution, the independent reference."""
    n, c, h, wd = x.shape
    c_out, c_in, k, _ = w.shape
    assert c == c_in
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[b, o, i, j] = np.sum(patch * w[o])
    return out


def test_conv2d_identity_kernel():
    x = Tensor(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
    k = Tensor(np.ones((1, 1, 1, 1)))
    out = T.conv2d(x, k, stride=1, padding=0)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_shape_arithmetic():
    x = Tensor(np.zeros((1, 3, 128, 128)))
    k = Tensor(np.zeros((32, 3, 3, 3)))
    assert T.conv2d(x, k, stride=2, padding=1).shape == (1, 32, 64, 64)


def test_conv2d_hand_case():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    k = Tensor(np.full((1, 1, 2, 2), 0.25))
    out = T.conv2d(x, k, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == pytest.approx(2.5)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_matches_naive_oracle(stride, padding):
    rng = np.random.default_rng(7)
    with T.using_dtype(np.float64):
        x = Tensor(rng.standard_normal((2, 3, 6, 5)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        out = T.conv2d(x, w, stride=stride, padding=padding)
    ref = naive_conv2d(x.data, w.data, stride, padding)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_conv2d_channel_mismatch_error():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    k = Tensor(np.zeros((2, 4, 3, 3)))
    with pytest.raises(T.ShapeError, match="channel"):
        T.conv2d(x, k, 1, 1)


def test_depthwise_scaling_kernels():
    x = Tensor(np.stack([np.full((4, 4), 1.0), np.full((4, 4), 1.0)])[None])
    kd = Tensor(np.array([2.0, 3.0]).reshape(2, 1, 1, 1))
    out = T.depthwise_conv2d(x, kd, stride=1, padding=0)
    np.testing.assert_allclose(out.data[0, 0], 2.0)
    np.testing.assert_allclose(out.data[0, 1], 3.0)


def test_depthwise_shape():
    x = Tensor(np.zeros((1, 8, 16, 16)))
    kd = Tensor(np.zeros((8, 1, 3, 3)))
    assert T.depthwise_conv2d(x, kd, stride=2, padding=1).shape == (1, 8, 8, 8)


@pytest.mark.parametrize("shape,stride", [((1, 2, 4, 4), 1), ((2, 8, 64, 64), 1),
                                          ((2, 8, 64, 64), 2)],
                         ids=["1x2x4x4-s1", "2x8x64x64-s1", "2x8x64x64-s2"])
def test_depthwise_equals_block_diagonal_grouped_conv(shape, stride):
    # Grouped-conv oracle: embed each per-channel kernel on the diagonal of a
    # full kernel with zeros elsewhere, then run the vanilla conv path. The
    # 64x64 shapes are training-sized.
    rng = np.random.default_rng(11)
    c = shape[1]
    with T.using_dtype(np.float64):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        kd = Tensor(rng.standard_normal((c, 1, 3, 3)), requires_grad=True)
        out = T.depthwise_conv2d(x, kd, stride=stride, padding=1)
        g = Tensor(rng.standard_normal(out.shape))
        T.backward(T.tsum(T.mul(out, g)))
        full = Tensor(np.zeros((c, c, 3, 3)), requires_grad=True)
        for ch in range(c):
            full.data[ch, ch] = kd.data[ch, 0]
        xf = Tensor(x.data, requires_grad=True)
        T.backward(T.tsum(T.mul(T.conv2d(xf, full, stride=stride, padding=1), g)))
    np.testing.assert_allclose(out.data, naive_conv2d(x.data, full.data, stride, 1), atol=1e-12)
    np.testing.assert_allclose(x.grad, xf.grad, atol=1e-12)
    np.testing.assert_allclose(kd.grad[:, 0], full.grad[np.arange(c), np.arange(c)], atol=1e-10)


def test_depthwise_channel_mismatch():
    with pytest.raises(T.ShapeError, match="channel"):
        T.depthwise_conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))), 1, 0)


def test_pointwise_identity_over_channels():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 4, 5, 5)))
    kp = Tensor(np.eye(4).reshape(4, 4, 1, 1))
    out = T.pointwise_conv2d(x, kp)
    np.testing.assert_allclose(out.data, x.data, atol=1e-6)


def test_pointwise_equals_conv2d_k1():
    rng = np.random.default_rng(5)
    with T.using_dtype(np.float64):
        x = Tensor(rng.standard_normal((2, 8, 4, 4)))
        kp = Tensor(rng.standard_normal((16, 8, 1, 1)))
        a = T.pointwise_conv2d(x, kp)
        b = T.conv2d(x, kp, stride=1, padding=0)
    np.testing.assert_array_equal(a.data, b.data)


def test_conv_transpose_shape():
    x = Tensor(np.zeros((1, 4, 8, 8)))
    k = Tensor(np.zeros((4, 2, 2, 2)))
    assert T.conv_transpose2d(x, k, stride=2).shape == (1, 2, 16, 16)


def test_conv_transpose_single_pixel_tile():
    v = 3.5
    x = Tensor(np.full((1, 1, 1, 1), v))
    k = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    out = T.conv_transpose2d(x, k, stride=2)
    np.testing.assert_allclose(out.data[0, 0], v * k.data[0, 0])


def test_conv_transpose_matches_adjoint_oracle():
    # conv_transpose(x, K) must equal C^T x where C is the explicit matrix of
    # the forward conv with the in/out-swapped kernel, built column by column.
    rng = np.random.default_rng(13)
    n, c_in, h, w = 1, 2, 3, 3
    c_out, k, s = 3, 2, 2
    with T.using_dtype(np.float64):
        x = Tensor(rng.standard_normal((n, c_in, h, w)))
        kern = Tensor(rng.standard_normal((c_in, c_out, k, k)))
        out = T.conv_transpose2d(x, kern, stride=s)
    # The same (c_in, c_out, k, k) weights, read as a forward conv taking
    # c_out channels to c_in channels, give the matrix whose transpose this is.
    ho, wo = (h - 1) * s + k, (w - 1) * s + k
    cmat = np.zeros((c_in * h * w, c_out * ho * wo))
    for idx in range(c_out * ho * wo):
        basis = np.zeros(c_out * ho * wo)
        basis[idx] = 1.0
        col = naive_conv2d(basis.reshape(1, c_out, ho, wo), kern.data, s, 0)
        cmat[:, idx] = col.reshape(-1)
    ref = (cmat.T @ x.data.reshape(-1)).reshape(n, c_out, ho, wo)
    np.testing.assert_allclose(out.data, ref, atol=1e-10)


def _depthwise(kernel_shape, stride, padding):
    return lambda: T.depthwise_conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros(kernel_shape)),
                                      stride, padding)


def _transpose(k, stride):
    return lambda: T.conv_transpose2d(Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((2, 1, k, k))), stride)


@pytest.mark.parametrize("op,call", [
    ("depthwise_conv2d", _depthwise((2, 1, 3, 3), 0, 1)),
    ("depthwise_conv2d", _depthwise((2, 1, 1, 1), 1, -1)),
    ("depthwise_conv2d", _depthwise((2, 1, 3, 2), 1, 1)),
    ("depthwise_conv2d", _depthwise((2, 1, 7, 7), 1, 0)),
    ("depthwise_conv2d", _depthwise((2, 2, 3, 3), 1, 1)),
    ("pointwise_conv2d", lambda: T.pointwise_conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                                                    Tensor(np.zeros((3, 2, 3, 3))))),
    ("conv_transpose2d", _transpose(2, 1)),
    ("conv_transpose2d", _transpose(3, 2)),
    ("conv_transpose2d", _transpose(2, 3)),
], ids=["dw-stride-0", "dw-padding-neg", "dw-non-square", "dw-empty-output", "dw-layout",
        "pw-not-1x1", "tconv-k2-s1", "tconv-k3-s2", "tconv-k2-s3"])
def test_conv_operand_contract(op, call):
    with pytest.raises(T.ShapeError, match=op):
        call()


def test_sigmoid_at_zero():
    x = Tensor(np.zeros(1), requires_grad=True)
    y = T.tsum(T.sigmoid(x))
    assert y.item() == pytest.approx(0.5)
    T.backward(y)
    assert x.grad[0] == pytest.approx(0.25)


def test_relu6_clamps_both_sides():
    x = Tensor(np.array([7.0, -1.0, 3.0]))
    out = T.relu6(x)
    np.testing.assert_allclose(out.data, [6.0, 0.0, 3.0])


def test_broadcast_add_per_channel():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((1, 3, 4, 4)))
    b = Tensor(rng.standard_normal((1, 3, 1, 1)))
    out = T.add(a, b)
    ref = np.empty_like(a.data)
    for c in range(3):
        for i in range(4):
            for j in range(4):
                ref[0, c, i, j] = a.data[0, c, i, j] + b.data[0, c, 0, 0]
    np.testing.assert_allclose(out.data, ref)


def test_add_rejects_non_broadcastable():
    with pytest.raises(T.ShapeError, match="broadcast"):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_softmax_single_element():
    out = T.softmax(Tensor(np.array([[4.2]])), axis=1)
    assert out.data[0, 0] == pytest.approx(1.0)


def test_softmax_closed_form():
    x = Tensor(np.log(np.array([1.0, 3.0])))
    out = T.softmax(x, axis=0)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-7)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 7)).astype(np.float64)
    out = T.softmax(Tensor(x, dtype=np.float64), axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
    shifted = T.softmax(Tensor(x + 13.7, dtype=np.float64), axis=1)
    np.testing.assert_allclose(out.data, shifted.data, atol=1e-6)


def test_softmax_axis_out_of_range():
    with pytest.raises(T.ShapeError, match="axis"):
        T.softmax(Tensor(np.zeros((2, 2))), axis=2)


def test_variance_of_constant_is_zero():
    assert T.variance(Tensor(np.full((3, 3), 2.5))).item() == 0.0


def test_variance_population_form():
    x = Tensor(np.array([0.0, 1.0, 0.0, 1.0]))
    assert T.variance(x).item() == pytest.approx(0.25)


def test_concat_split_roundtrip():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((2, 6, 3, 3)))
    parts = T.split(x, 2, axis=1)
    assert [p.shape for p in parts] == [(2, 3, 3, 3), (2, 3, 3, 3)]
    back = T.concat(parts, axis=1)
    np.testing.assert_array_equal(back.data, x.data)


def test_split_rejects_non_dividing():
    with pytest.raises(T.ShapeError, match="divide"):
        T.split(Tensor(np.zeros((1, 5, 2, 2))), 2, axis=1)


def test_matmul_batched():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((3, 4, 5))
    out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
    np.testing.assert_allclose(out.data, a @ b)


def test_matmul_inner_dim_error():
    with pytest.raises(T.ShapeError, match="inner"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_forward_determinism():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
    w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
    a = T.conv2d(Tensor(x), Tensor(w), 2, 1).data
    b = T.conv2d(Tensor(x), Tensor(w), 2, 1).data
    assert np.array_equal(a, b)
    T.reset_tape()
