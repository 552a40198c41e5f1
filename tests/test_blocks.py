"""Layer-level tests: DSConv, inverted residual, up block, init determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gradcheck import check_gradients
from pamunet import tensor as T
from pamunet.blocks import (Conv2d, ConvTranspose2d, DepthwiseConv, DSConvLayer, IRBlock,
                            PointwiseConv, UpBlock, init_parameters, param_rng)
from pamunet.tensor import ShapeError, Tensor


def test_dsconv_identity_composition():
    layer = DSConvLayer(3, 3, k=1, stride=1, padding=0)
    layer.kernel_d.data[...] = 1.0
    layer.kernel_p.data[...] = np.eye(3).reshape(3, 3, 1, 1)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 5, 5)))
    out = layer(x)
    np.testing.assert_allclose(out.data, x.data, atol=1e-6)


def test_dsconv_shape():
    layer = DSConvLayer(3, 32, k=3, stride=2, padding=1)
    init_parameters(layer, 0)
    out = layer(Tensor(np.zeros((1, 3, 128, 128))))
    assert out.shape == (1, 32, 64, 64)
    assert layer.out_hw((128, 128)) == (64, 64)


def test_dsconv_matches_op_composition():
    rng = np.random.default_rng(1)
    with T.using_dtype(np.float64):
        layer = DSConvLayer(2, 4, k=3, stride=1, padding=1)
        init_parameters(layer, 3)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        out = layer(x)
        ref = T.add(T.pointwise_conv2d(
            T.depthwise_conv2d(x, layer.kernel_d, 1, 1), layer.kernel_p), layer.bias)
    np.testing.assert_array_equal(out.data, ref.data)


def test_dsconv_channel_mismatch():
    layer = DSConvLayer(2, 4)
    with pytest.raises(ShapeError, match="channels"):
        layer(Tensor(np.zeros((1, 3, 4, 4))))


def test_irblock_residual_passthrough():
    block = IRBlock(4, 4, stride=1, expansion=6)  # all params start at zero
    assert block.use_residual
    x = Tensor(np.random.default_rng(2).standard_normal((2, 4, 6, 6)))
    np.testing.assert_array_equal(block(x).data, x.data)


def test_irblock_shapes_and_hidden_width():
    block = IRBlock(4, 4, stride=2, expansion=6)
    init_parameters(block, 1)
    assert block.expand.c_out == 24
    assert not block.use_residual
    out = block(Tensor(np.zeros((1, 4, 16, 16))))
    assert out.shape == (1, 4, 8, 8)
    same = IRBlock(4, 4, stride=1)
    init_parameters(same, 1)
    assert same(Tensor(np.zeros((1, 4, 16, 16)))).shape == (1, 4, 16, 16)


def test_irblock_rejects_bad_config():
    with pytest.raises(ValueError, match="expansion"):
        IRBlock(4, 4, expansion=0)
    with pytest.raises(ValueError, match="stride"):
        IRBlock(4, 4, stride=3)


def test_irblock_channel_mismatch():
    # the expand conv's operand check is the block's only channel check
    with pytest.raises(ShapeError, match="channel"):
        IRBlock(4, 4)(Tensor(np.zeros((1, 3, 4, 4))))


def test_conv_transpose_needs_stride_equal_to_k():
    with pytest.raises(ValueError, match=r"stride 1, k=2"):
        ConvTranspose2d(4, 2, k=2, stride=1)
    assert ConvTranspose2d(16, 4, k=2, stride=2).out_hw((8, 8)) == (16, 16)  # criterion 6


def test_irblock_residual_gradient_with_zeroed_convs():
    block = IRBlock(3, 3, stride=1)
    x = Tensor(np.random.default_rng(3).standard_normal((1, 3, 4, 4)), requires_grad=True)
    out = block(x)
    T.backward(T.tsum(out))
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_upblock_shape_and_zero_kernel():
    block = UpBlock(8, 4, fuse_in=8)
    rng = np.random.default_rng(4)
    up = block.deconv(Tensor(rng.standard_normal((1, 8, 8, 8))))
    out = block.fuse(T.concat([up, Tensor(rng.standard_normal((1, 4, 16, 16)))], axis=1))
    assert out.shape == (1, 4, 16, 16)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))  # zero params
    assert block.fuse_site("dec0.up", (16, 16)) == ("dec0.up.ir", "irblock",
                                                    block.ir.macs((16, 16)))


def test_upblock_matches_composition():
    with T.using_dtype(np.float64):
        block = UpBlock(3, 2, fuse_in=4)
        init_parameters(block, 5)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        skip = Tensor(rng.standard_normal((1, 2, 8, 8)))
        out = block.fuse(T.concat([block.deconv(x), skip], axis=1))
        up = T.add(T.conv_transpose2d(x, block.deconv.kernel, 2), block.deconv.bias)
        ref = block.ir(T.concat([up, skip], axis=1))
    np.testing.assert_array_equal(out.data, ref.data)


def test_static_shapes_match_forward():
    for layer, c_in, hw in [
        (Conv2d(3, 5, 3, stride=2, padding=1), 3, (9, 11)),
        (PointwiseConv(4, 6), 4, (5, 3)),
        (DepthwiseConv(4, stride=2), 4, (9, 6)),
        (DSConvLayer(4, 6, stride=2), 4, (10, 10)),
        (DSConvLayer(3, 5, k=3, stride=2, padding=1), 3, (9, 7)),
        (IRBlock(4, 7, stride=2), 4, (12, 8)),
        (ConvTranspose2d(4, 2), 4, (5, 7)),
        (ConvTranspose2d(4, 1, k=1, stride=1), 4, (6, 5)),  # the head
    ]:
        init_parameters(layer, 9)
        x = Tensor(np.zeros((1, c_in) + hw))
        out = layer(x)
        assert out.shape[2:] == layer.out_hw(hw)
        # perfbench's op-side rule: one kernel slice per output element, or
        # per input element for a transposed conv
        if isinstance(layer, DSConvLayer):
            mid = T.depthwise_conv2d(x, layer.kernel_d, layer.stride, layer.padding)
            assert layer.macs(hw) == mid.size * layer.k ** 2 + out.size * c_in
        elif not isinstance(layer, IRBlock):
            slid = x if isinstance(layer, ConvTranspose2d) else out
            assert layer.macs(hw) == slid.size * math.prod(layer.kernel.shape[1:])


def test_dsconv_to_vanilla_mac_ratio_is_exact():
    k, c_in, c_out, hw = 3, 16, 32, (14, 14)
    ds = DSConvLayer(c_in, c_out, k=k, stride=1, padding=1)
    vanilla = Conv2d(c_in, c_out, k, stride=1, padding=1)
    ratio = Fraction(ds.macs(hw), vanilla.macs(hw))
    assert ratio == Fraction(1, c_out) + Fraction(1, k * k)


def test_init_is_seed_deterministic_and_name_keyed():
    a, b = IRBlock(3, 5), IRBlock(3, 5)
    init_parameters(a, 42)
    init_parameters(b, 42)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    c = IRBlock(3, 5)
    init_parameters(c, 43)
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters()))


def test_param_rng_is_stable():
    # Anchor the (seed, name) keying so checkpoints stay reproducible.
    v1 = param_rng(7, "enc0.block0.expand.kernel").uniform(-1, 1, 3)
    v2 = param_rng(7, "enc0.block0.expand.kernel").uniform(-1, 1, 3)
    v3 = param_rng(7, "enc0.block1.expand.kernel").uniform(-1, 1, 3)
    np.testing.assert_array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


def test_irblock_gradcheck():
    with T.using_dtype(np.float64):
        block = IRBlock(2, 2, stride=1, expansion=2)
        init_parameters(block, 11)
        x = Tensor(np.random.default_rng(11).standard_normal((1, 2, 4, 4)), requires_grad=True)
        params = [p for _, p in block.named_parameters()] + [x]
        check_gradients(lambda: T.tsum(T.mul(block(x), block(x))), params, tol=1e-4)
