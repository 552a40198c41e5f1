"""Parameterized layers: mobile conv primitives and the blocks built from them.

Every conv layer and IR block knows three things: how to run forward on a
Tensor, what spatial size it produces for a given input size (without
running), and how many multiply-accumulates that forward costs.  The static
shape/MAC methods back the FLOPs counter and the shape-total tests.  The
decoder up blocks are pairs of such layers with one FLOPs row per fuse.

No normalization layers are used; convs carry biases instead.  ``Conv2d``,
``DepthwiseConv`` and ``PointwiseConv(relu6=True)`` apply ReLU6 in their conv op.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from pamunet import tensor as T
from pamunet.tensor import ShapeError, Tensor


class Module:
    """Minimal parameter container with hierarchical naming.

    Tensor/Module attributes are auto-registered (insertion-ordered) unless
    the attribute name starts with an underscore, which lets composite layers
    keep plain references without double-counting parameters.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if not name.startswith("_"):
            if isinstance(value, Tensor):
                self._params[name] = value
            elif isinstance(value, Module):
                self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class _Conv(Module):
    """Owns a conv layer's kernel and (C_out,1,1) bias, in that order, its output
    size and its MACs: one per kernel weight per position of the grid the kernel
    slides over, the output grid or, for a transposed conv, the input grid."""

    _transposed = False

    def __init__(self, kernel_shape, c_bias: int, k: int = 1, stride: int = 1, padding: int = 0):
        super().__init__()
        self.k, self.stride, self.padding = k, stride, padding
        self.kernel = _zeros(*kernel_shape)
        self.bias = _zeros(c_bias, 1, 1)

    def out_hw(self, hw):
        return T._conv_out_hw(hw, self.k, self.stride, self.padding, self._transposed)

    def macs(self, hw) -> int:
        h, w = hw if self._transposed else self.out_hw(hw)
        return self.kernel.size * h * w


class Conv2d(_Conv):
    """Vanilla convolution + bias + ReLU6."""

    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1, padding: int = 0):
        super().__init__((c_out, c_in, k, k), c_out, k, stride, padding)

    def forward(self, x):
        return T.conv2d(x, self.kernel, self.stride, self.padding, bias=self.bias, relu6=True)


class PointwiseConv(_Conv):
    """1x1 conv: per-pixel linear map across channels."""

    def __init__(self, c_in: int, c_out: int, relu6: bool = False):
        super().__init__((c_out, c_in, 1, 1), c_out)
        self.c_in, self.c_out, self.relu6 = c_in, c_out, relu6

    def forward(self, x):
        return T.pointwise_conv2d(x, self.kernel, bias=self.bias, relu6=self.relu6)


class DepthwiseConv(_Conv):
    """Per-channel convolution + bias + ReLU6."""

    def __init__(self, channels: int, k: int = 3, stride: int = 1, padding: int = 1):
        super().__init__((channels, 1, k, k), channels, k, stride, padding)

    def forward(self, x):
        return T.depthwise_conv2d(x, self.kernel, self.stride, self.padding, bias=self.bias, relu6=True)


class ConvTranspose2d(_Conv):
    _transposed = True

    def __init__(self, c_in: int, c_out: int, k: int = 2, stride: int = 2):
        super().__init__((c_in, c_out, k, k), c_out, k, stride)

    def forward(self, x):
        return T.conv_transpose2d(x, self.kernel, self.stride, bias=self.bias)


class DSConvLayer(Module):
    """Depthwise filter per channel followed by a pointwise channel mix."""

    def __init__(self, c_in: int, c_out: int, k: int = 3, stride: int = 1, padding: int = 1):
        super().__init__()
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.padding = stride, padding
        self.kernel_d = _zeros(c_in, 1, k, k)
        self.kernel_p = _zeros(c_out, c_in, 1, 1)
        self.bias = _zeros(c_out, 1, 1)

    def forward(self, x):
        if x.shape[1] != self.c_in:
            raise ShapeError(f"DSConvLayer expects {self.c_in} channels, got {x.shape[1]}")
        h = T.depthwise_conv2d(x, self.kernel_d, self.stride, self.padding)
        return T.pointwise_conv2d(h, self.kernel_p, bias=self.bias)

    def out_hw(self, hw):
        return T._conv_out_hw(hw, self.k, self.stride, self.padding)

    def macs(self, hw) -> int:
        ho, wo = self.out_hw(hw)
        return self.k * self.k * self.c_in * ho * wo + self.c_in * self.c_out * ho * wo


class IRBlock(Module):
    """Inverted residual bottleneck: expand 1x1 -> depthwise 3x3 -> project 1x1.

    The projection is linear; the residual is taken only when stride is 1 and
    the channel count is preserved.
    """

    def __init__(self, c_in: int, c_out: int, stride: int = 1, expansion: int = 6):
        super().__init__()
        if expansion < 1:
            raise ValueError(f"expansion factor must be >= 1, got {expansion}")
        if stride not in (1, 2):
            raise ValueError(f"IRBlock stride must be 1 or 2, got {stride}")
        self.c_in, self.c_out, self.stride, self.expansion = c_in, c_out, stride, expansion
        hidden = c_in * expansion
        self.expand = PointwiseConv(c_in, hidden, relu6=True)
        self.depthwise = DepthwiseConv(hidden, k=3, stride=stride, padding=1)
        self.project = PointwiseConv(hidden, c_out)
        self.use_residual = stride == 1 and c_in == c_out

    def forward(self, x):
        if x.shape[1] != self.c_in:
            raise ShapeError(f"IRBlock expects {self.c_in} channels, got {x.shape[1]}")
        h = self.project(self.depthwise(self.expand(x)))
        return T.add(h, x) if self.use_residual else h

    def out_hw(self, hw):
        return self.depthwise.out_hw(hw)

    def macs(self, hw) -> int:
        mid_hw = self.depthwise.out_hw(hw)
        return self.expand.macs(hw) + self.depthwise.macs(hw) + self.project.macs(mid_hw)


class UpBlock(Module):
    """Mobile decoder stage: stride-2 transposed conv (k=2, exact doubling),
    then an IR block whose input is widened to ``fuse_in`` channels by the
    skip connection concatenated between the two halves.

    Decoder up blocks share one interface: ``deconv`` upsamples, ``fuse(m)``
    runs the second half on the concatenated map ``m``, and
    ``fuse_site(prefix, hw)`` is the FLOPs row of that fuse at grid ``hw``.
    """

    def __init__(self, c_in: int, c_out: int, fuse_in: int, expansion: int = 6):
        super().__init__()
        self.deconv = ConvTranspose2d(c_in, c_out, k=2, stride=2)
        self.ir = IRBlock(fuse_in, c_out, stride=1, expansion=expansion)

    def fuse(self, m):
        return self.ir(m)

    def fuse_site(self, prefix: str, hw):
        return f"{prefix}.ir", "irblock", self.ir.macs(hw)


class VanillaUpBlock(Module):
    """Plain decoder stage: transposed conv then a 3x3 conv, no IR refinement."""

    def __init__(self, c_in: int, c_out: int, fuse_in: int):
        super().__init__()
        self.deconv = ConvTranspose2d(c_in, c_out, k=2, stride=2)
        self.conv = Conv2d(fuse_in, c_out, k=3, stride=1, padding=1)

    def fuse(self, m):
        return self.conv(m)

    def fuse_site(self, prefix: str, hw):
        return f"{prefix}.conv", "conv", self.conv.macs(hw)


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) > 1:
        return int(np.prod(shape[1:]))
    return shape[0]


def param_rng(seed: int, name: str) -> np.random.Generator:
    """Per-parameter generator: a pure function of (seed, parameter name).

    Keyed by name so two models sharing layer names get bitwise-identical
    values for those layers regardless of what else they contain.
    """
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def init_parameters(module: Module, seed: int, zero_gates: bool = False) -> None:
    """Kaiming-uniform (fan-in) kernels, zero biases and gains; seeded.

    Gate output gains start at zero, so attention gates are pass-throughs at
    initialization and open up only as training finds the attended signal
    useful.  With ``zero_gates`` every parameter under a ``gate`` component is
    zeroed, which additionally makes the gates exact SGD fixed points.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    for name, p in module.named_parameters():
        parts = name.split(".")
        if zero_gates and "gate" in parts:
            p.data[...] = 0.0
        elif name.endswith("bias") or name.endswith("gain"):
            p.data[...] = 0.0
        else:
            bound = math.sqrt(6.0 / _fan_in(p.shape))
            p.data[...] = param_rng(seed, name).uniform(-bound, bound, p.shape)
