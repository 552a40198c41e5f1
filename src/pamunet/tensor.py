"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the network is a :class:`Tensor` wrapping a numpy
array (canonical image layout N,C,H,W).  Operations record closures onto a
thread-local tape; ``backward(loss)`` replays the tape in reverse, accumulates
gradients into every ``requires_grad`` tensor reachable from the loss, and
then drops the tape.  There is no support for higher-order gradients.

The default dtype is float32; gradient-check code switches to float64 with
``using_dtype(np.float64)``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


class GradError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, dead tape)."""


_DTYPE = threading.local()


def default_dtype():
    return getattr(_DTYPE, "value", np.float32)


def set_default_dtype(dtype) -> None:
    _DTYPE.value = np.dtype(dtype).type


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the dtype used for newly created tensors."""
    old = default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


class Tape:
    """Ordered record of one forward pass.

    Nodes are appended in creation order, which is automatically a topological
    order (inputs exist before their consumers).  ``generation`` increments
    each time the tape is consumed so stale tensors can be detected.
    """

    def __init__(self):
        self.nodes: list[tuple[tuple[Tensor, ...], callable]] = []
        self.generation = 0


_STATE = threading.local()


def _tls():
    if not hasattr(_STATE, "tape"):
        _STATE.tape = Tape()
        _STATE.grad_enabled = True
    return _STATE


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / FD loops)."""
    st = _tls()
    old = st.grad_enabled
    st.grad_enabled = False
    try:
        yield
    finally:
        st.grad_enabled = old


class Tensor:
    """Numeric array plus optional gradient slot and tape handle."""

    __slots__ = ("data", "requires_grad", "grad", "node_id", "_gen")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or default_dtype())
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node_id: int | None = None
        self._gen: int = -1

    @classmethod
    def _wrap(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.requires_grad = requires_grad
        t.grad = None
        t.node_id = None
        t._gen = -1
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data, False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"


# -- tape plumbing ---------------------------------------------------------

def record_op(backward_fn, outputs: Sequence[Tensor]) -> None:
    """Attach a backward closure producing grads for ``outputs``.

    ``backward_fn`` receives the upstream gradient (a single ndarray for one
    output, a tuple of ndarray-or-None for several) and must accumulate into
    the op's inputs via :func:`accumulate_grad`.  :func:`_out` is the only
    caller; the function keeps its own public name because perfbench's tracer
    wraps ``tensor.record_op`` to count tape nodes and time each backward.
    """
    st = _tls()
    tape = st.tape
    tape.nodes.append((tuple(outputs), backward_fn))
    nid = len(tape.nodes) - 1
    for o in outputs:
        o.node_id = nid
        o._gen = tape.generation


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # fresh arrays of the right dtype are adopted without copying; grads
        # are never mutated in place, so aliasing a shared upstream array is safe
        if isinstance(g, np.ndarray) and g.base is None and g.dtype == t.data.dtype \
                and g.shape == t.data.shape:
            t.grad = g
        else:
            t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=t.data.dtype)
    else:
        t.grad = t.grad + g


def _out(data, inputs, backward_fn):
    """Wrap an op's result, one array or a tuple of arrays, as tensors, and
    record ``backward_fn`` as one tape node when recording is on and any of
    ``inputs`` (``None`` entries allowed) requires grad."""
    track = _tls().grad_enabled and any(t is not None and t.requires_grad for t in inputs)
    several = type(data) is tuple
    outs = tuple(Tensor._wrap(d, track) for d in data) if several else (Tensor._wrap(data, track),)
    if track:
        record_op(backward_fn, outs)
    return outs if several else outs[0]


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; consumes and drops the tape."""
    if loss.data.size != 1:
        raise GradError(f"backward needs a scalar loss, got shape {loss.shape}")
    st = _tls()
    tape = st.tape
    if loss.node_id is None or loss._gen != tape.generation:
        raise GradError("loss is not attached to a live tape (tape already consumed, or recording was off)")
    loss.grad = np.ones_like(loss.data)
    for outputs, fn in reversed(tape.nodes):
        if len(outputs) == 1:
            g = outputs[0].grad
            if g is not None:
                fn(g)
        else:
            gs = tuple(o.grad for o in outputs)
            if any(g is not None for g in gs):
                fn(gs)
    tape.nodes.clear()
    tape.generation += 1


def reset_tape() -> None:
    """Drop any recorded nodes without running backward."""
    st = _tls()
    st.tape.nodes.clear()
    st.tape.generation += 1


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap scalars/arrays as tensors, matching the other operand's dtype so a
    python-float constant never degrades a float64 computation."""
    if isinstance(a, Tensor):
        return a, (b if isinstance(b, Tensor) else Tensor(b, dtype=a.data.dtype))
    if isinstance(b, Tensor):
        return Tensor(a, dtype=b.data.dtype), b
    return Tensor(a), Tensor(b)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    for i, (da, db) in enumerate(zip(a.shape[::-1], b.shape[::-1])):
        if da != db and da != 1 and db != 1:
            raise ShapeError(
                f"shapes {a.shape} and {b.shape} are not broadcastable: "
                f"axis -{i + 1} has sizes {da} and {db}"
            )


# -- elementwise -----------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)

    def bw(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(g, b.shape))

    return _out(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)

    def bw(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(-g, b.shape))

    return _out(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)

    def bw(g):
        accumulate_grad(a, _unbroadcast(g * b.data, a.shape))
        accumulate_grad(b, _unbroadcast(g * a.data, b.shape))

    return _out(a.data * b.data, (a, b), bw)


def relu6(x) -> Tensor:
    """clamp(x, 0, 6): the tests' reference for the convs' ``relu6=True``."""
    return clamp(x, 0, 6)


def clamp(x, lo: float, hi: float) -> Tensor:
    x = _as_tensor(x)
    data = np.minimum(np.maximum(x.data, lo), hi)

    def bw(g):
        mask = (x.data > lo) & (x.data < hi)
        accumulate_grad(x, g * mask)

    return _out(data, (x,), bw)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    out_data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                        np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out_data = out_data.astype(d.dtype, copy=False)

    def bw(g):
        accumulate_grad(x, g * out_data * (1.0 - out_data))

    return _out(out_data, (x,), bw)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.tanh(x.data)

    def bw(g):
        accumulate_grad(x, g * (1.0 - out_data * out_data))

    return _out(out_data, (x,), bw)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.exp(x.data)

    def bw(g):
        accumulate_grad(x, g * out_data)

    return _out(out_data, (x,), bw)


def log(x) -> Tensor:
    x = _as_tensor(x)

    def bw(g):
        accumulate_grad(x, g / x.data)

    return _out(np.log(x.data), (x,), bw)


# -- linear algebra / reductions --------------------------------------------

def matmul(a, b) -> Tensor:
    """2-D or batched (equal leading dims) matrix product."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.ndim != b.ndim:
        raise ShapeError(f"matmul operands must have equal rank, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape[:-2]} vs {b.shape[:-2]}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dims differ: last axis of a is {a.shape[-1]}, "
            f"second-to-last of b is {b.shape[-2]}"
        )

    def bw(g):
        accumulate_grad(a, g @ b.data.swapaxes(-1, -2))
        accumulate_grad(b, a.data.swapaxes(-1, -2) @ g)

    return _out(a.data @ b.data, (a, b), bw)


def softmax(x, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis``; rows sum to 1."""
    x = _as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        accumulate_grad(x, out_data * (g - dot))

    return _out(out_data, (x,), bw)


def tsum(x) -> Tensor:
    x = _as_tensor(x)

    def bw(g):
        accumulate_grad(x, np.broadcast_to(g, x.shape))

    return _out(np.asarray(x.data.sum()), (x,), bw)


def mean(x) -> Tensor:
    x = _as_tensor(x)
    n = x.data.size

    def bw(g):
        accumulate_grad(x, np.broadcast_to(g / n, x.shape))

    return _out(np.asarray(x.data.mean()), (x,), bw)


def variance(x) -> Tensor:
    """Population variance (divide by N) over all entries."""
    x = _as_tensor(x)
    n = x.data.size
    m = x.data.mean()
    centered = x.data - m

    def bw(g):
        accumulate_grad(x, g * (2.0 / n) * centered)

    return _out(np.asarray((centered * centered).mean(), dtype=x.data.dtype), (x,), bw)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)

    def bw(g):
        accumulate_grad(x, g.reshape(x.shape))

    return _out(x.data.reshape(shape), (x,), bw)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        accumulate_grad(x, g.transpose(inv))

    return _out(x.data.transpose(axes), (x,), bw)


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    nd = ts[0].ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"concat axis {axis} out of range for rank {nd}")
    axis = axis % nd
    for t in ts[1:]:
        if t.ndim != nd or any(i != axis and a != b for i, (a, b) in enumerate(zip(t.shape, ts[0].shape))):
            raise ShapeError(f"concat shapes {ts[0].shape} and {t.shape} differ off axis {axis}")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * nd
            idx[axis] = slice(lo, hi)
            accumulate_grad(t, g[tuple(idx)])

    return _out(np.concatenate([t.data for t in ts], axis=axis), ts, bw)


def split(x, parts: int, axis: int) -> list[Tensor]:
    """Split into ``parts`` equal chunks along ``axis``."""
    x = _as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"split axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    length = x.shape[axis]
    if parts < 1 or length % parts != 0:
        raise ShapeError(f"split into {parts} parts does not divide axis {axis} of length {length}")
    chunks = tuple(np.split(x.data, parts, axis=axis))

    def bw(gs):
        full = [g if g is not None else np.zeros_like(chunks[i]) for i, g in enumerate(gs)]
        accumulate_grad(x, np.concatenate(full, axis=axis))

    return list(_out(chunks, (x,), bw))


# -- convolutions ------------------------------------------------------------

def _conv_out_hw(hw, k: int, stride: int, padding: int = 0, transposed: bool = False) -> tuple[int, int]:
    """Output (H, W) of a k x k conv, or of an unpadded transposed conv, over ``hw``."""
    h, w = hw
    if transposed:
        return (h - 1) * stride + k, (w - 1) * stride + k
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two trailing axes (faster than np.pad for this case)."""
    if p == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p:p + h, p:p + w] = x
    return out


def _tap(i: int, j: int, ho: int, wo: int, stride: int) -> tuple:
    """Index of the strided (ho, wo) grid of kernel tap (i, j) in a padded (N,C,H,W) array."""
    return (slice(None), slice(None),
            slice(i, i + (ho - 1) * stride + 1, stride),
            slice(j, j + (wo - 1) * stride + 1, stride))


def _gather(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Contiguous (N,Ho,Wo,C,k,k) copy of the kxk taps of a padded (N,C,H,W) array."""
    n, c = xp.shape[:2]
    win = np.empty((n, ho, wo, c, k, k), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            win[:, :, :, :, i, j] = xp[_tap(i, j, ho, wo, stride)].transpose(0, 2, 3, 1)
    return win


def _scatter(grid: np.ndarray, win: np.ndarray, stride: int) -> np.ndarray:
    """Adjoint of _gather: add (N,Ho,Wo,C,k,k) taps into a padded (N,C,H,W) grid."""
    _, ho, wo, _, k, _ = win.shape
    for i in range(k):
        for j in range(k):
            grid[_tap(i, j, ho, wo, stride)] += win[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return grid


def _conv_node(out: np.ndarray, inputs, bias, relu6: bool, conv_bw) -> Tensor:
    """Add the (C_out,1,1) ``bias`` and clamp to [0, 6] in place on a conv's fresh
    output, keeping its layout, and record one tape node for all three.  The mask
    ``0 < y < 6`` on the output is exactly ``0 < x < 6`` on the pre-activation."""
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (out.shape[1], 1, 1):
            raise ShapeError(f"conv bias must be ({out.shape[1]},1,1), got {bias.shape}")
        out += bias.data
    if relu6:
        np.maximum(out, 0, out=out)
        np.minimum(out, 6, out=out)

    def bw(g):
        if relu6:
            g = g * ((out > 0) & (out < 6))
        if bias is not None:
            accumulate_grad(bias, _unbroadcast(g, bias.shape))
        conv_bw(g)

    return _out(out, (*inputs, bias), bw)


def conv2d(x, kernel, stride: int = 1, padding: int = 0, *, bias=None, relu6: bool = False) -> Tensor:
    """Vanilla 2-D convolution (cross-correlation) with zero padding."""
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be (N,C,H,W), got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"conv2d kernel must be (C_out,C_in,k,k), got {kernel.shape}")
    n, c, h, w = x.shape
    c_out, c_in, k, _ = kernel.shape
    if c != c_in:
        raise ShapeError(f"conv2d channel axis mismatch: input has {c} channels, kernel expects {c_in}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    ho, wo = _conv_out_hw((h, w), k, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {h}x{w}, k={k}, s={stride}, p={padding}")

    xp = _pad2d(x.data, padding)
    cols = _gather(xp, k, stride, ho, wo).reshape(n, ho * wo, c * k * k)
    wm = kernel.data.reshape(c_out, c * k * k)
    out_data = (cols @ wm.T).transpose(0, 2, 1).reshape(n, c_out, ho, wo)  # channels-last

    def bw(g):
        gf = g.reshape(n, c_out, ho * wo).transpose(0, 2, 1)
        accumulate_grad(kernel, np.tensordot(gf, cols, axes=([0, 1], [0, 1])).reshape(kernel.shape))
        if x.requires_grad:
            gxp = _scatter(np.zeros_like(xp), (gf @ wm).reshape(n, ho, wo, c, k, k), stride)
            accumulate_grad(x, gxp[:, :, padding:padding + h, padding:padding + w])

    return _conv_node(out_data, (x, kernel), bias, relu6, bw)


def depthwise_conv2d(x, kernel_d, stride: int = 1, padding: int = 0, *, bias=None, relu6: bool = False) -> Tensor:
    """Per-channel spatial convolution: channel c sees only kernel_d[c]."""
    x, kernel_d = _as_tensor(x), _as_tensor(kernel_d)
    if x.ndim != 4:
        raise ShapeError(f"depthwise_conv2d input must be (N,C,H,W), got {x.shape}")
    if kernel_d.ndim != 4 or kernel_d.shape[1] != 1:
        raise ShapeError(f"depthwise kernel must be (C,1,k,k), got {kernel_d.shape}")
    n, c, h, w = x.shape
    ck, _, k, _ = kernel_d.shape
    if c != ck:
        raise ShapeError(f"depthwise channel axis mismatch: input has {c} channels, kernel has {ck}")
    ho, wo = _conv_out_hw((h, w), k, stride, padding)

    # a per-tap multiply-accumulate: a gathered (k*k)-fold copy of the expanded
    # activations would dominate memory at full resolution.  Backward pads again.
    xp = _pad2d(x.data, padding)
    kd = kernel_d.data[:, 0]
    out_data = np.empty((n, c, ho, wo), dtype=xp.dtype)
    tmp = np.empty_like(out_data)
    for t, (i, j) in enumerate(np.ndindex(k, k)):
        np.multiply(xp[_tap(i, j, ho, wo, stride)], kd[None, :, i, j, None, None],
                    out=tmp if t else out_data)
        if t:
            out_data += tmp

    def bw(g):
        xp = _pad2d(x.data, padding)
        gk = np.empty((c, k, k), dtype=g.dtype)
        for i in range(k):
            for j in range(k):
                gk[:, i, j] = np.einsum("nchw,nchw->c", g, xp[_tap(i, j, ho, wo, stride)],
                                        optimize=False)
        accumulate_grad(kernel_d, gk[:, None])
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            prod = np.empty_like(g)
            for i in range(k):
                for j in range(k):
                    np.multiply(g, kd[None, :, i, j, None, None], out=prod)
                    gxp[_tap(i, j, ho, wo, stride)] += prod
            accumulate_grad(x, gxp[:, :, padding:padding + h, padding:padding + w])

    return _conv_node(out_data, (x, kernel_d), bias, relu6, bw)


def pointwise_conv2d(x, kernel_p, *, bias=None, relu6: bool = False) -> Tensor:
    """1x1 convolution: a per-pixel linear map across channels."""
    x, kernel_p = _as_tensor(x), _as_tensor(kernel_p)
    if x.ndim != 4:
        raise ShapeError(f"pointwise_conv2d input must be (N,C,H,W), got {x.shape}")
    if kernel_p.ndim != 4 or kernel_p.shape[2:] != (1, 1):
        raise ShapeError(f"pointwise kernel must be (C_out,C_in,1,1), got {kernel_p.shape}")
    n, c, h, w = x.shape
    c_out, c_in = kernel_p.shape[:2]
    if c != c_in:
        raise ShapeError(f"pointwise channel axis mismatch: input has {c} channels, kernel expects {c_in}")
    m = kernel_p.data[:, :, 0, 0]
    # one (C_out,C_in) @ (C_in,H*W) product per sample, straight into the output
    out_data = np.empty((n, c_out, h, w), dtype=np.result_type(x.data, m))
    np.matmul(m, x.data.reshape(n, c, h * w), out=out_data.reshape(n, c_out, h * w))

    def bw(g):
        g3 = g.reshape(n, c_out, h * w)
        gm = (g3 @ x.data.reshape(n, c, h * w).transpose(0, 2, 1)).sum(axis=0)
        accumulate_grad(kernel_p, gm.reshape(kernel_p.shape))
        if x.requires_grad:
            gx = np.empty(x.shape, dtype=np.result_type(g3, m))
            np.matmul(m.T, g3, out=gx.reshape(n, c, h * w))
            accumulate_grad(x, gx)

    return _conv_node(out_data, (x, kernel_p), bias, relu6, bw)


def conv_transpose2d(x, kernel, stride: int, *, bias=None) -> Tensor:
    """Transposed convolution; output spatial size (H-1)*stride + k."""
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 4:
        raise ShapeError(f"conv_transpose2d input must be (N,C,H,W), got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"conv_transpose2d kernel must be (C_in,C_out,k,k), got {kernel.shape}")
    if stride not in (1, 2):
        raise ShapeError(f"conv_transpose2d supports stride 1 or 2, got {stride}")
    n, c, h, w = x.shape
    c_in, c_out, k, _ = kernel.shape
    if c != c_in:
        raise ShapeError(f"conv_transpose2d channel axis mismatch: input has {c} channels, kernel expects {c_in}")
    ho, wo = _conv_out_hw((h, w), k, stride, transposed=True)

    # (N,H,W,C_out,k,k) contributions scattered onto the strided output grid
    out_data = _scatter(np.zeros((n, c_out, ho, wo), dtype=x.data.dtype),
                        np.tensordot(x.data, kernel.data, axes=([1], [0])), stride)

    def bw(g):
        gwin = _gather(g, k, stride, h, w)
        accumulate_grad(kernel, np.tensordot(x.data, gwin, axes=([0, 2, 3], [0, 1, 2])))
        if x.requires_grad:
            gx = np.tensordot(gwin, kernel.data, axes=([3, 4, 5], [1, 2, 3]))
            accumulate_grad(x, gx.transpose(0, 3, 1, 2))

    return _conv_node(out_data, (x, kernel), bias, False, bw)
