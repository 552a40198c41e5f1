"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the network is a :class:`Tensor` wrapping a numpy
array (canonical image layout N,C,H,W).  Operations record closures onto a
thread-local tape; ``backward(loss)`` replays the tape in reverse, accumulates
gradients into every ``requires_grad`` tensor reachable from the loss, and
then drops the tape.  There is no support for higher-order gradients.
Each thread keeps its tape, its recording switch and its default dtype in one
``threading.local`` object, ``_STATE``; ``no_grad`` and ``using_dtype`` set
one of its fields for the length of a block.

The four conv ops share one operand check, ``_conv_operands``.  Tensors are
float32 by default; gradient checks use ``using_dtype(np.float64)``.

Every conv op that pads or strides reads its input in one layout, planned by
``_phase_plan`` and filled straight from x by ``_phase_fill``: each
zero-padded plane split into its s x s stride phases.  Phase (a, b) holds
rows a, a+s, ... and columns b, b+s, ... as an (Hs, Ws) plane (at stride 1,
the padded plane itself), and all phases of all planes sit in one contiguous
(N*C, s*s, Hs+1, Ws) array.  Output (r, q) of tap (i, j) reads phase
(i mod s, j mod s) at (i//s + r, j//s + q), so with the phase flattened the
tap covers every output in one run of Ho*Ws entries from (i//s)*Ws + j//s.
That run lands on a wide (Ho, Ws) grid whose first Wo columns are the output;
the spare zero row of each phase takes the last tap's overrun.  ``conv2d``'s
im2col copies each tap's run, cut to Wo columns, and its input gradient adds
each tap's products in tap order onto those columns of zeroed phase planes.
``depthwise_conv2d`` sums the runs in row blocks of about 384 KiB of wide
output that stay in cache across all k*k taps; each output gets the same
products in the same tap order as one strided pass per tap would give it.
Its input gradient adds g's runs (g on the wide grid, zeros around) times
each tap's kernel column, in tap order, into zeroed phase planes.  The wide
columns add +-0 to sums that start at +0, and under round-to-nearest such a
sum is never -0, so no bit moves.  Both ops crop the phase planes into the x
gradient.  Depthwise's kernel gradient is one einsum per tap over g and a
strided window of the stride-1 split without the spare row, which is the
padded array: other layouts can change einsum's summation order.
``conv_transpose2d`` takes only stride == k and no padding, so its k x k
output tiles never overlap and its backward gathers g's taps as g's stride
phases, ``g[:, :, i::k, j::k]``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


class GradError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, dead tape)."""


class _State(threading.local):
    """One thread's autodiff state.  The tape's ``nodes`` are appended in
    creation order, which is a topological order (inputs exist before their
    consumers); its ``generation`` increments each time it is consumed, so a
    stale loss is detected.  ``grad_enabled`` switches recording, and
    ``dtype`` is the dtype of new tensors."""

    def __init__(self):
        self.nodes: list[tuple[tuple[Tensor, ...], callable]] = []
        self.generation = 0
        self.grad_enabled = True
        self.dtype = np.float32


_STATE = _State()


@contextmanager
def _setting(field: str, value):
    """Set one field of this thread's state inside the block, then restore it."""
    old = getattr(_STATE, field)
    setattr(_STATE, field, value)
    try:
        yield
    finally:
        setattr(_STATE, field, old)


def using_dtype(dtype):
    """Temporarily switch the dtype used for newly created tensors."""
    return _setting("dtype", np.dtype(dtype).type)


def no_grad():
    """Disable tape recording inside the block (inference / FD loops)."""
    return _setting("grad_enabled", False)


class Tensor:
    """Numeric array plus optional gradient slot and tape handle."""

    __slots__ = ("data", "requires_grad", "grad", "_gen")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _STATE.dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._gen: int = -1  # generation of the tape that recorded it; -1 until recorded

    @classmethod
    def _wrap(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.requires_grad = requires_grad
        t.grad = None
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
    _STATE.nodes.append((tuple(outputs), backward_fn))
    for o in outputs:
        o._gen = _STATE.generation


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
    track = _STATE.grad_enabled and any(t is not None and t.requires_grad for t in inputs)
    several = type(data) is tuple
    outs = tuple(Tensor._wrap(d, track) for d in data) if several else (Tensor._wrap(data, track),)
    if track:
        record_op(backward_fn, outs)
    return outs if several else outs[0]


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; consumes and drops the tape."""
    if loss.data.size != 1:
        raise GradError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._gen != _STATE.generation:
        raise GradError("loss is not attached to a live tape (tape already consumed, or recording was off)")
    loss.grad = np.ones_like(loss.data)
    for outputs, fn in reversed(_STATE.nodes):
        if len(outputs) == 1:
            g = outputs[0].grad
            if g is not None:
                fn(g)
        else:
            gs = tuple(o.grad for o in outputs)
            if any(g is not None for g in gs):
                fn(gs)
    reset_tape()


def reset_tape() -> None:
    """Drop any recorded nodes without running backward."""
    _STATE.nodes.clear()
    _STATE.generation += 1


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Wrap scalars/arrays as tensors, matching the other operand's dtype so a
    python-float constant never degrades a float64 computation, and check that
    the two shapes broadcast."""
    if isinstance(a, Tensor):
        b = b if isinstance(b, Tensor) else Tensor(b, dtype=a.data.dtype)
    elif isinstance(b, Tensor):
        a = Tensor(a, dtype=b.data.dtype)
    else:
        a, b = Tensor(a), Tensor(b)
    for i, (da, db) in enumerate(zip(a.shape[::-1], b.shape[::-1])):
        if da != db and da != 1 and db != 1:
            raise ShapeError(
                f"shapes {a.shape} and {b.shape} are not broadcastable: "
                f"axis -{i + 1} has sizes {da} and {db}"
            )
    return a, b


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise -----------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bw(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(g, b.shape))

    return _out(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bw(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(-g, b.shape))

    return _out(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)

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
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    out_data = np.where(d >= 0, 1.0 / den, e / den).astype(d.dtype, copy=False)

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
    sq = x.data - m
    sq *= sq  # backward recomputes x - m, so the tape keeps no centered copy

    def bw(g):
        d = x.data - m
        d *= g * (2.0 / n)
        accumulate_grad(x, d)

    return _out(np.asarray(sq.mean(), dtype=x.data.dtype), (x,), bw)


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
    """Output (H, W) of a k x k conv, or of a stride-k transposed conv, over ``hw``."""
    h, w = hw
    if transposed:
        return h * stride, w * stride
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


# Wide depthwise output per row block of planes: small enough that a block's
# accumulator, temporary and phase rows stay in a core's L2 across the taps.
_DW_BLOCK_BYTES = 384 * 1024


@lru_cache(maxsize=64)
def _phase_plan(h: int, w: int, k: int, stride: int, padding: int):
    """Where a k x k conv over zero-padded (h, w) planes reads once they are
    split into stride x stride phases of (hs, ws), the one layout of every
    conv (module docstring).  Returns hs, ws, the last tap's run start
    ``last``, per tap its phase and flat runs (forward over the phase,
    backward over g placed at ``last``), and per phase q the rows and columns
    of the unpadded plane it holds (xr, xc) and where they sit in it (ur, uc)."""
    s, p = stride, padding
    ho, wo = _conv_out_hw((h, w), k, s, p)
    hs, ws = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    last = (k - 1) // s * (ws + 1)
    taps = tuple(((i % s) * s + j % s, slice(st, st + ho * ws), slice(last - st, last - st + hs * ws))
                 for i, j in np.ndindex(k, k) for st in [(i // s) * ws + j // s])

    def axis(a, size):
        u0 = max(0, -((a - p) // s))  # the phase's first index inside the plane
        r0 = a + s * u0 - p
        return slice(r0, size, s), slice(u0, u0 + len(range(r0, size, s)))

    phases = tuple((q, *axis(a, h), *axis(b, w)) for q, (a, b) in enumerate(np.ndindex(s, s)))
    return hs, ws, last, taps, phases


def _phase_fill(x: np.ndarray, rows: int, ws: int, phases) -> np.ndarray:
    """The padded x split into ``phases`` as (N*C, s*s, rows, Ws); runs need rows = Hs+1."""
    n, c, h, w = x.shape
    ph = np.zeros((n * c, len(phases), rows, ws), dtype=x.dtype)
    for q, xr, ur, xc, uc in phases:
        ph[:, q, ur, uc] = x.reshape(n * c, h, w)[:, xr, xc]
    return ph


def _gather(taps: list, k: int) -> np.ndarray:
    """Contiguous (N,Ho,Wo,C,k,k) copy of k*k (N,C,Ho,Wo) tap views given in tap order."""
    n, c, ho, wo = taps[0].shape
    win = np.empty((n, ho, wo, c, k, k), dtype=taps[0].dtype)
    for (i, j), tap in zip(np.ndindex(k, k), taps):
        win[:, :, :, :, i, j] = tap.transpose(0, 2, 3, 1)
    return win


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


def _conv_operands(op: str, x, kernel, layout: str, c_axis: int, stride: int, padding: int,
                   transposed: bool = False):
    """Wrap a conv op's input and kernel and check what every conv op needs: a
    rank-4 input, a rank-4 ``layout`` kernel with square taps, input channels equal
    to kernel axis ``c_axis``, stride >= 1, padding >= 0 and a non-empty output.
    Returns the two tensors and the output (H, W)."""
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 4:
        raise ShapeError(f"{op} input must be (N,C,H,W), got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"{op} kernel must be {layout}, got {kernel.shape}")
    c, ck = x.shape[1], kernel.shape[c_axis]
    if c != ck:
        raise ShapeError(f"{op} channel axis mismatch: input has {c} channels, kernel expects {ck}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"{op} needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    ho, wo = _conv_out_hw(x.shape[2:], kernel.shape[2], stride, padding, transposed)
    if ho < 1 or wo < 1:
        raise ShapeError(f"{op} output would be empty: input {x.shape}, kernel {kernel.shape}, "
                         f"s={stride}, p={padding}")
    return x, kernel, ho, wo


def conv2d(x, kernel, stride: int = 1, padding: int = 0, *, bias=None, relu6: bool = False) -> Tensor:
    """Vanilla 2-D convolution (cross-correlation) with zero padding."""
    x, kernel, ho, wo = _conv_operands("conv2d", x, kernel, "(C_out,C_in,k,k)", 1, stride, padding)
    n, c, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    hs, ws, _, taps, phases = _phase_plan(h, w, k, stride, padding)

    def windows(ph):  # each tap's run of the phase planes ph, as an (N,C,Ho,Wo) view
        flat = ph.reshape(n * c, len(phases), -1)
        return [flat[:, q, run].reshape(n, c, ho, ws)[..., :wo] for q, run, _ in taps]

    cols = _gather(windows(_phase_fill(x.data, hs + 1, ws, phases)), k).reshape(n, ho * wo, c * k * k)
    wm = kernel.data.reshape(c_out, c * k * k)
    out_data = (cols @ wm.T).transpose(0, 2, 1).reshape(n, c_out, ho, wo)  # channels-last

    def bw(g):
        gf = g.reshape(n, c_out, ho * wo).transpose(0, 2, 1)
        accumulate_grad(kernel, np.tensordot(gf, cols, axes=([0, 1], [0, 1])).reshape(kernel.shape))
        if x.requires_grad:
            gc = (wm.T @ g.reshape(n, c_out, ho * wo)).reshape(n, c, k * k, ho, wo)
            gph = np.zeros((n * c, len(phases), hs + 1, ws), dtype=x.data.dtype)
            for t, win in enumerate(windows(gph)):
                win += gc[:, :, t]
            gx = np.empty(x.shape, dtype=x.data.dtype)
            for q, xr, ur, xc, uc in phases:
                gx.reshape(n * c, h, w)[:, xr, xc] = gph[:, q, ur, uc]
            accumulate_grad(x, gx)

    return _conv_node(out_data, (x, kernel), bias, relu6, bw)


def depthwise_conv2d(x, kernel_d, stride: int = 1, padding: int = 0, *, bias=None, relu6: bool = False) -> Tensor:
    """Per-channel spatial convolution: channel c sees only kernel_d[c]."""
    x, kernel_d, ho, wo = _conv_operands("depthwise_conv2d", x, kernel_d, "(C,1,k,k)", 0, stride, padding)
    if kernel_d.shape[1] != 1:
        raise ShapeError(f"depthwise_conv2d kernel must be (C,1,k,k), got {kernel_d.shape}")
    n, c, h, w = x.shape
    k = kernel_d.shape[2]
    hs, ws, last, taps, phases = _phase_plan(h, w, k, stride, padding)
    planes, ss = n * c, stride * stride
    rows = min(planes, max(1, _DW_BLOCK_BYTES // (ho * ws * x.data.itemsize)))

    # each row block of planes sums its taps' runs on the wide grid (module
    # docstring); kcols[t] is tap t's kernel column, one entry per N*C plane
    kcols = np.concatenate((kernel_d.data.reshape(c, k * k),) * n).T[:, :, None]
    out_data = np.empty((n, c, ho, wo), dtype=x.data.dtype)
    out3 = out_data.reshape(planes, ho, wo)
    flat = _phase_fill(x.data, hs + 1, ws, phases).reshape(planes, ss, -1)
    acc = np.empty((rows, ho, ws), dtype=x.data.dtype)
    tmp = np.empty((rows, ho * ws), dtype=x.data.dtype)
    for b0 in range(0, planes, rows):
        blk, nb = slice(b0, b0 + rows), min(rows, planes - b0)
        a, tb = acc[:nb].reshape(nb, -1), tmp[:nb]
        for t, ((q, run, _), kc) in enumerate(zip(taps, kcols[:, blk])):
            np.multiply(flat[blk, q, run], kc, out=tb if t else a)
            if t:
                a += tb
        out3[blk] = acc[:nb, :, :wo]

    def bw(g):
        # strided windows of the stride-1 split with no spare row keep einsum's order
        hp, wp, _, _, split = _phase_plan(h, w, k, 1, padding)
        xp = _phase_fill(x.data, hp, wp, split).reshape(n, c, hp, wp)
        gk = np.empty((c, k, k), dtype=g.dtype)
        for i, j in np.ndindex(k, k):
            gk[:, i, j] = np.einsum("nchw,nchw->c", g, xp[:, :, i::stride, j::stride][:, :, :ho, :wo],
                                    optimize=False)
        del xp  # the input gradient needs no padded copy
        accumulate_grad(kernel_d, gk[:, None])
        if not x.requires_grad:
            return
        # g's runs, added in tap order into phase planes cropped into gx
        gx = np.empty(x.shape, dtype=x.data.dtype)
        gx3 = gx.reshape(planes, h, w)
        gext = np.zeros((rows, last + hs * ws), dtype=g.dtype)
        gwin = gext[:, last:last + ho * ws].reshape(rows, ho, ws)[:, :, :wo]
        gtmp = np.empty((rows, hs * ws), dtype=g.dtype)
        gph = np.empty((ss, rows, hs * ws), dtype=x.data.dtype)
        g3 = g.reshape(planes, ho, wo)
        for b0 in range(0, planes, rows):
            blk, nb = slice(b0, b0 + rows), min(rows, planes - b0)
            gwin[:nb] = g3[blk]
            tb = gtmp[:nb]
            gph[:, :nb] = 0
            for (q, _, run), kc in zip(taps, kcols[:, blk]):
                np.multiply(gext[:nb, run], kc, out=tb)
                gph[q, :nb] += tb
            for q, xr, ur, xc, uc in phases:
                gx3[blk, xr, xc] = gph[q, :nb].reshape(nb, hs, ws)[:, ur, uc]
        accumulate_grad(x, gx)

    return _conv_node(out_data, (x, kernel_d), bias, relu6, bw)


def pointwise_conv2d(x, kernel_p, *, bias=None, relu6: bool = False) -> Tensor:
    """1x1 convolution: a per-pixel linear map across channels."""
    x, kernel_p, h, w = _conv_operands("pointwise_conv2d", x, kernel_p, "(C_out,C_in,1,1)", 1, 1, 0)
    if kernel_p.shape[2] != 1:
        raise ShapeError(f"pointwise_conv2d kernel must be (C_out,C_in,1,1), got {kernel_p.shape}")
    n, c = x.shape[:2]
    c_out = kernel_p.shape[0]
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
    """Transposed convolution with stride == k: every input pixel becomes one
    k x k output tile, so tiles never overlap and the output is (H*k, W*k)."""
    x, kernel, ho, wo = _conv_operands("conv_transpose2d", x, kernel, "(C_in,C_out,k,k)", 0, stride, 0,
                                       transposed=True)
    n, _, h, w = x.shape
    c_out, k = kernel.shape[1:3]
    if stride != k:
        raise ShapeError(f"conv_transpose2d needs stride == k (non-overlapping tiles), got stride {stride}, k={k}")

    # (N,H,W,C_out,k,k) tiles laid side by side: (N,C_out,H,k,W,k)
    out_data = np.tensordot(x.data, kernel.data, axes=([1], [0])).transpose(0, 3, 1, 4, 2, 5)
    out_data = out_data.reshape(n, c_out, ho, wo)

    def bw(g):
        gwin = _gather([g[:, :, i::k, j::k] for i, j in np.ndindex(k, k)], k)
        accumulate_grad(kernel, np.tensordot(x.data, gwin, axes=([0, 2, 3], [0, 1, 2])))
        if x.requires_grad:
            gx = np.tensordot(gwin, kernel.data, axes=([3, 4, 5], [1, 2, 3]))
            accumulate_grad(x, gx.transpose(0, 3, 1, 2))

    return _conv_node(out_data, (x, kernel), bias, False, bw)
