"""Attention gates for the decoder skip connections.

All gates share one skeleton: the stage's upsampled decoder feature ``x`` is
augmented with attended values and concatenated with the encoder residual.
They differ in where queries/keys/values come from:

* progressive (PLA, :class:`PLAGate`): the lower decoder feature is refined by
  an IR block and upsampled by the gate's own transposed conv, then split into
  key/value; the encoder residual is the query, unprojected.
* self and cross (:class:`DotAttentionGate`): K, V are 1x1 projections of
  ``x``; Q projects ``x`` (self) or the encoder residual (cross).  Both are
  the dot-score attention of Luong et al. (arXiv 1508.04025), scaled by
  1/sqrt(d).
* additive (:class:`AdditiveAttentionGate`): like cross, but scores come from
  a single-hidden-layer scorer v . tanh(W1 q + W2 k).

Attended values enter the stream as ``x + gain * attended`` with a learnable
scalar ``gain``.  With every gate parameter zeroed this makes a gate an exact
pass-through *and* an SGD fixed point (all gate gradients vanish), so a
zero-initialized attention model trains identically to the attention-free one.

A gate returns its merged feature and one regularizer entry.  The scaled-dot
gates pick their path by the per-sample weight-map size ``Lq*Lk*itemsize``:
up to ``MATERIALIZE_BYTES`` the map (softmax over the key axis) is kept on the
tape and returned as that entry; beyond it a chunked online-softmax kernel
recomputes weights in backward and returns a streamed variance instead, so a
sample takes the same path at every batch size.  The additive gate always
materializes and refuses grids above ``MATERIALIZE_LIMIT`` positions.  A caller
that passes a ``maps`` list gets every gate's (N, Lq, Lk) map appended to it,
streamed or not; no gate keeps a map after its forward.  The projection gates
share one FLOPs rule, ``_GateBase.mac_sites``; ``PLAGate`` yields its own rows.
"""

from __future__ import annotations

import math

import numpy as np

from pamunet import tensor as T
from pamunet.blocks import ConvTranspose2d, IRBlock, Module, PointwiseConv
from pamunet.tensor import ShapeError, Tensor, accumulate_grad

MATERIALIZE_BYTES = 16 * 2 ** 20  # max per-sample weight-map bytes kept on the dot tape
MATERIALIZE_LIMIT = 4096  # max grid positions of the additive gate's full score map


# -- tensor-level attention cores --------------------------------------------

def to_sequence(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N, H*W, C)."""
    n, c, h, w = x.shape
    return T.transpose(T.reshape(x, (n, c, h * w)), (0, 2, 1))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor):
    """softmax(Q K^T / sqrt(d)) V with the full weight map on the tape.

    q: (N,Lq,d), k: (N,Lk,d), v: (N,Lk,c) -> ((N,Lq,c), weights (N,Lq,Lk)).
    """
    d = q.shape[-1]
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(d))
    weights = T.softmax(scores, axis=2)
    return T.matmul(weights, v), weights


def scaled_dot_attention_streaming(q: Tensor, k: Tensor, v: Tensor, chunk: int = 512,
                                   weights: np.ndarray | None = None):
    """Chunked scaled-dot attention that never keeps the weight map on the tape.

    Processes query rows in blocks, recomputing the softmax in backward, and
    returns (attended, population variance of all weight entries) so the
    regularizer stays available without the map.  A ``weights`` array of
    shape (N, Lq, Lk) receives each normalized block as it is computed.
    """
    n, lq, d = q.shape
    scale = 1.0 / math.sqrt(d)
    lk = k.shape[1]
    qd, kd, vd = q.data, k.data, v.data

    def weight_block(lo):
        """Softmax weights of query rows lo:lo + chunk, normalized over the keys."""
        s = (qd[:, lo:lo + chunk] @ kd.swapaxes(1, 2)) * scale
        s -= s.max(axis=2, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=2, keepdims=True)
        return s

    out_data = np.empty((n, lq, vd.shape[-1]), dtype=qd.dtype)
    total = n * lq * lk
    w_sum = 0.0
    w_sumsq = 0.0
    for lo in range(0, lq, chunk):
        s = weight_block(lo)
        if weights is not None:
            weights[:, lo:lo + chunk] = s
        out_data[:, lo:lo + chunk] = s @ vd
        w_sum += float(s.sum(dtype=np.float64))
        w_sumsq += float((s * s).sum(dtype=np.float64))
    w_mean = w_sum / total
    var_data = np.asarray(w_sumsq / total - w_mean * w_mean, dtype=qd.dtype)

    def bw(gs):
        g_out, g_var = gs
        # C-ordered, whatever the layout of the (often transposed) inputs
        gq = np.zeros(qd.shape, qd.dtype) if q.requires_grad else None
        gk = np.zeros(kd.shape, kd.dtype) if k.requires_grad else None
        gv = np.zeros(vd.shape, vd.dtype) if v.requires_grad else None
        for lo in range(0, lq, chunk):
            s = weight_block(lo)
            gw = np.zeros_like(s)
            if g_out is not None:
                gw += g_out[:, lo:lo + chunk] @ vd.swapaxes(1, 2)
            if g_var is not None:
                gw += g_var * (2.0 / total) * (s - w_mean)
            gs_block = s * (gw - (gw * s).sum(axis=2, keepdims=True))
            if gq is not None:
                gq[:, lo:lo + chunk] = (gs_block @ kd) * scale
            if gk is not None:
                gk += (gs_block.swapaxes(1, 2) @ qd[:, lo:lo + chunk]) * scale
            if gv is not None and g_out is not None:
                gv += s.swapaxes(1, 2) @ g_out[:, lo:lo + chunk]
        if gq is not None:
            accumulate_grad(q, gq)
        if gk is not None:
            accumulate_grad(k, gk)
        if gv is not None:
            accumulate_grad(v, gv)

    return T._out((out_data, var_data), (q, k, v), bw)


def additive_scores(qp: Tensor, kp: Tensor, vvec: Tensor, chunk: int = 256) -> Tensor:
    """Scores s[n,i,j] = sum_d v[d] * tanh(qp[n,i,d] + kp[n,j,d]).

    The (Lq, Lk, d) tanh intermediate is never held in full: forward and
    backward walk query chunks and recompute it.
    """
    n, lq, d = qp.shape
    lk = kp.shape[1]
    if kp.shape[-1] != d or vvec.shape != (d,):
        raise ShapeError(f"additive scorer dims disagree: qp {qp.shape}, kp {kp.shape}, v {vvec.shape}")
    qd, kd, vd = qp.data, kp.data, vvec.data

    def tanh_block(lo):
        """tanh(qp + kp) for query rows lo:lo + chunk against every key: (N, chunk, Lk, d)."""
        return np.tanh(qd[:, lo:lo + chunk, None, :] + kd[:, None, :, :])

    out_data = np.empty((n, lq, lk), dtype=qd.dtype)
    for lo in range(0, lq, chunk):
        out_data[:, lo:lo + chunk] = tanh_block(lo) @ vd

    def bw(g):
        gq = np.zeros_like(qd) if qp.requires_grad else None
        gk = np.zeros_like(kd) if kp.requires_grad else None
        gv = np.zeros_like(vd) if vvec.requires_grad else None
        for lo in range(0, lq, chunk):
            t = tanh_block(lo)
            gc = g[:, lo:lo + chunk]
            if gv is not None:
                gv += np.einsum("nij,nijd->d", gc, t, optimize=True)
            # reuse t in place: t <- gc * v * (1 - t^2)
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            t *= vd
            t *= gc[..., None]
            if gq is not None:
                gq[:, lo:lo + chunk] = t.sum(axis=2)
            if gk is not None:
                gk += t.sum(axis=1)
        if gq is not None:
            accumulate_grad(qp, gq)
        if gk is not None:
            accumulate_grad(kp, gk)
        if gv is not None:
            accumulate_grad(vvec, gv)

    return T._out(out_data, (qp, kp, vvec), bw)


# -- gates -------------------------------------------------------------------

def _scalar_param() -> Tensor:
    return Tensor(np.zeros(()), requires_grad=True)


def _scores_site(prefix: str, up_hw, c: int):
    """MAC row of one attention map over an ``up_hw`` grid on both sides:
    Lq*Lk*c for the scores plus Lq*Lk*c for weights @ values."""
    l = up_hw[0] * up_hw[1]
    return f"{prefix}.scores", "attention", 2 * l * l * c


class _GateBase(Module):
    """Grid check, dot attention and merge shared by all gate variants.

    A gate yields its FLOPs rows through ``mac_sites(prefix, low_hw, up_hw)``,
    where ``low_hw`` is the grid of the lower decoder feature and ``up_hw`` the
    upsampled grid the gate attends on; the projection gates use this class's.
    """

    def _check_grids(self, x: Tensor, skip: Tensor) -> None:
        if x.shape[0] != skip.shape[0] or x.shape[2:] != skip.shape[2:]:
            raise ShapeError(
                f"query grid {skip.shape} does not match key grid {x.shape} "
                "(encoder residual and upsampled decoder feature must align)"
            )

    def _dot_attend(self, q: Tensor, k: Tensor, v: Tensor, maps: list | None):
        """Returns (attended sequence, regularizer entry: map or variance);
        appends the weight map to ``maps`` when given."""
        n, lq, _ = q.shape
        lk = k.shape[1]
        if lq * lk * q.data.itemsize <= MATERIALIZE_BYTES:
            attended, entry = scaled_dot_attention(q, k, v)
            weights = entry.data
        else:
            weights = None if maps is None else np.empty((n, lq, lk), q.data.dtype)
            attended, entry = scaled_dot_attention_streaming(q, k, v, weights=weights)
        if maps is not None:
            maps.append(weights)
        return attended, entry

    def _merge(self, x: Tensor, attended: Tensor) -> Tensor:
        """x + gain * attended, the (N, H*W, C) sequence laid out on x's grid."""
        image = T.reshape(T.transpose(attended, (0, 2, 1)), x.shape)
        return T.add(x, T.mul(self.gain, image))

    def mac_sites(self, prefix: str, low_hw, up_hw):
        """One pointwise row per 1x1 projection child on ``up_hw``, in order, then scores."""
        for name, proj in self._children.items():
            yield f"{prefix}.{name}", "pointwise", proj.macs(up_hw)
        yield _scores_site(prefix, up_hw, self.v_proj.c_out)


class PLAGate(_GateBase):
    """Progressive gate: key/value come from the refined, upsampled lower
    decoder feature; the raw encoder residual is the query."""

    def __init__(self, c_low: int, c: int, expansion: int = 6):
        super().__init__()
        self.refine = IRBlock(c_low, c_low, stride=1, expansion=expansion)
        self.upsample = ConvTranspose2d(c_low, c, k=2, stride=2)
        self.kv = PointwiseConv(c, 2 * c)
        self.gain = _scalar_param()

    def forward(self, decoder_low: Tensor, x: Tensor, skip: Tensor, maps: list | None = None):
        self._check_grids(x, skip)
        kv_src = self.upsample(self.refine(decoder_low))
        self._check_grids(kv_src, skip)
        k_img, v_img = T.split(self.kv(kv_src), 2, axis=1)
        q = to_sequence(skip)
        attended, reg_entry = self._dot_attend(q, to_sequence(k_img), to_sequence(v_img), maps)
        return self._merge(x, attended), reg_entry

    def mac_sites(self, prefix: str, low_hw, up_hw):
        yield f"{prefix}.refine", "irblock", self.refine.macs(low_hw)
        yield f"{prefix}.upsample", "conv_transpose", self.upsample.macs(low_hw)
        yield f"{prefix}.kv", "pointwise", self.kv.macs(up_hw)
        yield _scores_site(prefix, up_hw, self.kv.c_in)


class DotAttentionGate(_GateBase):
    """Dot-score gate over 1x1 projections: K and V project the upsampled
    decoder feature; Q projects that same feature (self) or, with ``cross``,
    the encoder residual."""

    def __init__(self, c: int, cross: bool):
        super().__init__()
        self.cross = cross
        self.q_proj = PointwiseConv(c, c)
        self.k_proj = PointwiseConv(c, c)
        self.v_proj = PointwiseConv(c, c)
        self.gain = _scalar_param()

    def forward(self, decoder_low: Tensor, x: Tensor, skip: Tensor, maps: list | None = None):
        self._check_grids(x, skip)
        q = to_sequence(self.q_proj(skip if self.cross else x))
        attended, reg_entry = self._dot_attend(
            q, to_sequence(self.k_proj(x)), to_sequence(self.v_proj(x)), maps)
        return self._merge(x, attended), reg_entry


class AdditiveAttentionGate(_GateBase):
    """Bahdanau-style scorer v . tanh(W1 q + W2 k) over the same grids."""

    def __init__(self, c: int):
        super().__init__()
        self.w_q = PointwiseConv(c, c)
        self.w_k = PointwiseConv(c, c)
        self.score_v = Tensor(np.zeros(c), requires_grad=True)
        self.v_proj = PointwiseConv(c, c)
        self.gain = _scalar_param()

    def forward(self, decoder_low: Tensor, x: Tensor, skip: Tensor, maps: list | None = None):
        self._check_grids(x, skip)
        lq = skip.shape[2] * skip.shape[3]
        if lq > MATERIALIZE_LIMIT:
            raise ShapeError(
                f"additive attention grid {lq} exceeds the materialization "
                f"limit {MATERIALIZE_LIMIT}"
            )
        qp = to_sequence(self.w_q(skip))
        kp = to_sequence(self.w_k(x))
        scores = additive_scores(qp, kp, self.score_v)
        weights = T.softmax(scores, axis=2)
        attended = T.matmul(weights, to_sequence(self.v_proj(x)))
        if maps is not None:
            maps.append(weights.data)
        return self._merge(x, attended), weights


def make_gate(variant: str, c_low: int, c: int, expansion: int = 6) -> _GateBase:
    if variant == "pla":
        return PLAGate(c_low, c, expansion=expansion)
    if variant in ("self", "cross"):
        return DotAttentionGate(c, cross=variant == "cross")
    if variant == "additive":
        return AdditiveAttentionGate(c)
    raise ValueError(f"unknown attention variant: {variant!r}")
