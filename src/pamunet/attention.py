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
  a single-hidden-layer scorer v . tanh(W1 q + W2 k) (Bahdanau et al., arXiv
  1409.0473).

Attended values enter the stream as ``x + gain * attended`` with a learnable
scalar ``gain``.  With every gate parameter zeroed this makes a gate an exact
pass-through *and* an SGD fixed point (all gate gradients vanish), so a
zero-initialized attention model trains identically to the attention-free one.

Every gate attends through one kernel, :func:`scaled_dot_attention_streaming`:
one tape node for softmax(scores) V with either scorer, run as one loop over
blocks of ``BLOCK_ROWS`` query rows.  Its second output is the gate's
regularizer entry, chosen by the per-sample map size ``Lq*Lk*itemsize``: up to
``MATERIALIZE_BYTES`` the (N, Lq, Lk) map on the tape, written block by block;
beyond it the variance of the weights.  A kept map's backward reads each block
back from the map and takes the softmax's row term rowsum(gw * w) per block.
The variance path stores each query row's log-sum-exp and sum(w^2), never a
block: backward recomputes a block's weights with one exp, and takes the row
term from the output, rowsum(dO * O), plus the variance's share of sum(w^2).
The variance needs only the sum of squares, as each row's mean is 1/Lk.  A
sample takes the same path at every batch size.
A ``sink``, when passed, gets each block of every gate's weights, streamed or
not, so no export holds a whole map.  The projection gates share one FLOPs
rule, ``_GateBase.mac_sites``; ``PLAGate`` yields its own rows.
"""

from __future__ import annotations

import math

import numpy as np

from pamunet import tensor as T
from pamunet.blocks import ConvTranspose2d, IRBlock, Module, PointwiseConv
from pamunet.tensor import ShapeError, Tensor, accumulate_grad

MATERIALIZE_BYTES = 16 * 2 ** 20  # max per-sample weight-map bytes kept on the tape
BLOCK_ROWS = 128  # query rows per attention block, kept map or not, and per additive score block


# -- tensor-level attention cores --------------------------------------------

def to_sequence(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N, H*W, C)."""
    n, c, h, w = x.shape
    return T.transpose(T.reshape(x, (n, c, h * w)), (0, 2, 1))


def _dot_scorer(q: Tensor, k: Tensor):
    """Scores Q K^T / sqrt(d) of a query row slice, and their backward over
    (rows, score gradient) blocks.  Same-seed bits rest on its rounding and
    layouts: scores scale the product in place; backward scales each gradient
    block before both of its products, passes q's gradient in C order, and
    k's as the transpose of its (N, d, Lk) sum, with no copy."""
    qd, kd = q.data, k.data
    scale = 1.0 / math.sqrt(qd.shape[-1])

    def scores(rows):
        s = qd[:, rows] @ kd.swapaxes(1, 2)
        s *= scale
        return s

    def backward(blocks):
        gq = np.empty(qd.shape, qd.dtype)
        gkt = np.zeros((qd.shape[0], qd.shape[2], kd.shape[1]), kd.dtype)
        for rows, g in blocks:
            g *= scale
            gq[:, rows] = g @ kd
            gkt += qd[:, rows].swapaxes(1, 2) @ g
        accumulate_grad(q, gq)
        accumulate_grad(k, gkt.transpose(0, 2, 1))

    return scores, backward


def _tanh_scorer(qp: Tensor, kp: Tensor, vvec: Tensor):
    """Scores s[n,i,j] = sum_d v[d] * tanh(qp[n,i,d] + kp[n,j,d]) of a query
    row slice, and their backward, which takes (rows, score gradient) blocks and
    passes each gradient in its input's layout.  Both build the (N, rows, Lk, d)
    tanh of exactly the rows they are given, so callers bound it by their block."""
    n, lq, d = qp.shape
    if kp.shape[-1] != d or vvec.shape != (d,):
        raise ShapeError(f"additive scorer dims disagree: qp {qp.shape}, kp {kp.shape}, v {vvec.shape}")
    qd, kd, vd = qp.data, kp.data, vvec.data

    def tanh_block(rows):
        t = qd[:, rows, None, :] + kd[:, None, :, :]
        return np.tanh(t, out=t)

    def scores(rows):
        return tanh_block(rows) @ vd

    def backward(blocks):
        gq, gk, gv = np.zeros_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for rows, g in blocks:
            t = tanh_block(rows)
            gv += np.einsum("nij,nijd->d", g, t, optimize=True)
            # reuse t in place: t <- g * v * (1 - t^2)
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            t *= vd
            t *= g[..., None]
            gq[:, rows] = t.sum(axis=2)
            gk += t.sum(axis=1)
        accumulate_grad(qp, gq)
        accumulate_grad(kp, gk)
        accumulate_grad(vvec, gv)

    return scores, backward


def _row_blocks(lq: int, chunk: int | None) -> list:
    """Query row slices of ``chunk`` rows (``BLOCK_ROWS`` if None), the last ragged."""
    chunk = BLOCK_ROWS if chunk is None else chunk
    return [slice(lo, lo + chunk) for lo in range(0, lq, chunk)]


def additive_scores(qp: Tensor, kp: Tensor, vvec: Tensor, chunk: int | None = None) -> Tensor:
    """The additive scorer as a tape op: (N,Lq,d), (N,Lk,d), (d,) -> (N,Lq,Lk),
    in blocks of ``chunk`` query rows."""
    scores, backward = _tanh_scorer(qp, kp, vvec)
    blocks = _row_blocks(qp.shape[1], chunk)
    out = np.empty((qp.shape[0], qp.shape[1], kp.shape[1]), qp.data.dtype)
    for rows in blocks:
        out[:, rows] = scores(rows)
    return T._out(out, (qp, kp, vvec), lambda g: backward((rows, g[:, rows]) for rows in blocks))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor):
    """softmax(Q K^T / sqrt(d)) V and its weight map, kept on the tape."""
    return scaled_dot_attention_streaming(q, k, v, keep_map=True)


def scaled_dot_attention_streaming(q: Tensor, k: Tensor, v: Tensor, chunk: int | None = None,
                                   sink=None, *,
                                   score_v: Tensor | None = None, keep_map: bool = False):
    """softmax(scores) V, normalized over the keys, as one tape node.

    q: (N,Lq,d), k: (N,Lk,d), v: (N,Lk,c) -> ((N,Lq,c), second output).  Scores
    are Q K^T / sqrt(d), or score_v . tanh(q + k) given a (d,) ``score_v``.
    Query rows go in blocks of ``chunk`` (``BLOCK_ROWS`` if None), kept map or
    not.  With ``keep_map`` the second output is the (N,Lq,Lk) weight map: each
    block's weights are written into it and the block's output is that map block
    @ V; backward reads the block back and takes the softmax row term
    rowsum(gw * w) per block, since the map's own gradient (say from
    ``T.variance``) is arbitrary.  Otherwise the second output is the population
    variance of all weight entries, mean(w^2) - 1/Lk^2: every row sums to 1, so
    the mean is 1/Lk and the softmax backward cancels its shift.  A ``sink`` is
    called as ``sink(rows, w)`` with each block's (N, rows, Lk) normalized
    weights, in row order, kept map or not, which changes no other bit.  It may
    read ``w`` but not write it: for a kept map ``w`` is a view of the map.

    The variance path is FlashAttention-2's (arXiv 2307.08691): forward keeps
    only each row's log-sum-exp and its sum(w^2), and divides the (rows, c)
    output, not the (rows, Lk) block, by the row sum.  Backward recomputes a
    block's weights as exp(scores - lse).  Its softmax row term rowsum(gw * w)
    is rowsum(dO * O) plus the variance's c * sum(w^2), as gw = dO V^T + c w
    (FlashAttention, arXiv 2205.14135, App. B), so it is one (N, Lq, 1) array
    taken once per call, not a product over each block.
    """
    scores, score_backward = (_dot_scorer(q, k) if score_v is None
                              else _tanh_scorer(q, k, score_v))
    vd, dtype = v.data, q.data.dtype
    (n, lq, _), lk = q.shape, vd.shape[1]
    blocks = _row_blocks(lq, chunk)
    out = np.empty((n, lq, vd.shape[-1]), dtype)
    w_map = np.empty((n, lq, lk), dtype) if keep_map else None
    lse = np.empty((n, lq, 1), dtype)
    w_sumsq = np.empty((n, lq, 1))  # float64
    for rows in blocks:
        e = scores(rows)
        m = e.max(axis=2, keepdims=True)
        e -= m
        np.exp(e, out=e)
        l = e.sum(axis=2, keepdims=True)
        if keep_map:
            w = np.divide(e, l, out=w_map[:, rows])
            out[:, rows] = w @ vd
        else:
            np.divide(e @ vd, l, out=out[:, rows])
            lse[:, rows] = m + np.log(l)
            # float32 row sums of e^2 (einsum: no block-sized temporary) over l^2,
            # divided in float64: a float32 division moves the variance by an ulp
            w_sumsq[:, rows] = (np.einsum("nij,nij->ni", e, e)[..., None]
                                / np.square(l, dtype=np.float64))
        if sink is not None:
            sink(rows, w if keep_map else np.divide(e, l, out=e))
    total = n * lq * lk
    second = w_map if keep_map else np.asarray(w_sumsq.sum() / total - 1.0 / lk ** 2, dtype)

    def bw(gs):
        g_out, g_second = gs
        g_out = np.zeros_like(out) if g_out is None else g_out
        if not keep_map:
            c = 0.0 if g_second is None else float(g_second) * 2.0 / total
            row_term = (c * w_sumsq + (g_out * out).sum(axis=2, keepdims=True, dtype=np.float64)
                        ).astype(dtype)
        gv = np.zeros(vd.shape, vd.dtype)

        def score_grads():
            """(rows, score gradient) of each block: w * (gw - row term), where
            gw = dO V^T plus the second output's share, built in place."""
            nonlocal gv
            for rows in blocks:
                if keep_map:
                    w = w_map[:, rows]
                else:
                    w = scores(rows)
                    w -= lse[:, rows]
                    np.exp(w, out=w)
                gv += w.swapaxes(1, 2) @ g_out[:, rows]
                gw = g_out[:, rows] @ vd.swapaxes(1, 2)
                if keep_map:
                    if g_second is not None:
                        gw += g_second[:, rows]
                    gw -= (gw * w).sum(axis=2, keepdims=True)
                else:
                    if c:
                        gw += c * w
                    gw -= row_term[:, rows]
                gw *= w
                yield rows, gw

        score_backward(score_grads())
        accumulate_grad(v, gv)

    return T._out((out, second), (q, k, v, score_v), bw)


# -- gates -------------------------------------------------------------------

def _scalar_param() -> Tensor:
    return Tensor(np.zeros(()), requires_grad=True)


def _scores_site(prefix: str, up_hw, c: int):
    """MAC row of one attention map over an ``up_hw`` grid on both sides:
    Lq*Lk*c for the scores plus Lq*Lk*c for weights @ values."""
    l = up_hw[0] * up_hw[1]
    return f"{prefix}.scores", "attention", 2 * l * l * c


class _GateBase(Module):
    """Grid check, attention and merge shared by all gate variants.

    Every gate attends through ``_attend``, which keeps the weight map on the
    tape or only its variance, by ``MATERIALIZE_BYTES``, and hands the kernel
    the forward's ``sink``.  A gate yields its FLOPs rows through
    ``mac_sites(prefix, low_hw, up_hw)``, where ``low_hw`` is the grid of the
    lower decoder feature and ``up_hw`` the upsampled grid the gate attends on;
    the projection gates use this class's.
    """

    def _check_grids(self, x: Tensor, skip: Tensor) -> None:
        if x.shape[0] != skip.shape[0] or x.shape[2:] != skip.shape[2:]:
            raise ShapeError(
                f"query grid {skip.shape} does not match key grid {x.shape} "
                "(encoder residual and upsampled decoder feature must align)"
            )

    def _attend(self, x: Tensor, q: Tensor, k: Tensor, v: Tensor, sink,
                score_v: Tensor | None = None):
        """Returns (x + gain * attended, laid out on x's grid; regularizer entry:
        map or variance) and hands each block of weights to ``sink`` when given."""
        lq, lk = q.shape[1], k.shape[1]
        keep_map = lq * lk * q.data.itemsize <= MATERIALIZE_BYTES
        attended, entry = scaled_dot_attention_streaming(q, k, v, sink=sink,
                                                         score_v=score_v, keep_map=keep_map)
        image = T.reshape(T.transpose(attended, (0, 2, 1)), x.shape)
        return T.add(x, T.mul(self.gain, image)), entry

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

    def forward(self, decoder_low: Tensor, x: Tensor, skip: Tensor, sink=None):
        self._check_grids(x, skip)
        kv_src = self.upsample(self.refine(decoder_low))
        self._check_grids(kv_src, skip)
        k_img, v_img = T.split(self.kv(kv_src), 2, axis=1)
        return self._attend(x, to_sequence(skip), to_sequence(k_img), to_sequence(v_img), sink)

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

    def forward(self, decoder_low: Tensor, x: Tensor, skip: Tensor, sink=None):
        self._check_grids(x, skip)
        q = to_sequence(self.q_proj(skip if self.cross else x))
        return self._attend(x, q, to_sequence(self.k_proj(x)), to_sequence(self.v_proj(x)), sink)


class AdditiveAttentionGate(_GateBase):
    """Bahdanau-style scorer v . tanh(W1 q + W2 k) over the same grids."""

    def __init__(self, c: int):
        super().__init__()
        self.w_q = PointwiseConv(c, c)
        self.w_k = PointwiseConv(c, c)
        self.score_v = Tensor(np.zeros(c), requires_grad=True)
        self.v_proj = PointwiseConv(c, c)
        self.gain = _scalar_param()

    def forward(self, decoder_low: Tensor, x: Tensor, skip: Tensor, sink=None):
        self._check_grids(x, skip)
        return self._attend(x, to_sequence(self.w_q(skip)), to_sequence(self.w_k(x)),
                            to_sequence(self.v_proj(x)), sink, score_v=self.score_v)


def make_gate(variant: str, c_low: int, c: int, expansion: int = 6) -> _GateBase:
    if variant == "pla":
        return PLAGate(c_low, c, expansion=expansion)
    if variant in ("self", "cross"):
        return DotAttentionGate(c, cross=variant == "cross")
    if variant == "additive":
        return AdditiveAttentionGate(c)
    raise ValueError(f"unknown attention variant: {variant!r}")
