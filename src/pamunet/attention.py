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
one tape node for softmax(scores) V with either scorer.  Its second output is
the gate's regularizer entry, chosen by the per-sample map size
``Lq*Lk*itemsize``: up to ``MATERIALIZE_BYTES`` the (N, Lq, Lk) map on the
tape; beyond it the variance of the weights, streamed in query blocks.  That
path stores each query row's log-sum-exp and sum(w^2), never a block: backward
recomputes a block's weights with one exp, and takes the softmax's row term from
the output, rowsum(dO * O), plus the variance's share of sum(w^2), so it needs
no rowsum(gw * w) over the block.  The variance needs only the sum of squares,
as each row's mean is 1/Lk.  A sample takes the same path at every batch size.
A ``maps`` list, when passed, gets every gate's map appended, streamed or not;
no gate keeps a map after its forward.  The projection gates share one FLOPs
rule, ``_GateBase.mac_sites``; ``PLAGate`` yields its own rows.
"""

from __future__ import annotations

import math

import numpy as np

from pamunet import tensor as T
from pamunet.blocks import ConvTranspose2d, IRBlock, Module, PointwiseConv
from pamunet.tensor import ShapeError, Tensor, accumulate_grad

MATERIALIZE_BYTES = 16 * 2 ** 20  # max per-sample weight-map bytes kept on the tape


# -- tensor-level attention cores --------------------------------------------

def to_sequence(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N, H*W, C)."""
    n, c, h, w = x.shape
    return T.transpose(T.reshape(x, (n, c, h * w)), (0, 2, 1))


def _dot_scorer(q: Tensor, k: Tensor, whole: bool):
    """Scores Q K^T / sqrt(d) of query rows lo:hi, and their backward over (lo,
    score gradient) blocks.  Same-seed bits rest on its rounding and layouts:
    scores scale the product in place; backward scales each gradient block
    before both of its products, passes q's gradient in C order, and sums k's
    as (N, d, Lk), passed as that array's transpose if ``whole``, else copied
    to C order."""
    qd, kd = q.data, k.data
    scale = 1.0 / math.sqrt(qd.shape[-1])

    def scores(lo, hi):
        s = qd[:, lo:hi] @ kd.swapaxes(1, 2)
        s *= scale
        return s

    def backward(blocks):
        gq = np.empty(qd.shape, qd.dtype)
        gkt = np.zeros((qd.shape[0], qd.shape[2], kd.shape[1]), kd.dtype)
        for lo, g in blocks:
            g *= scale
            rows = slice(lo, lo + g.shape[1])
            gq[:, rows] = g @ kd
            gkt += qd[:, rows].swapaxes(1, 2) @ g
        accumulate_grad(q, gq)
        gk = gkt.transpose(0, 2, 1)
        accumulate_grad(k, gk if whole else np.ascontiguousarray(gk))

    return scores, backward


def _tanh_scorer(qp: Tensor, kp: Tensor, vvec: Tensor, chunk: int = 256):
    """Scores s[n,i,j] = sum_d v[d] * tanh(qp[n,i,d] + kp[n,j,d]) of query rows
    lo:hi, and their backward, which takes (lo, score gradient) blocks and passes
    each gradient in its input's layout.  Both recompute the tanh ``chunk`` query
    rows at a time, so the (rows, Lk, d) intermediate is never held in full."""
    n, lq, d = qp.shape
    if kp.shape[-1] != d or vvec.shape != (d,):
        raise ShapeError(f"additive scorer dims disagree: qp {qp.shape}, kp {kp.shape}, v {vvec.shape}")
    qd, kd, vd = qp.data, kp.data, vvec.data

    def tanh_block(a, b):
        """tanh(qp + kp) for query rows a:b against every key: (N, b - a, Lk, d)."""
        return np.tanh(qd[:, a:b, None, :] + kd[:, None, :, :])

    def scores(lo, hi):
        hi = min(hi, lq)
        out = np.empty((n, hi - lo, kd.shape[1]), dtype=qd.dtype)
        for a in range(lo, hi, chunk):
            out[:, a - lo:a - lo + chunk] = tanh_block(a, min(a + chunk, hi)) @ vd
        return out

    def backward(blocks):
        gq, gk, gv = np.zeros_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for lo, g in blocks:
            for a in range(lo, lo + g.shape[1], chunk):
                gc = g[:, a - lo:a - lo + chunk]
                t = tanh_block(a, a + gc.shape[1])
                gv += np.einsum("nij,nijd->d", gc, t, optimize=True)
                # reuse t in place: t <- gc * v * (1 - t^2)
                np.multiply(t, t, out=t)
                np.subtract(1.0, t, out=t)
                t *= vd
                t *= gc[..., None]
                gq[:, a:a + gc.shape[1]] = t.sum(axis=2)
                gk += t.sum(axis=1)
        accumulate_grad(qp, gq)
        accumulate_grad(kp, gk)
        accumulate_grad(vvec, gv)

    return scores, backward


def additive_scores(qp: Tensor, kp: Tensor, vvec: Tensor, chunk: int = 256) -> Tensor:
    """The additive scorer as a tape op: (N,Lq,d), (N,Lk,d), (d,) -> (N,Lq,Lk)."""
    scores, backward = _tanh_scorer(qp, kp, vvec, chunk)
    return T._out(scores(0, qp.shape[1]), (qp, kp, vvec), lambda g: backward([(0, g)]))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor):
    """softmax(Q K^T / sqrt(d)) V and its weight map, kept on the tape."""
    return scaled_dot_attention_streaming(q, k, v, keep_map=True)


def scaled_dot_attention_streaming(q: Tensor, k: Tensor, v: Tensor, chunk: int = 512,
                                   weights: np.ndarray | None = None, *,
                                   score_v: Tensor | None = None, keep_map: bool = False):
    """softmax(scores) V, normalized over the keys, as one tape node.

    q: (N,Lq,d), k: (N,Lk,d), v: (N,Lk,c) -> ((N,Lq,c), second output).  Scores
    are Q K^T / sqrt(d), or score_v . tanh(q + k) given a (d,) ``score_v``.  With
    ``keep_map`` all query rows are one block and the second output is the
    (N,Lq,Lk) weight map, whose gradient (say from ``T.variance``) joins the
    kernel's own.  Otherwise query rows go in blocks of ``chunk`` and the second
    output is the population variance of all weight entries, mean(w^2) - 1/Lk^2:
    every row sums to 1, so the mean is 1/Lk and the softmax backward cancels its
    shift.  A ``weights`` array then receives each block.

    The streamed path is FlashAttention-2's (arXiv 2307.08691): forward keeps
    only each row's log-sum-exp and its sum(w^2), and divides the (rows, c)
    output, not the (rows, Lk) block, by the row sum.  Backward recomputes a
    block's weights as exp(scores - lse).  Its softmax row term rowsum(gw * w)
    is rowsum(dO * O) plus the variance's c * sum(w^2), as gw = dO V^T + c w
    (FlashAttention, arXiv 2205.14135, App. B), so it is one (N, Lq, 1) array
    taken once per call, not a product over each block.
    """
    scores, score_backward = (_dot_scorer(q, k, keep_map) if score_v is None
                              else _tanh_scorer(q, k, score_v))
    if keep_map:
        data, bw = _attend_kept(scores, score_backward, v, q.shape[1], weights)
    else:
        data, bw = _attend_streamed(scores, score_backward, v, q.data.dtype, q.shape[1],
                                    chunk, weights)
    return T._out(data, (q, k, v, score_v), bw)


def _attend_kept(scores, score_backward, v, lq, weights):
    """The map-keeping kernel: all query rows in one block, map on the tape."""
    vd = v.data
    w = scores(0, lq)
    w -= w.max(axis=2, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=2, keepdims=True)
    if weights is not None:
        weights[...] = w
    out = w @ vd

    def bw(gs):
        g_out, g_w = gs
        g_out = np.zeros_like(out) if g_out is None else g_out
        gw = g_out @ vd.swapaxes(1, 2)
        if g_w is not None:
            gw += g_w
        gv = np.zeros(vd.shape, vd.dtype)
        gv += w.swapaxes(1, 2) @ g_out
        score_backward([(0, w * (gw - (gw * w).sum(axis=2, keepdims=True)))])
        accumulate_grad(v, gv)

    return (out, w), bw


def _attend_streamed(scores, score_backward, v, dtype, lq, chunk, weights):
    """The streamed kernel: query rows in blocks of ``chunk``, variance on the
    tape; backward holds only the output, lse and sum(w^2) of each row."""
    vd = v.data
    n, lk, _ = vd.shape
    out = np.empty((n, lq, vd.shape[-1]), dtype)
    lse = np.empty((n, lq, 1), dtype)
    w_sumsq = np.empty((n, lq, 1))  # float64
    for lo in range(0, lq, chunk):
        rows = slice(lo, lo + chunk)
        e = scores(lo, lo + chunk)
        m = e.max(axis=2, keepdims=True)
        e -= m
        np.exp(e, out=e)
        l = e.sum(axis=2, keepdims=True)
        np.divide(e @ vd, l, out=out[:, rows])
        if weights is not None:
            np.divide(e, l, out=weights[:, rows])
        lse[:, rows] = m + np.log(l)
        # float32 row sums of e^2 (einsum: no block-sized temporary) over l^2,
        # divided in float64: a float32 division moves the variance by an ulp
        w_sumsq[:, rows] = (np.einsum("nij,nij->ni", e, e)[..., None]
                            / np.square(l, dtype=np.float64))
    total = n * lq * lk
    variance = np.asarray(w_sumsq.sum() / total - 1.0 / lk ** 2, dtype=dtype)

    def bw(gs):
        g_out, g_var = gs
        c = 0.0 if g_var is None else float(g_var) * 2.0 / total
        row_term = c * w_sumsq
        if g_out is not None:
            row_term += (g_out * out).sum(axis=2, keepdims=True, dtype=np.float64)
        row_term = row_term.astype(dtype)
        gv = np.zeros(vd.shape, vd.dtype)

        def score_grads():
            """(lo, score gradient) of each block: w * (gw - row term), where
            gw = dO V^T + c w, built in place."""
            nonlocal gv
            for lo in range(0, lq, chunk):
                rows = slice(lo, lo + chunk)
                w = scores(lo, lo + chunk)
                w -= lse[:, rows]
                np.exp(w, out=w)
                if g_out is None:
                    gw = c * w
                else:
                    gv += w.swapaxes(1, 2) @ g_out[:, rows]
                    gw = g_out[:, rows] @ vd.swapaxes(1, 2)
                    if c:
                        gw += c * w
                gw -= row_term[:, rows]
                gw *= w
                yield lo, gw

        score_backward(score_grads())
        accumulate_grad(v, gv)

    return (out, variance), bw


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
    tape or streams it by ``MATERIALIZE_BYTES``.  A gate yields its FLOPs rows
    through ``mac_sites(prefix, low_hw, up_hw)``, where ``low_hw`` is the grid
    of the lower decoder feature and ``up_hw`` the upsampled grid the gate
    attends on; the projection gates use this class's.
    """

    def _check_grids(self, x: Tensor, skip: Tensor) -> None:
        if x.shape[0] != skip.shape[0] or x.shape[2:] != skip.shape[2:]:
            raise ShapeError(
                f"query grid {skip.shape} does not match key grid {x.shape} "
                "(encoder residual and upsampled decoder feature must align)"
            )

    def _attend(self, x: Tensor, q: Tensor, k: Tensor, v: Tensor, maps: list | None,
                score_v: Tensor | None = None):
        """Returns (x + gain * attended, laid out on x's grid; regularizer entry:
        map or variance) and appends the weight map to ``maps`` when given."""
        (n, lq, _), lk = q.shape, k.shape[1]
        keep_map = lq * lk * q.data.itemsize <= MATERIALIZE_BYTES
        weights = None if keep_map or maps is None else np.empty((n, lq, lk), q.data.dtype)
        attended, entry = scaled_dot_attention_streaming(q, k, v, weights=weights,
                                                         score_v=score_v, keep_map=keep_map)
        if maps is not None:
            maps.append(entry.data if keep_map else weights)
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

    def forward(self, decoder_low: Tensor, x: Tensor, skip: Tensor, maps: list | None = None):
        self._check_grids(x, skip)
        kv_src = self.upsample(self.refine(decoder_low))
        self._check_grids(kv_src, skip)
        k_img, v_img = T.split(self.kv(kv_src), 2, axis=1)
        return self._attend(x, to_sequence(skip), to_sequence(k_img), to_sequence(v_img), maps)

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
        return self._attend(x, q, to_sequence(self.k_proj(x)), to_sequence(self.v_proj(x)), maps)


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
        return self._attend(x, to_sequence(self.w_q(skip)), to_sequence(self.w_k(x)),
                            to_sequence(self.v_proj(x)), maps, score_v=self.score_v)


def make_gate(variant: str, c_low: int, c: int, expansion: int = 6) -> _GateBase:
    if variant == "pla":
        return PLAGate(c_low, c, expansion=expansion)
    if variant in ("self", "cross"):
        return DotAttentionGate(c, cross=variant == "cross")
    if variant == "additive":
        return AdditiveAttentionGate(c)
    raise ValueError(f"unknown attention variant: {variant!r}")
