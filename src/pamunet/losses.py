"""Training objective: pixelwise BCE plus an attention-variance regularizer.

total = seg + lambda * reg, where reg is the mean over gates of the population
variance of each gate's attention map.  A uniform map has zero variance, so
the regularizer pushes weights toward an even spread of focus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pamunet import tensor as T
from pamunet.tensor import ShapeError, Tensor

CLAMP_EPS = 1e-7


@dataclass
class LossBreakdown:
    seg: Tensor
    reg: Tensor
    total: Tensor


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy; predictions are clamped to [eps, 1-eps]."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    td = target.data
    if not np.all((td == 0) | (td == 1)):
        raise ValueError("target must be strictly binary {0, 1}")
    p = T.clamp(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = T.mul(target, T.log(p))
    neg = T.mul(T.sub(1.0, target), T.log(T.sub(1.0, p)))
    return T.mul(T.mean(T.add(pos, neg)), -1.0)


def attention_reg(maps: list[Tensor]) -> Tensor:
    """Mean over gates of each map's population variance.

    Entries may be full attention maps or 0-d variances pre-computed by the
    streaming attention path; an empty list contributes exactly zero.
    """
    if not maps:
        return Tensor(np.zeros(()))
    acc = None
    for m in maps:
        v = m if m.ndim == 0 else T.variance(m)
        acc = v if acc is None else T.add(acc, v)
    return T.mul(acc, 1.0 / len(maps))


def total_loss(pred: Tensor, target: Tensor, maps: list[Tensor],
               lambda_reg: float = 0.01) -> LossBreakdown:
    seg = bce_loss(pred, target)
    reg = attention_reg(maps)
    total = T.add(seg, T.mul(reg, lambda_reg))
    return LossBreakdown(seg=seg, reg=reg, total=total)
