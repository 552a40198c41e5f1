"""Linear centered kernel alignment between layer activations of two models.

Computed in Gram form on column-centered features, which for activation
matrices (n_samples x features, features >> n) is the cheap equivalent of the
HSIC-normalized definition:

    CKA(X, Y) = ||Yc^T Xc||_F^2 / (||Xc^T Xc||_F * ||Yc^T Yc||_F)

Linear CKA is invariant to isotropic scaling and orthogonal transforms of
either representation, and 1 on the self-comparison diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pamunet import tensor as T
from pamunet.tensor import Tensor

MIN_PROBE = 4  # fewest probe samples that give a stable centering


@dataclass
class ActivationSet:
    """Per-layer activation matrices, rows aligned by probe sample."""

    model_tag: str
    layers: dict[str, np.ndarray]  # layer name -> (n_samples, features)

    @property
    def n_samples(self) -> int:
        return next(iter(self.layers.values())).shape[0]


def capture(model, probe_batch: Tensor, model_tag: str = "model") -> ActivationSet:
    """Run one forward pass and flatten every stage output per sample."""
    n = probe_batch.shape[0]
    if n < MIN_PROBE:
        raise ValueError(f"probe batch needs >= {MIN_PROBE} samples for stable centering, got {n}")
    with T.no_grad():
        out = model.forward(probe_batch)
    layers = {name: np.asarray(act.data, dtype=np.float64).reshape(n, -1)
              for name, act in out.activations.items()}
    return ActivationSet(model_tag=model_tag, layers=layers)


def _centred_grams(*mats) -> list[tuple[np.ndarray, float]]:
    """Each matrix's centred Gram and its norm; all must be 2-D with one row
    count of at least 2."""
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if any(m.ndim != 2 for m in mats):
        raise ValueError("cka_linear expects 2-D (samples, features) matrices")
    counts = list(dict.fromkeys(m.shape[0] for m in mats))
    if len(counts) > 1:
        raise ValueError("row counts differ: " + " vs ".join(map(str, counts)))
    if counts[0] < 2:
        raise ValueError("cka needs at least 2 samples")
    grams = [c @ c.T for c in (m - m.mean(axis=0) for m in mats)]  # one centred copy at a time
    return [(k, np.linalg.norm(k)) for k in grams]


def _cka(gram_x, gram_y) -> float:
    (kx, norm_x), (ky, norm_y) = gram_x, gram_y
    den = float(norm_x * norm_y)
    return float((kx * ky).sum()) / den if den else 0.0


def cka_linear(x: np.ndarray, y: np.ndarray) -> float:
    return _cka(*_centred_grams(x, y))


@dataclass
class CKAMatrix:
    row_layers: list[str]   # model A
    col_layers: list[str]   # model B
    values: np.ndarray      # (len(row_layers), len(col_layers))

    def to_csv(self) -> str:
        """Header row: model-B layer names; first column: model-A layer names."""
        clipped = np.clip(self.values, 0.0, 1.0)
        lines = ["layer," + ",".join(self.col_layers)]
        for name, row in zip(self.row_layers, clipped):
            lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
        return "\n".join(lines) + "\n"


def cka_matrix(a: ActivationSet, b: ActivationSet) -> CKAMatrix:
    if a.n_samples != b.n_samples:
        raise ValueError(
            f"activation sets were captured on different probe batches: "
            f"{a.n_samples} vs {b.n_samples} samples")
    rows, cols = list(a.layers), list(b.layers)
    grams = _centred_grams(*a.layers.values(), *b.layers.values())
    values = np.empty((len(rows), len(cols)))
    for i, ga in enumerate(grams[:len(rows)]):
        for j, gb in enumerate(grams[len(rows):]):
            values[i, j] = _cka(ga, gb)
    return CKAMatrix(row_layers=rows, col_layers=cols, values=values)
