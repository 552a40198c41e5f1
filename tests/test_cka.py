"""CKA: invariances, brute-force HSIC oracle, matrix/CSV export."""

import numpy as np
import pytest

from pamunet.cka import ActivationSet, capture, cka_linear, cka_matrix
from pamunet.model import PAMUNetConfig, build
from pamunet.tensor import Tensor


def brute_force_cka(x, y):
    """HSIC of explicitly double-centered Gram matrices, with python loops."""
    n = x.shape[0]

    def centered_gram(m):
        k = m @ m.T
        kc = np.zeros_like(k)
        row = k.mean(axis=1)
        col = k.mean(axis=0)
        tot = k.mean()
        for i in range(n):
            for j in range(n):
                kc[i, j] = k[i, j] - row[i] - col[j] + tot
        return kc

    kx, ky = centered_gram(x), centered_gram(y)

    def hsic(a, b):
        s = 0.0
        for i in range(n):
            for j in range(n):
                s += a[i, j] * b[i, j]
        return s

    return hsic(kx, ky) / np.sqrt(hsic(kx, kx) * hsic(ky, ky))


def test_self_cka_is_one():
    x = np.random.default_rng(0).standard_normal((8, 5))
    assert cka_linear(x, x) == pytest.approx(1.0, abs=1e-10)


def test_scaling_and_orthogonal_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 4))
    y = rng.standard_normal((10, 6))
    base = cka_linear(x, y)
    assert cka_linear(x, 3.7 * y) == pytest.approx(base, abs=1e-6)
    assert cka_linear(-2.0 * x, y) == pytest.approx(base, abs=1e-6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    assert cka_linear(x, y @ q) == pytest.approx(base, abs=1e-6)


def test_symmetry():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((8, 3)), rng.standard_normal((8, 7))
    assert cka_linear(x, y) == pytest.approx(cka_linear(y, x), abs=1e-10)


def test_matches_brute_force_hsic_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal((8, 5))
        assert abs(cka_linear(x, y) - brute_force_cka(x, y)) < 1e-8


def test_range_and_constant_input():
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = cka_linear(rng.standard_normal((6, 4)), rng.standard_normal((6, 9)))
        assert -1e-9 <= v <= 1 + 1e-9
    assert cka_linear(np.ones((5, 3)), rng.standard_normal((5, 3))) == 0.0


def test_row_count_mismatch_rejected():
    with pytest.raises(ValueError, match="row counts"):
        cka_linear(np.zeros((4, 2)), np.zeros((5, 2)))


def test_capture_counts_and_determinism():
    cfg = PAMUNetConfig(levels=2, base_channels=4, input_size=(16, 16))
    model = build(cfg, seed=0)
    batch = Tensor(np.random.default_rng(5).random((8, 1, 16, 16)).astype(np.float32))
    acts = capture(model, batch, model_tag="a")
    assert len(acts.layers) == 2 * cfg.levels + 2
    assert all(m.shape[0] == 8 for m in acts.layers.values())
    again = capture(model, batch)
    for name in acts.layers:
        np.testing.assert_array_equal(acts.layers[name], again.layers[name])


def test_capture_rejects_tiny_batch():
    model = build(PAMUNetConfig(levels=2, base_channels=4, input_size=(16, 16)), seed=0)
    with pytest.raises(ValueError, match="probe batch"):
        capture(model, Tensor(np.zeros((1, 1, 16, 16))))


def test_cka_matrix_diagonal_and_composition():
    rng = np.random.default_rng(6)
    layers = {f"l{i}": rng.standard_normal((8, 3 + i)) for i in range(2)}
    a = ActivationSet("a", layers)
    mat = cka_matrix(a, a)
    np.testing.assert_allclose(np.diag(mat.values), 1.0, atol=1e-6)
    for i, ra in enumerate(mat.row_layers):
        for j, cb in enumerate(mat.col_layers):
            assert mat.values[i, j] == cka_linear(layers[ra], layers[cb])


def test_cka_matrix_rejects_mismatched_batches():
    rng = np.random.default_rng(7)
    a = ActivationSet("a", {"l": rng.standard_normal((8, 3))})
    b = ActivationSet("b", {"l": rng.standard_normal((6, 3))})
    with pytest.raises(ValueError, match="probe batches"):
        cka_matrix(a, b)


def test_csv_layout():
    rng = np.random.default_rng(8)
    a = ActivationSet("a", {"x": rng.standard_normal((6, 2)), "y": rng.standard_normal((6, 3))})
    b = ActivationSet("b", {"p": rng.standard_normal((6, 2))})
    csv = cka_matrix(a, b).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "layer,p"
    assert lines[1].startswith("x,") and lines[2].startswith("y,")
    val = float(lines[1].split(",")[1])
    assert 0.0 <= val <= 1.0 and len(lines[1].split(",")[1].split(".")[1]) == 6
