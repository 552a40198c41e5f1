"""Attention gate tests: reference dot attention, gate variants, streaming path."""

import math
import tracemalloc

import numpy as np
import pytest

from gradcheck import check_gradients
from pamunet import attention as A
from pamunet import tensor as T
from pamunet.blocks import init_parameters
from pamunet.tensor import ShapeError, Tensor


def test_scaled_dot_hand_case():
    # two positions, d_k = 2, hand-evaluated softmax(QK^T/sqrt(2)) V
    q = np.array([[[1.0, 0.0], [0.0, 2.0]]])
    k = np.array([[[1.0, 1.0], [2.0, 0.0]]])
    v = np.array([[[1.0, 10.0], [3.0, 30.0]]])
    out, w = A.scaled_dot_attention(Tensor(q, dtype=np.float64),
                                    Tensor(k, dtype=np.float64),
                                    Tensor(v, dtype=np.float64))
    s = (q[0] @ k[0].T) / math.sqrt(2)
    expect_w = np.exp(s) / np.exp(s).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(w.data[0], expect_w, atol=1e-12)
    np.testing.assert_allclose(out.data[0], expect_w @ v[0], atol=1e-12)


def test_identical_keys_give_uniform_weights_and_mean_value():
    rng = np.random.default_rng(0)
    q = Tensor(rng.standard_normal((1, 3, 4)))
    k = Tensor(np.tile(rng.standard_normal((1, 1, 4)), (1, 5, 1)))
    v = Tensor(rng.standard_normal((1, 5, 4)))
    out, w = A.scaled_dot_attention(q, k, v)
    np.testing.assert_allclose(w.data, 0.2, atol=1e-6)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=1, keepdims=True), (1, 3, 1)), atol=1e-6)


def test_single_position_weight_is_one():
    rng = np.random.default_rng(1)
    q, k, v = (Tensor(rng.standard_normal((2, 1, 3))) for _ in range(3))
    out, w = A.scaled_dot_attention(q, k, v)
    np.testing.assert_allclose(w.data, 1.0)
    np.testing.assert_array_equal(out.data, v.data)


def _array_sink(blocks: list):
    """A weight sink that keeps a copy of each (N, rows, Lk) block, checking that
    blocks come in row order; ``np.concatenate(blocks, axis=1)`` is the map."""
    def sink(rows, w):
        assert rows.start == sum(b.shape[1] for b in blocks)
        blocks.append(w.copy())
    return sink


def _gate_inputs(c_low=3, c=4, h=3, w=3, n=2, seed=5):
    rng = np.random.default_rng(seed)
    d_low = Tensor(rng.standard_normal((n, c_low, h, w)))
    x = Tensor(rng.standard_normal((n, c, 2 * h, 2 * w)))
    skip = Tensor(rng.standard_normal((n, c, 2 * h, 2 * w)))
    return d_low, x, skip


@pytest.mark.parametrize("variant", ["pla", "self", "cross", "additive"])
def test_weight_rows_sum_to_one(variant):
    d_low, x, skip = _gate_inputs()
    gate = A.make_gate(variant, 3, 4)
    init_parameters(gate, 7)
    _, entry = gate(d_low, x, skip)
    assert entry.ndim == 3
    np.testing.assert_allclose(entry.data.sum(axis=2), 1.0, atol=1e-6)
    T.reset_tape()


@pytest.mark.parametrize("variant", ["pla", "self", "cross", "additive"])
def test_zero_initialized_gate_is_identity_and_fixed_point(variant):
    d_low, x, skip = _gate_inputs(seed=9)
    gate = A.make_gate(variant, 3, 4)  # params default to zero
    y, entry = gate(d_low, x, skip)
    np.testing.assert_array_equal(y.data, x.data)
    np.testing.assert_allclose(entry.data.sum(axis=2), 1.0, atol=1e-6)
    # uniform map -> zero variance -> zero regularizer contribution
    assert T.variance(entry).item() == pytest.approx(0.0, abs=1e-12)
    loss = T.tsum(T.mul(y, y))
    T.backward(loss)
    for name, p in gate.named_parameters():
        assert p.grad is None or not p.grad.any(), f"gate parameter {name} leaked gradient"


def test_self_attention_single_position_is_linear_projection():
    gate = A.make_gate("self", 3, 3)
    init_parameters(gate, 3)
    gate.gain.data[...] = 1.0
    x = Tensor(np.random.default_rng(3).standard_normal((1, 3, 1, 1)))
    skip = Tensor(np.zeros((1, 3, 1, 1)))
    y, w = gate(None, x, skip)
    np.testing.assert_allclose(w.data, 1.0)
    expect = x.data + gate.v_proj(x).data
    np.testing.assert_allclose(y.data, expect, atol=1e-6)
    T.reset_tape()


def test_cross_matches_self_structure_when_sources_coincide():
    x = Tensor(np.random.default_rng(4).standard_normal((1, 3, 2, 2)))
    self_gate, cross_gate = A.make_gate("self", 3, 3), A.make_gate("cross", 3, 3)
    init_parameters(self_gate, 11)
    init_parameters(cross_gate, 11)
    # same parameter names -> same init; with q_src == kv_src both compute the
    # same function
    y_self, w_self = self_gate(None, x, x)
    y_cross, w_cross = cross_gate(None, x, x)
    np.testing.assert_allclose(y_self.data, y_cross.data, atol=1e-6)
    np.testing.assert_allclose(w_self.data, w_cross.data, atol=1e-6)
    T.reset_tape()


def test_additive_zero_scorer_gives_uniform_weights():
    d_low, x, skip = _gate_inputs(seed=6)
    gate = A.AdditiveAttentionGate(4)
    init_parameters(gate, 13)
    gate.w_q.kernel.data[...] = 0.0
    gate.w_k.kernel.data[...] = 0.0
    _, w = gate(d_low, x, skip)
    np.testing.assert_allclose(w.data, 1.0 / w.shape[2], atol=1e-7)
    T.reset_tape()


def test_additive_scores_match_naive_triple_loop():
    rng = np.random.default_rng(8)
    with T.using_dtype(np.float64):
        qp = Tensor(rng.standard_normal((2, 3, 4)))
        kp = Tensor(rng.standard_normal((2, 5, 4)))
        v = Tensor(rng.standard_normal(4))
        s = A.additive_scores(qp, kp, v, chunk=2)
    ref = np.zeros((2, 3, 5))
    for n in range(2):
        for i in range(3):
            for j in range(5):
                ref[n, i, j] = np.dot(v.data, np.tanh(qp.data[n, i] + kp.data[n, j]))
    np.testing.assert_allclose(s.data, ref, atol=1e-12)


def test_key_permutation_leaves_output_unchanged():
    rng = np.random.default_rng(10)
    q = Tensor(rng.standard_normal((1, 4, 3)), dtype=np.float64)
    k = rng.standard_normal((1, 6, 3))
    v = rng.standard_normal((1, 6, 3))
    out, _ = A.scaled_dot_attention(q, Tensor(k, dtype=np.float64), Tensor(v, dtype=np.float64))
    perm = np.random.default_rng(1).permutation(6)
    out_p, _ = A.scaled_dot_attention(q, Tensor(k[:, perm], dtype=np.float64),
                                      Tensor(v[:, perm], dtype=np.float64))
    np.testing.assert_allclose(out.data, out_p.data, atol=1e-6)


def test_streaming_matches_materialized_path():
    rng = np.random.default_rng(12)
    with T.using_dtype(np.float64):
        q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in ((2, 7, 3), (2, 5, 3), (2, 5, 4)))

        def run(keep_map):
            """Output, variance, and the q, k, v gradients of mean(out^2) + 3 var."""
            out, second = A.scaled_dot_attention_streaming(q, k, v, chunk=3, keep_map=keep_map)
            var = T.variance(second) if keep_map else second
            T.backward(T.add(T.mean(T.mul(out, out)), T.mul(Tensor(3.0), var)))
            grads = [t.grad for t in (q, k, v)]
            for t in (q, k, v):
                t.zero_grad()
            return out.data, var.item(), grads

        out_full, var_full, grads_full = run(keep_map=True)
        out_stream, var_stream, grads_stream = run(keep_map=False)
    np.testing.assert_allclose(out_stream, out_full, atol=1e-12)
    assert var_stream == pytest.approx(var_full, abs=1e-12)
    # the kept map's gradient comes through T.variance, mean shift included; the
    # streamed variance has no mean term, so this checks that the shift cancels
    for got, want in zip(grads_stream, grads_full):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_streaming_weights_output_matches_materialized_map():
    rng = np.random.default_rng(13)
    q = Tensor(rng.standard_normal((2, 7, 3)))
    k = Tensor(rng.standard_normal((2, 5, 3)))
    v = Tensor(rng.standard_normal((2, 5, 4)))
    _, w = A.scaled_dot_attention(q, k, v)
    out, var = A.scaled_dot_attention_streaming(q, k, v, chunk=3)
    blocks, kept_blocks = [], []
    out_w, var_w = A.scaled_dot_attention_streaming(q, k, v, chunk=3, sink=_array_sink(blocks))
    weights = np.concatenate(blocks, axis=1)
    np.testing.assert_allclose(weights, w.data, atol=1e-6)
    np.testing.assert_array_equal(out_w.data, out.data)
    assert var_w.item() == var.item()
    # a kept map in the same blocks hands over its own rows, the streamed bits
    out_k, w_k = A.scaled_dot_attention_streaming(q, k, v, chunk=3, sink=_array_sink(kept_blocks),
                                                  keep_map=True)
    assert np.concatenate(kept_blocks, axis=1).tobytes() == w_k.data.tobytes() == weights.tobytes()


def _dot_inputs(shape_q, shape_k, c, seed):
    rng = np.random.default_rng(seed)
    return tuple(Tensor(rng.standard_normal(shape), requires_grad=True)
                 for shape in (shape_q, shape_k, shape_k[:2] + (c,)))


@pytest.mark.parametrize("used", ["output", "variance", "both"])
def test_streamed_gradients_match_kept_map(used):
    # a ragged chunk (7 rows in blocks of 3), against a kept map in one block of
    # all 7 rows; "output" leaves the variance's gradient None, "variance" the output's
    with T.using_dtype(np.float64):
        q, k, v = _dot_inputs((2, 7, 3), (2, 5, 3), 4, seed=31)

        def run(keep_map, sink=None, chunk=3):
            out, second = A.scaled_dot_attention_streaming(q, k, v, chunk=chunk, sink=sink,
                                                           keep_map=keep_map)
            var = T.variance(second) if keep_map else second
            out_term, var_term = T.mean(T.mul(out, out)), T.mul(var, 3.0)
            T.backward({"output": out_term, "variance": var_term,
                        "both": T.add(out_term, var_term)}[used])
            grads = [t.grad for t in (q, k, v)]
            for t in (q, k, v):
                t.zero_grad()
            return out.data, var.item(), grads

        out_kept, var_kept, grads_kept = run(keep_map=True, chunk=7)
        out_kb, var_kb, grads_kb = run(keep_map=True)
        out_stream, var_stream, grads_stream = run(keep_map=False)
        blocks, kept_blocks = [], []
        out_w, var_w, grads_w = run(keep_map=False, sink=_array_sink(blocks))
        out_kw, var_kw, grads_kw = run(keep_map=True, sink=_array_sink(kept_blocks))
    np.testing.assert_allclose(out_stream, out_kept, rtol=0, atol=1e-12)
    assert var_stream == pytest.approx(var_kept, abs=1e-12)
    for got, want in zip(grads_stream, grads_kept):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    # the kept map in blocks of 3 rows takes its row terms per block
    np.testing.assert_allclose(out_kb, out_kept, rtol=0, atol=1e-10)
    assert var_kb == pytest.approx(var_kept, abs=1e-10)
    for got, want in zip(grads_kb, grads_kept):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    # the export is each block's normalized exp(scores - max), kept map or not,
    # and asking for it changes nothing else
    scores, _ = A._dot_scorer(q, k)
    for i, lo in enumerate(range(0, 7, 3)):
        s = scores(slice(lo, lo + 3))
        s = np.exp(s - s.max(axis=2, keepdims=True))
        assert (s / s.sum(axis=2, keepdims=True)).tobytes() == blocks[i].tobytes()
        assert kept_blocks[i].tobytes() == blocks[i].tobytes()
    assert out_w.tobytes() == out_stream.tobytes() and var_w == var_stream
    assert out_kw.tobytes() == out_kb.tobytes() and var_kw == var_kb
    for got, want in zip(grads_w + grads_kw, grads_stream + grads_kb):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scorer", ["dot", "additive"])
def test_streamed_forward_keeps_no_block(scorer):
    # what a recorded streamed call holds after its forward, on top of its two
    # outputs, is the per-row lse and sum(w^2): less than one (N, chunk, Lk) block
    n, l, d, chunk = 1, 1024, 4, 64
    q, k, v = _dot_inputs((n, l, d), (n, l, d), d, seed=32)
    score_v = Tensor(np.ones(d), requires_grad=True) if scorer == "additive" else None
    block_bytes = n * chunk * l * q.data.itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, var = A.scaled_dot_attention_streaming(q, k, v, chunk=chunk, score_v=score_v)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes - var.data.nbytes
    finally:
        tracemalloc.stop()
        T.reset_tape()
    assert held < block_bytes, f"forward kept {held} bytes, one block is {block_bytes}"


@pytest.mark.parametrize("scorer", ["dot", "additive"])
def test_kept_backward_holds_map_gradient_and_few_blocks(scorer):
    # criterion 8's 32x32 gate in float32: backward through a kept 16 MiB map
    # needs the map's gradient (from T.variance) and a few blocks of ``chunk``
    # query rows, a block being the (N, chunk, Lk) scores or, for the additive
    # scorer, the (N, chunk, Lk, d) tanh; never a second or third whole map
    n, l, d, chunk = 4, 1024, 4, 64
    q, k, v = _dot_inputs((n, l, d), (n, l, d), d, seed=33)
    score_v = Tensor(np.ones(d), requires_grad=True) if scorer == "additive" else None
    block_bytes = n * chunk * l * q.data.itemsize * (d if score_v is not None else 1)
    out, w = A.scaled_dot_attention_streaming(q, k, v, chunk=chunk, score_v=score_v, keep_map=True)
    loss = T.add(T.mean(T.mul(out, out)), T.variance(w))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        T.reset_tape()
    bound = w.data.nbytes + 4 * block_bytes
    assert peak < bound, f"backward peaked {peak} bytes above its start, bound {bound}"


def test_gate_switches_to_streaming_beyond_limit(monkeypatch):
    d_low, x, skip = _gate_inputs(seed=14)
    gate = A.PLAGate(3, 4)
    init_parameters(gate, 15)
    monkeypatch.setattr(A, "MATERIALIZE_BYTES", 0)  # force streaming
    y, entry = gate(d_low, x, skip)
    assert entry.ndim == 0
    monkeypatch.undo()
    y2, entry2 = gate(d_low, x, skip)
    np.testing.assert_allclose(y.data, y2.data, atol=1e-6)
    assert entry.item() == pytest.approx(T.variance(entry2).item(), abs=1e-10)
    T.reset_tape()


@pytest.mark.parametrize("side,batches,streamed", [(32, (1, 4), False), (64, (1, 2), True)])
def test_path_is_chosen_by_per_sample_map_bytes(side, batches, streamed):
    # float32: a 32x32 grid's map is 4 MiB per sample, a 64x64 grid's 64 MiB
    gate = A.make_gate("self", 2, 2)
    init_parameters(gate, 21)
    for n in batches:
        d_low, x, skip = _gate_inputs(c_low=2, c=2, h=side // 2, w=side // 2, n=n, seed=22)
        blocks = []
        with T.no_grad():
            _, entry = gate(d_low, x, skip, sink=_array_sink(blocks))
        assert (entry.ndim == 0) == streamed
        assert np.concatenate(blocks, axis=1).shape == (n, side * side, side * side)
        np.testing.assert_allclose(blocks[0][:, :3].sum(axis=2), 1.0, atol=1e-5)


@pytest.mark.parametrize("variant", ["pla", "self", "cross", "additive"])
@pytest.mark.parametrize("path", ["materialized", "streamed"])
def test_gate_appends_its_map_on_request(variant, path, monkeypatch):
    if path == "streamed":
        monkeypatch.setattr(A, "MATERIALIZE_BYTES", 0)
    d_low, x, skip = _gate_inputs(seed=23)
    gate = A.make_gate(variant, 3, 4)
    init_parameters(gate, 24)
    with T.no_grad():
        y, entry = gate(d_low, x, skip)
        blocks = []
        y_m, entry_m = gate(d_low, x, skip, sink=_array_sink(blocks))
    np.testing.assert_array_equal(y_m.data, y.data)
    np.testing.assert_array_equal(entry_m.data, entry.data)
    weights = np.concatenate(blocks, axis=1)
    assert weights.shape == (2, 36, 36)
    if path == "materialized":
        np.testing.assert_array_equal(weights, entry.data)
    else:
        assert float(weights.var(dtype=np.float64)) == pytest.approx(entry.item(), rel=1e-5)


def _chain_forward(gate, d_low, x, skip):
    """A gate's forward as separate tape ops: scores, then ``T.softmax`` and
    ``T.matmul``; the reference that the one-node kernel must reproduce."""
    if isinstance(gate, A.AdditiveAttentionGate):
        scores = A.additive_scores(A.to_sequence(gate.w_q(skip)), A.to_sequence(gate.w_k(x)),
                                   gate.score_v)
        v = None  # the values were projected after the softmax
    else:
        if isinstance(gate, A.PLAGate):
            k_img, v_img = T.split(gate.kv(gate.upsample(gate.refine(d_low))), 2, axis=1)
            q = A.to_sequence(skip)
        else:
            q = A.to_sequence(gate.q_proj(skip if gate.cross else x))
            k_img, v_img = gate.k_proj(x), gate.v_proj(x)
        k, v = A.to_sequence(k_img), A.to_sequence(v_img)
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(q.shape[-1]))
    weights = T.softmax(scores, axis=2)
    attended = T.matmul(weights, v if v is not None else A.to_sequence(gate.v_proj(x)))
    image = T.reshape(T.transpose(attended, (0, 2, 1)), x.shape)
    return T.add(x, T.mul(gate.gain, image)), weights


@pytest.mark.parametrize("variant", ["pla", "self", "cross", "additive"])
@pytest.mark.parametrize("n,side,c", [(4, 16, 8), (4, 32, 4)])
def test_gate_matches_tape_chain_bitwise(variant, n, side, c, monkeypatch):
    # the criterion-8 grids, (4,256,8) and (4,1024,4), in float32: the loss and
    # every gradient, whose layout decides the bits of the projections' gradients.
    # With one block of every query row the kernel does the chain's arithmetic;
    # smaller blocks split its sums across blocks, so they cannot match bit for bit
    monkeypatch.setattr(A, "BLOCK_ROWS", side * side)
    d_low, x, skip = _gate_inputs(c_low=2 * c, c=c, h=side // 2, w=side // 2, n=n, seed=25)
    for t in (d_low, x, skip):
        t.requires_grad = True
    gate = A.make_gate(variant, 2 * c, c)
    init_parameters(gate, 26)
    gate.gain.data[...] = 0.5
    tensors = [p for _, p in gate.named_parameters()] + [d_low, x, skip]
    runs = []
    for forward in (gate, lambda *a: _chain_forward(gate, *a)):
        y, entry = forward(d_low, x, skip)
        assert entry.ndim == 3
        loss = T.add(T.mean(T.mul(y, y)), T.variance(entry))
        T.backward(loss)
        runs.append([loss.data.tobytes()] + [None if t.grad is None else t.grad.tobytes()
                                             for t in tensors])
        for t in tensors:
            t.zero_grad()
    assert runs[0] == runs[1]


def test_additive_gate_streams_beyond_4096_positions():
    d_low, x, skip = _gate_inputs(c_low=2, c=2, h=33, w=33, n=1, seed=27)  # 66x66: 4,356 positions
    gate = A.AdditiveAttentionGate(2)
    init_parameters(gate, 28)
    gate.gain.data[...] = 0.5
    y, entry = gate(d_low, x, skip)
    assert entry.ndim == 0
    T.backward(T.add(T.mean(T.mul(y, y)), entry))
    for name, p in gate.named_parameters():
        assert p.grad is not None and np.isfinite(p.grad).all(), name


def test_grid_mismatch_raises():
    gate = A.PLAGate(3, 4)
    init_parameters(gate, 2)
    d_low = Tensor(np.zeros((1, 3, 3, 3)))
    x = Tensor(np.zeros((1, 4, 6, 6)))
    skip = Tensor(np.zeros((1, 4, 8, 8)))
    with pytest.raises(ShapeError, match="grid"):
        gate(d_low, x, skip)


def test_fd_pla_gate_gradients():
    with T.using_dtype(np.float64):
        rng = np.random.default_rng(16)
        d_low = Tensor(rng.standard_normal((1, 2, 2, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        skip = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        gate = A.PLAGate(2, 3, expansion=2)
        init_parameters(gate, 17)
        gate.gain.data[...] = 0.8
        params = [p for _, p in gate.named_parameters()]

        def f():
            y, entry = gate(d_low, x, skip)
            return T.add(T.mean(T.mul(y, y)), T.variance(entry))

        check_gradients(f, params + [d_low, x, skip], tol=1e-4)


@pytest.mark.parametrize("scorer", ["dot", "additive"])
def test_fd_streaming_attention_gradients(scorer):
    with T.using_dtype(np.float64):
        rng = np.random.default_rng(18)
        q = Tensor(rng.standard_normal((1, 4, 3)), requires_grad=True)
        k = Tensor(rng.standard_normal((1, 5, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((1, 5, 2)), requires_grad=True)
        score_v = Tensor(rng.standard_normal(3), requires_grad=True) if scorer == "additive" else None

        def f():
            out, var = A.scaled_dot_attention_streaming(q, k, v, chunk=2, score_v=score_v)
            return T.add(T.mean(T.mul(out, out)), T.mul(var, 3.0))

        check_gradients(f, [q, k, v] + ([score_v] if score_v is not None else []), tol=1e-4)


@pytest.mark.parametrize("path", ["materialized", "streamed"])
def test_fd_additive_gate_gradients(path, monkeypatch):
    if path == "streamed":
        monkeypatch.setattr(A, "MATERIALIZE_BYTES", 0)
    with T.using_dtype(np.float64):
        rng = np.random.default_rng(19)
        d_low = Tensor(rng.standard_normal((1, 2, 2, 2)))
        x = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        skip = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        gate = A.AdditiveAttentionGate(3)
        init_parameters(gate, 20)
        gate.gain.data[...] = 0.5
        params = [p for _, p in gate.named_parameters()]

        def f():
            y, entry = gate(d_low, x, skip)
            return T.add(T.mean(T.mul(y, y)), T.variance(entry))

        check_gradients(f, params + [x, skip], tol=1e-4)
