"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The trend criteria (7, 8) train real models and dominate the runtime;
they and the gradient suite (1) are marked ``slow``.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gradcheck import check_gradients, fd_gradient_kink_aware
from pamunet import attention as A
from pamunet import data as D
from pamunet import metrics as M
from pamunet import tensor as T
from pamunet import train as TR
from pamunet.blocks import Conv2d, ConvTranspose2d, DSConvLayer, init_parameters
from pamunet.cka import capture, cka_linear, cka_matrix
from pamunet.cli import run_ablation
from pamunet.flops import FlopsReport
from pamunet.losses import attention_reg, bce_loss, total_loss
from pamunet.model import PAMUNetConfig, build
from pamunet.tensor import Tensor


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] criterion {num:2d} FAIL  {title}")
                raise
            print(f"\n[ACCEPTANCE] criterion {num:2d} PASS  {title}")
        return wrapper
    return deco


# -- 1: gradient suite ---------------------------------------------------------

def _op_cases():
    rng = np.random.default_rng(100)

    def t(*shape, scale=1.0):
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=True,
                      dtype=np.float64)

    x44 = t(2, 3, 6, 6)
    w_conv = t(4, 3, 3, 3, scale=0.5)
    kd = t(3, 1, 3, 3, scale=0.5)
    kp = t(5, 3, 1, 1, scale=0.5)
    wt = t(3, 2, 2, 2, scale=0.5)
    a, b = t(2, 4, 4, 4), t(1, 4, 1, 1)
    m1, m2 = t(2, 3, 4), t(2, 4, 2)
    sm = t(3, 6)
    pos = Tensor(np.abs(rng.standard_normal((2, 5))) + 0.5, requires_grad=True,
                 dtype=np.float64)
    safe = Tensor(rng.uniform(-3, 9, (2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
    safe.data[np.abs(safe.data) < 0.05] += 0.2
    safe.data[np.abs(safe.data - 6.0) < 0.05] += 0.2
    q, k, v = t(1, 4, 3), t(1, 5, 3), t(1, 5, 2)
    qp, kp2, vv = t(1, 3, 4), t(1, 5, 4), t(4)

    yield "conv2d", [x44, w_conv], lambda: T.tsum(
        T.mul(T.conv2d(x44, w_conv, 2, 1), T.conv2d(x44, w_conv, 2, 1)))
    yield "depthwise_conv2d", [x44, kd], lambda: T.tsum(
        T.mul(T.depthwise_conv2d(x44, kd, 2, 1), T.depthwise_conv2d(x44, kd, 2, 1)))
    yield "pointwise_conv2d", [x44, kp], lambda: T.tsum(
        T.mul(T.pointwise_conv2d(x44, kp), T.pointwise_conv2d(x44, kp)))
    yield "conv_transpose2d", [x44, wt], lambda: T.tsum(
        T.mul(T.conv_transpose2d(x44, wt, 2), T.conv_transpose2d(x44, wt, 2)))
    yield "add/sub/mul broadcast", [a, b], lambda: T.tsum(
        T.mul(T.add(a, b), T.sub(a, b)))
    yield "relu6", [safe], lambda: T.tsum(T.mul(T.relu6(safe), safe))
    yield "clamp", [pos], lambda: T.tsum(T.mul(T.clamp(pos, 0.6, 2.0), pos))
    yield "sigmoid", [sm], lambda: T.tsum(T.sigmoid(sm))
    yield "tanh", [sm], lambda: T.tsum(T.tanh(sm))
    yield "exp", [sm], lambda: T.tsum(T.exp(T.mul(sm, 0.3)))
    yield "log", [pos], lambda: T.tsum(T.log(pos))
    yield "matmul", [m1, m2], lambda: T.tsum(T.mul(T.matmul(m1, m2), T.matmul(m1, m2)))
    yield "softmax", [sm], lambda: T.tsum(T.mul(T.softmax(sm, 1), T.softmax(sm, 1)))
    yield "mean/variance", [x44], lambda: T.add(T.mean(T.mul(x44, x44)), T.variance(x44))
    yield "concat/split", [a], lambda: T.tsum(T.mul(*T.split(T.concat([a, a], 1), 2, 1)))
    yield "reshape/transpose", [m1], lambda: T.tsum(
        T.mul(T.transpose(T.reshape(m1, (2, 4, 3)), (0, 2, 1)), m1))
    yield "attention streaming", [q, k, v], lambda: (lambda o, s: T.add(
        T.mean(T.mul(o, o)), T.mul(s, 2.0)))(*A.scaled_dot_attention_streaming(q, k, v, chunk=2))
    yield "additive scores", [qp, kp2, vv], lambda: T.mean(
        T.mul(A.additive_scores(qp, kp2, vv, chunk=2),
              A.additive_scores(qp, kp2, vv, chunk=2)))


@pytest.mark.slow
@criterion(1, "gradient suite: per-op and end-to-end finite differences")
def test_criterion_1_gradient_suite():
    t0 = time.time()
    for name, inputs, f in _op_cases():
        worst = check_gradients(f, inputs, tol=1e-4)
        assert worst < 1e-4, f"{name}: {worst}"

    with T.using_dtype(np.float64):
        cfg = PAMUNetConfig(levels=2, base_channels=4, input_size=(16, 16),
                            attention_variant="pla")
        model = build(cfg, seed=8)
        for name, p in model.named_parameters():
            if name.endswith("gain"):
                p.data[...] = 0.8  # open the gates so the attention path carries gradient
            elif name.endswith("bias"):
                # keep pre-activations away from the exact relu6 kinks, where
                # one-sided activation makes the difference quotient invalid
                p.data[...] = 0.013
        rng = np.random.default_rng(8)
        x = Tensor(rng.random((1, 1, 16, 16)))
        y = Tensor((rng.random((1, 1, 16, 16)) > 0.5).astype(np.float64))

        def loss_fn():
            out = model.forward(x)
            return total_loss(T.sigmoid(out.logits), y, out.gate_maps, 0.01).total

        loss = loss_fn()
        T.backward(loss)
        params = list(model.named_parameters())
        worst = 0.0
        checked = 0
        crossings = 0
        for name, p in params:
            assert p.grad is not None, f"no gradient reached {name}"
            numeric, valid = fd_gradient_kink_aware(loss_fn, p)
            # entries whose perturbation flips a relu6/clamp unit have no
            # valid two-sided quotient; they must stay rare
            crossings += int((~valid).sum())
            checked += int(valid.sum())
            if valid.any():
                # per-parameter relative error of the gradient vector
                diff = np.linalg.norm((p.grad - numeric)[valid])
                err = diff / (np.linalg.norm(p.grad[valid]) + 1e-8)
                worst = max(worst, err)
                assert err < 1e-3, f"{name}: rel error {err:.2e}"
            p.grad = None
    total = checked + crossings
    elapsed = time.time() - t0
    print(f"  [criterion 1] {total} parameters swept ({crossings} kink "
          f"crossings excluded), worst end-to-end rel error {worst:.2e}, {elapsed:.1f}s")
    assert checked == model.parameter_count() - crossings
    assert crossings <= 0.01 * total, f"too many kink crossings: {crossings}/{total}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"


# -- 2: DSConv equivalence ------------------------------------------------------

def _naive_conv2d(x, w, stride, padding):
    n, c, h, wd = x.shape
    c_out, c_in, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, ho, wo))
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[b, o, i, j] = np.sum(patch * w[o])
    return out


@criterion(2, "DSConv = depthwise o pointwise = grouped + 1x1 naive pipeline")
def test_criterion_2_dsconv_equivalence():
    rng = np.random.default_rng(200)
    for case in range(50):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 5))
        h = int(rng.integers(3, 7))
        stride = int(rng.integers(1, 3))
        with T.using_dtype(np.float64):
            layer = DSConvLayer(c_in, c_out, k=3, stride=stride, padding=1)
            init_parameters(layer, 200 + case)
            x = Tensor(rng.standard_normal((1, c_in, h, h)))
            out = layer(x)
            composed = T.add(T.pointwise_conv2d(
                T.depthwise_conv2d(x, layer.kernel_d, stride, 1), layer.kernel_p), layer.bias)
        assert np.max(np.abs(out.data - composed.data)) < 1e-6
        # naive oracle: grouped (block-diagonal) conv then 1x1 conv
        grouped = np.zeros((c_in, c_in, 3, 3))
        for c in range(c_in):
            grouped[c, c] = layer.kernel_d.data[c, 0]
        mid = _naive_conv2d(x.data, grouped, stride, 1)
        ref = _naive_conv2d(mid, layer.kernel_p.data, 1, 0) + layer.bias.data[None]
        assert np.max(np.abs(out.data - ref)) < 1e-6
    T.reset_tape()


# -- 3: attention contracts -------------------------------------------------------

@criterion(3, "attention contracts: row sums, PLA toy case, key permutation")
def test_criterion_3_attention_contracts():
    rng = np.random.default_rng(300)
    d_low = Tensor(rng.standard_normal((2, 3, 3, 3)))
    x = Tensor(rng.standard_normal((2, 4, 6, 6)))
    skip = Tensor(rng.standard_normal((2, 4, 6, 6)))
    for variant in ("pla", "self", "cross", "additive"):
        gate = A.make_gate(variant, 3, 4)
        init_parameters(gate, 300)
        _, weights = gate(d_low, x, skip)
        assert np.max(np.abs(weights.data.sum(axis=2) - 1.0)) < 1e-6, variant
    T.reset_tape()

    # hand-evaluated softmax(QK^T/sqrt(2)) V on a 2-position toy case
    q = np.array([[[1.0, 0.0], [0.5, -1.0]]])
    k = np.array([[[1.0, 1.0], [-2.0, 0.0]]])
    v = np.array([[[2.0, 1.0], [0.0, -1.0]]])
    out, w = A.scaled_dot_attention(Tensor(q, dtype=np.float64),
                                    Tensor(k, dtype=np.float64),
                                    Tensor(v, dtype=np.float64))
    s = (q[0] @ k[0].T) / math.sqrt(2.0)
    expect_w = np.exp(s) / np.exp(s).sum(axis=1, keepdims=True)
    assert np.max(np.abs(w.data[0] - expect_w)) < 1e-12
    assert np.max(np.abs(out.data[0] - expect_w @ v[0])) < 1e-12

    # permuting keys and values together leaves the attended output unchanged
    q = Tensor(rng.standard_normal((1, 5, 3)), dtype=np.float64)
    keys = rng.standard_normal((1, 7, 3))
    vals = rng.standard_normal((1, 7, 3))
    base, _ = A.scaled_dot_attention(q, Tensor(keys, dtype=np.float64),
                                     Tensor(vals, dtype=np.float64))
    perm = rng.permutation(7)
    permuted, _ = A.scaled_dot_attention(q, Tensor(keys[:, perm], dtype=np.float64),
                                         Tensor(vals[:, perm], dtype=np.float64))
    assert np.max(np.abs(base.data - permuted.data)) < 1e-6


# -- 4: loss identities ------------------------------------------------------------

@criterion(4, "loss identities: total = seg + 0.01*reg, reg(constant) = 0, BCE(0.5) = ln 2")
def test_criterion_4_loss_identities():
    rng = np.random.default_rng(400)
    pred = Tensor(rng.uniform(0.05, 0.95, (2, 1, 8, 8)))
    target = Tensor((rng.random((2, 1, 8, 8)) > 0.5).astype(np.float32))
    maps = [Tensor(rng.random((2, 16, 16))), Tensor(rng.random((2, 4, 4)))]
    lb = total_loss(pred, target, maps, lambda_reg=0.01)
    assert lb.total.data == lb.seg.data + np.float32(0.01) * lb.reg.data
    assert attention_reg([Tensor(np.full((3, 5, 5), 0.2))]).item() < 1e-12
    assert attention_reg([Tensor(np.full((3, 5, 5), 0.25))]).item() == 0.0
    uniform = Tensor(np.full((4, 4), 0.5))
    tgt = Tensor((rng.random((4, 4)) > 0.5).astype(np.float32))
    assert abs(bce_loss(uniform, tgt).item() - math.log(2)) < 1e-6
    T.reset_tape()


# -- 5: metric oracle ----------------------------------------------------------------

@criterion(5, "Dice/mIoU/Recall vs confusion-matrix oracle; IoU-Dice identity")
def test_criterion_5_metric_oracle():
    rng = np.random.default_rng(500)
    s = M.SMOOTH
    for _ in range(100):
        pred = (rng.random((16, 16)) > rng.uniform(0.1, 0.9)).astype(float)
        gt = (rng.random((16, 16)) > rng.uniform(0.1, 0.9)).astype(float)
        tp = fp = fn = tn = 0
        for p, g in zip(pred.reshape(-1), gt.reshape(-1)):
            tp += p == 1 and g == 1
            fp += p == 1 and g == 0
            fn += p == 0 and g == 1
            tn += p == 0 and g == 0
        dice_ref = (2 * tp + s) / (2 * tp + fp + fn + s)
        miou_ref = ((tp + s) / (tp + fp + fn + s) + (tn + s) / (tn + fp + fn + s)) / 2
        recall_ref = (tp + s) / (tp + fn + s)
        assert abs(M.dice(pred, gt) - dice_ref) < 1e-9
        assert abs(M.miou(pred, gt) - miou_ref) < 1e-9
        assert abs(M.recall(pred, gt) - recall_ref) < 1e-9
        fg_iou = (tp + s) / (tp + fp + fn + s)
        d = M.dice(pred, gt)
        assert abs(fg_iou - d / (2 - d)) < 1e-6


# -- 6: FLOPs counter -----------------------------------------------------------------

@criterion(6, "FLOPs: hand-derived 3-layer reference; DSConv/vanilla ratio exact")
def test_criterion_6_flops():
    # reference model: 3x3 conv stem, strided DSConv, 2x2 transposed conv
    stem = Conv2d(1, 8, k=3, stride=1, padding=1)
    ds = DSConvLayer(8, 16, k=3, stride=2, padding=1)
    up = ConvTranspose2d(16, 4, k=2, stride=2)
    hw = (16, 16)
    stem_macs = 3 * 3 * 1 * 8 * 16 * 16          # 18432
    ds_macs = 3 * 3 * 8 * 8 * 8 + 8 * 16 * 8 * 8  # 4608 + 8192 = 12800
    up_macs = 2 * 2 * 16 * 4 * 8 * 8              # 16384
    assert stem.macs(hw) == stem_macs == 18432
    assert ds.macs(hw) == ds_macs == 12800
    assert up.macs(ds.out_hw(hw)) == up_macs == 16384
    report = FlopsReport(rows=[("stem", "conv", stem.macs(hw)),
                               ("ds", "dsconv", ds.macs(hw)),
                               ("up", "conv_transpose", up.macs(ds.out_hw(hw)))])
    assert report.total_macs == 18432 + 12800 + 16384
    assert report.total_flops == 2 * report.total_macs

    for k, c_out in ((3, 32), (3, 7), (5, 16)):
        ds = DSConvLayer(16, c_out, k=k, stride=1, padding=k // 2)
        vanilla = Conv2d(16, c_out, k=k, stride=1, padding=k // 2)
        ratio = Fraction(ds.macs((14, 14)), vanilla.macs((14, 14)))
        assert ratio == Fraction(1, c_out) + Fraction(1, k * k)


# -- 7: overfit run --------------------------------------------------------------------

@pytest.mark.slow
@criterion(7, "overfit: 8 synthetic 32x32 samples reach train Dice >= 0.95 in <= 300 steps")
def test_criterion_7_overfit(tmp_path):
    t0 = time.time()
    manifest = D.synth_generate(tmp_path / "overfit", seed=11, count=10, size=32)
    assert len(manifest.split("train")) == 8
    cfg = PAMUNetConfig(levels=2, base_channels=8, input_size=(32, 32),
                        attention_variant="pla")
    tcfg_chunk = dict(lr=0.01, momentum=0.9, weight_decay=1e-4, batch_size=8,
                      seed=0, lambda_reg=0.01)
    model = build(cfg, seed=0)
    steps_done = 0
    hit = None
    velocities = None
    while steps_done < 300 and hit is None:
        chunk = min(25, 300 - steps_done)  # batch of 8 samples -> 1 step per epoch
        result = TR.train(model, manifest, TR.TrainConfig(epochs=chunk, **tcfg_chunk),
                          start_epoch=steps_done, velocities=velocities)
        velocities = result.velocities
        for row in result.history:
            assert np.isfinite(row["total_loss"]), "loss went non-finite"
            steps_done += 1
            if row["train_dice"] >= 0.95:
                hit = steps_done
                break
    elapsed = time.time() - t0
    print(f"  [criterion 7] train Dice >= 0.95 after {hit} steps, {elapsed:.0f}s")
    assert hit is not None and hit <= 300
    assert elapsed < 300.0


# -- 8: ablation trend -------------------------------------------------------------------

@pytest.mark.slow
@criterion(8, "ablation trend: PLA >= MED on Dice; PLA near-max; PLA costs more FLOPs")
def test_criterion_8_ablation_trend(tmp_path):
    manifest = D.synth_generate(tmp_path / "ablate", seed=5, count=64, size=64)
    model_kw = dict(levels=3, base_channels=4, input_size=(64, 64))
    # batch 4 escapes the all-background BCE plateau in a few epochs at this
    # scale; 10 epochs leaves clear headroom between the variants
    train_kw = dict(epochs=10, batch_size=4, lr=0.01, momentum=0.9,
                    weight_decay=1e-4, lambda_reg=0.01)
    variants = [
        ("med", {"attention_variant": "none", "decoder_kind": "mobile"}),
        ("med+self", {"attention_variant": "self", "decoder_kind": "mobile"}),
        ("med+cross", {"attention_variant": "cross", "decoder_kind": "mobile"}),
        ("med+additive", {"attention_variant": "additive", "decoder_kind": "mobile"}),
        ("med+pla", {"attention_variant": "pla", "decoder_kind": "mobile"}),
    ]
    rows, means = run_ablation(model_kw, train_kw, manifest, seeds=[0, 1, 2],
                               variants=variants)
    mean_dice = {m["variant"]: m["dice"] for m in means}
    macs = {m["variant"]: m["macs"] for m in means}
    for m in means:
        print(f"  [criterion 8] {m['variant']:<14} mean dice {m['dice']:.4f} "
              f"({m['macs'] / 1e6:.1f} MMACs)")
    for r in rows:
        print(f"  [criterion 8] {r['variant']:<14} seed {r['seed']} dice {r['dice']:.4f}")
    per_seed = {(r["variant"], r["seed"]): r["dice"] for r in rows}
    paired = [per_seed["med+pla", s] - per_seed["med", s] for s in (0, 1, 2)]
    print("  [criterion 8] PLA-MED per seed: " + " ".join(f"{d:+.4f}" for d in paired))
    assert mean_dice["med+pla"] >= mean_dice["med"], \
        f"PLA {mean_dice['med+pla']:.4f} < MED {mean_dice['med']:.4f}"
    attention_best = max(v for k, v in mean_dice.items() if k != "med")
    assert mean_dice["med+pla"] >= attention_best - 0.01, \
        f"PLA {mean_dice['med+pla']:.4f} more than 1 point below best {attention_best:.4f}"
    assert macs["med+pla"] > macs["med"]


# -- 9: CKA -----------------------------------------------------------------------------

@criterion(9, "CKA: diagonal, invariances, HSIC oracle, trained-vs-untrained CSV")
def test_criterion_9_cka(tmp_path):
    rng = np.random.default_rng(900)
    x = rng.standard_normal((10, 6))
    assert abs(cka_linear(x, x) - 1.0) < 1e-6
    y = rng.standard_normal((10, 4))
    base = cka_linear(x, y)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    assert abs(cka_linear(x, 2.5 * y) - base) < 1e-6
    assert abs(cka_linear(x, y @ q) - base) < 1e-6

    def brute(xm, ym):
        n = xm.shape[0]

        def cg(m):
            kk = m @ m.T
            out = np.zeros_like(kk)
            for i in range(n):
                for j in range(n):
                    out[i, j] = (kk[i, j] - kk[i].mean() - kk[:, j].mean() + kk.mean())
            return out

        kx, ky = cg(xm), cg(ym)
        num = sum(kx[i, j] * ky[i, j] for i in range(n) for j in range(n))
        dx = sum(kx[i, j] * kx[i, j] for i in range(n) for j in range(n))
        dy = sum(ky[i, j] * ky[i, j] for i in range(n) for j in range(n))
        return num / math.sqrt(dx * dy)

    for _ in range(5):
        xm = rng.standard_normal((8, 3))
        ym = rng.standard_normal((8, 5))
        assert abs(cka_linear(xm, ym) - brute(xm, ym)) < 1e-8

    cfg = PAMUNetConfig(levels=2, base_channels=4, input_size=(32, 32),
                        attention_variant="pla")
    untrained = build(cfg, seed=1)
    manifest = D.synth_generate(tmp_path / "cka", seed=12, count=16, size=32)
    trained, _ = TR.run_training(cfg, manifest, TR.TrainConfig(epochs=3, batch_size=8, seed=1))
    probe = Tensor(np.stack([s.image.data for s in D.synth_batch(99, 8, 32)]))
    acts_t = capture(trained, probe, "trained")
    acts_u = capture(untrained, probe, "untrained")
    self_mat = cka_matrix(acts_t, acts_t)
    assert np.max(np.abs(np.diag(self_mat.values) - 1.0)) < 1e-6
    cross = cka_matrix(acts_t, acts_u)
    csv = cross.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("layer,") and len(lines) == 1 + len(acts_t.layers)
    vals = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# -- 10: determinism & persistence ----------------------------------------------------------

@criterion(10, "determinism: same-seed checkpoints, checkpoint and netpbm round trips")
def test_criterion_10_determinism(tmp_path):
    manifest = D.synth_generate(tmp_path / "det", seed=21, count=10, size=16)
    cfg = PAMUNetConfig(levels=2, base_channels=4, input_size=(16, 16))
    tcfg = TR.TrainConfig(epochs=2, batch_size=4, seed=9, augment=True)
    blobs = []
    for tag in ("a", "b"):
        model, result = TR.run_training(cfg, manifest, tcfg)
        path = tmp_path / f"{tag}.pamckpt"
        TR.save_checkpoint(path, model, epoch=2, seed=9, velocities=result.velocities)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    loaded, extras = TR.load_checkpoint(tmp_path / "a.pamckpt")
    TR.save_checkpoint(tmp_path / "c.pamckpt", loaded, epoch=extras["epoch"],
                       seed=extras["seed"], velocities=extras["velocities"])
    assert (tmp_path / "c.pamckpt").read_bytes() == blobs[0]

    rng = np.random.default_rng(22)
    for channels, ext in ((1, "pgm"), (3, "ppm")):
        raw = rng.integers(0, 256, (channels, 9, 7), dtype=np.uint8)
        path = tmp_path / f"rt.{ext}"
        D.write_image(path, raw.astype(np.float32) / 255.0)
        before = path.read_bytes()
        D.write_image(path, D.read_image(path))
        assert path.read_bytes() == before
