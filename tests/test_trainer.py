"""Optimizer arithmetic, checkpoint round trips, training determinism."""

import json
import struct

import numpy as np
import pytest

from pamunet import attention as A
from pamunet import cli
from pamunet import data as D
from pamunet import tensor as T
from pamunet import train as TR
from pamunet.losses import CLAMP_EPS
from pamunet.model import PAMUNet, PAMUNetConfig, build
from pamunet.tensor import Tensor

TINY = dict(levels=2, base_channels=4, input_size=(16, 16))


def test_sgd_hand_arithmetic_two_steps():
    w = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = TR.SGD({"w": w}, lr=0.1, momentum=0.9, weight_decay=0.0)
    w.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(opt.velocities["w"], [1.0])
    np.testing.assert_allclose(w.data, [0.9])
    w.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(opt.velocities["w"], [1.9])
    np.testing.assert_allclose(w.data, [0.71])


def test_sgd_zero_grad_is_fixed_point():
    w = Tensor(np.array([2.5]), requires_grad=True)
    opt = TR.SGD({"w": w}, lr=0.1, momentum=0.0, weight_decay=0.0)
    w.grad = np.zeros(1)
    opt.step()
    np.testing.assert_array_equal(w.data, [2.5])


def test_sgd_weight_decay_enters_gradient():
    w = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = TR.SGD({"w": w}, lr=0.1, momentum=0.0, weight_decay=0.1)
    w.grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(w.data, [1.0 - 0.1 * 0.1])


def test_sgd_descends_quadratic_below_critical_lr():
    curvature = 4.0
    for lr in (0.05, 0.3, 2.0 / curvature - 0.01):
        w = Tensor(np.array([3.0], dtype=np.float64), requires_grad=True)
        opt = TR.SGD({"w": w}, lr=lr)
        f0 = 0.5 * curvature * w.data[0] ** 2
        w.grad = curvature * w.data
        opt.step()
        assert 0.5 * curvature * w.data[0] ** 2 < f0


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr"):
        TR.TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="momentum"):
        TR.TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="batch_size"):
        TR.TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="lambda_reg"):
        TR.TrainConfig(lambda_reg=-5.0)
    with pytest.raises(ValueError, match="weight_decay"):
        TR.TrainConfig(weight_decay=-1.0)
    TR.TrainConfig(lambda_reg=0.0, weight_decay=0.0)


@pytest.mark.parametrize("flag,value", [("--lambda-reg", "-5"), ("--weight-decay", "-1")])
def test_train_rejects_negative_loss_weights(tmp_path, capsys, flag, value):
    _tiny_dataset(tmp_path, count=8)
    ckpt = tmp_path / "m.pamckpt"
    assert cli.main(["train", "--data", str(tmp_path / "data" / "manifest.tsv"),
                     "--out", str(ckpt), "--levels", "2", "--base-channels", "4",
                     "--input-size", "16", "--epochs", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and flag[2:].replace("-", "_") in err
    assert not ckpt.exists()


def test_checkpoint_roundtrip_is_byte_identical(tmp_path):
    model = build(PAMUNetConfig(**TINY), seed=3)
    p1 = tmp_path / "a.pamckpt"
    p2 = tmp_path / "b.pamckpt"
    vel = {n: np.full_like(p.data, 0.25) for n, p in model.named_parameters()}
    TR.save_checkpoint(p1, model, epoch=4, seed=3, velocities=vel)
    loaded, extras = TR.load_checkpoint(p1)
    assert extras["epoch"] == 4 and extras["seed"] == 3
    TR.save_checkpoint(p2, loaded, epoch=4, seed=3, velocities=extras["velocities"])
    assert p1.read_bytes() == p2.read_bytes()
    for (n1, a), (n2, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_version_mismatch_is_hard_error(tmp_path):
    model = build(PAMUNetConfig(**TINY), seed=0)
    path = tmp_path / "c.pamckpt"
    TR.save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    # bump the version field inside the JSON header
    idx = blob.find(b'"version":1')
    blob[idx:idx + len(b'"version":1')] = b'"version":9'
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        TR.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.pamckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        TR.load_checkpoint(path)


def _rewrite_checkpoint(path, edit_header=None, edit_body=None):
    """Rewrite a checkpoint's JSON header and/or the bytes after it."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<Q", data[8:16])
    header, body = json.loads(data[16:16 + hlen]), data[16 + hlen:]
    if edit_header:
        edit_header(header)
    if edit_body:
        body = edit_body(body)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + body)


def _saved_with_velocities(tmp_path):
    model = build(PAMUNetConfig(**TINY), seed=4)
    path = tmp_path / "v.pamckpt"
    vel = {n: np.full_like(p.data, 0.5) for n, p in model.named_parameters()}
    TR.save_checkpoint(path, model, epoch=1, seed=4, velocities=vel)
    return model, path


def test_checkpoint_with_legacy_lambda_reg_key_loads(tmp_path):
    model, path = _saved_with_velocities(tmp_path)
    _rewrite_checkpoint(path, edit_header=lambda h: h["config"].update(lambda_reg=0.05))
    loaded, extras = TR.load_checkpoint(path)
    assert loaded.config == model.config
    for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    assert all((v == 0.5).all() for v in extras["velocities"].values())


@pytest.mark.parametrize("edit_header,edit_body,match", [
    (lambda h: h.pop("seed"), None, "header lacks seed"),
    (None, lambda b: b[:-3], "truncated while reading velocity"),
    (lambda h: h.update(has_velocities=False), None, "unexpected bytes"),
    (None, lambda b: b + b"\0" * 4, "unexpected bytes"),
    (lambda h: h["params"][0][1].append(1), None, "do not match"),
    (lambda h: h["config"].update(levels="2"), None, "'levels'"),
    (lambda h: h["config"].update(input_size=[16, 16, 16]), None, "'input_size'"),
    (lambda h: h["config"].update(levels=100000, channel_schedule=[]), None, "levels = 100000"),
    (None, lambda b: struct.pack("<f", np.nan) + b[4:], "parameter stem.kernel holds non-finite"),
    (None, lambda b: b[:-4] + struct.pack("<f", np.inf), "velocity head.bias holds non-finite"),
])
def test_malformed_checkpoint_is_data_error(tmp_path, capsys, edit_header, edit_body, match):
    _, path = _saved_with_velocities(tmp_path)
    _rewrite_checkpoint(path, edit_header, edit_body)
    with pytest.raises(ValueError, match=match):
        TR.load_checkpoint(path)
    assert cli.main(["eval", "--ckpt", str(path), "--data", str(tmp_path / "none.tsv")]) == 2
    assert match in capsys.readouterr().err


def _tiny_dataset(tmp_path, count=10, size=16, seed=0):
    return D.synth_generate(tmp_path / "data", seed=seed, count=count, size=size)


def test_same_seed_training_yields_byte_identical_checkpoints(tmp_path):
    manifest = _tiny_dataset(tmp_path)
    cfg = TR.TrainConfig(epochs=2, batch_size=4, seed=7, augment=True)
    paths = []
    for tag in ("r1", "r2"):
        model, result = TR.run_training(PAMUNetConfig(**TINY), manifest, cfg)
        path = tmp_path / f"{tag}.pamckpt"
        TR.save_checkpoint(path, model, epoch=cfg.epochs, seed=cfg.seed,
                           velocities=result.velocities)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_epoch_permutation_is_pure_function_of_seed_and_epoch():
    a = TR.epoch_permutation(5, 3, 20)
    b = TR.epoch_permutation(5, 3, 20)
    c = TR.epoch_permutation(5, 4, 20)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("path", ["materialized", "streamed"])
def test_zero_init_gates_with_lambda_zero_matches_attention_free(tmp_path, monkeypatch, path):
    if path == "streamed":
        monkeypatch.setattr(A, "MATERIALIZE_BYTES", 0)
    manifest = _tiny_dataset(tmp_path, count=8)
    cfg = TR.TrainConfig(epochs=3, batch_size=4, seed=1, lambda_reg=0.0)
    plain_model, plain = TR.run_training(
        PAMUNetConfig(attention_variant="none", **TINY), manifest, cfg)
    gated_model = build(PAMUNetConfig(attention_variant="pla", **TINY), seed=cfg.seed)
    for name, p in gated_model.named_parameters():
        if "gate" in name.split("."):
            p.data[...] = 0.0  # every gate an exact pass-through and SGD fixed point
    TR.init_head_prior(gated_model, manifest, cfg.batch_size)
    gated = TR.train(gated_model, manifest, cfg)
    assert len(gated.history) == 3
    for row_p, row_g in zip(plain.history, gated.history):
        assert row_p["seg_loss"] == row_g["seg_loss"]
        assert row_p["reg_loss"] == row_g["reg_loss"] == 0.0
        assert row_p["total_loss"] == row_g["total_loss"]
        assert row_p["train_dice"] == row_g["train_dice"]
    plain_params = dict(plain_model.named_parameters())
    for name, p in gated_model.named_parameters():
        if name in plain_params:
            np.testing.assert_array_equal(p.data, plain_params[name].data)
        else:
            np.testing.assert_array_equal(p.data, 0.0)


def _train_split_logits(model, manifest) -> np.ndarray:
    x = Tensor(np.stack([s.image.data for s in D.load_split(manifest, "train")]))
    with T.no_grad():
        return model.forward(x).logits.data


def _log_odds(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def test_run_training_starts_at_foreground_prior(tmp_path):
    manifest = _tiny_dataset(tmp_path, count=10)
    fg = float(np.mean([s.mask.data for s in D.load_split(manifest, "train")]))
    assert 0.0 < fg < 1.0
    cfg = TR.TrainConfig(epochs=0, batch_size=3, seed=2)
    built = build(PAMUNetConfig(**TINY), seed=cfg.seed)
    np.testing.assert_array_equal(built.head.bias.data, 0.0)
    assert abs(_train_split_logits(built, manifest).mean() - _log_odds(fg)) > 0.1
    model, result = TR.run_training(PAMUNetConfig(**TINY), manifest, cfg)
    assert result.history == []
    mean_logit = _train_split_logits(model, manifest).mean(dtype=np.float64)
    assert mean_logit == pytest.approx(_log_odds(fg), abs=1e-5)
    # train() itself leaves the bias alone: a resumed run keeps what it was given
    bias = model.head.bias.data.copy()
    TR.train(model, manifest, cfg)
    np.testing.assert_array_equal(model.head.bias.data, bias)


def test_prior_start_without_foreground_is_finite(tmp_path):
    manifest = _tiny_dataset(tmp_path, count=10)
    for entry in manifest.split("train"):
        D.write_mask(tmp_path / "data" / entry.mask_path, np.zeros((1, 16, 16)))
    cfg = TR.TrainConfig(epochs=0, batch_size=4, seed=2)
    model, _ = TR.run_training(PAMUNetConfig(**TINY), manifest, cfg)
    assert np.isfinite(model.head.bias.data).all()
    mean_logit = _train_split_logits(model, manifest).mean(dtype=np.float64)
    assert mean_logit == pytest.approx(_log_odds(CLAMP_EPS), abs=1e-4)


def test_training_reduces_loss_and_logs_csv(tmp_path):
    manifest = _tiny_dataset(tmp_path, count=10)
    cfg = TR.TrainConfig(epochs=5, batch_size=4, seed=2)
    _, result = TR.run_training(PAMUNetConfig(**TINY), manifest, cfg)
    assert len(result.history) == 5
    assert result.history[-1]["total_loss"] < result.history[0]["total_loss"]
    lines = result.log_csv().strip().split("\n")
    assert lines[0] == TR.TRAIN_LOG_HEADER
    assert len(lines) == 6
    assert all(np.isfinite(row["total_loss"]) for row in result.history)


def test_partial_final_batch_is_kept(tmp_path):
    manifest = _tiny_dataset(tmp_path, count=9)  # 7 train samples, batch 4 -> 4+3
    cfg = TR.TrainConfig(epochs=1, batch_size=4, seed=3)
    model, result = TR.run_training(PAMUNetConfig(**TINY), manifest, cfg)
    assert len(manifest.split("train")) == 7
    assert result.history  # ran without dropping the remainder


def test_nan_abort_names_first_bad_layer(tmp_path):
    manifest = _tiny_dataset(tmp_path, count=8)
    model = build(PAMUNetConfig(**TINY), seed=4)
    model.stem.kernel.data[0, 0, 0, 0] = np.nan
    with pytest.raises(TR.NumericError, match="stem.kernel"):
        TR.train(model, manifest, TR.TrainConfig(epochs=1, batch_size=4, seed=4))


def test_nan_stage_output_is_named_from_the_failing_forward(tmp_path, monkeypatch):
    manifest = _tiny_dataset(tmp_path, count=8)
    model = build(PAMUNetConfig(**TINY), seed=4)
    model.head.forward = lambda h: Tensor(np.full((h.shape[0], 1, 16, 16), np.nan))
    calls = []
    forward = PAMUNet.forward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(PAMUNet, "forward", counting)
    with pytest.raises(TR.NumericError, match=r"first non-finite layer: head\)"):
        TR.train(model, manifest, TR.TrainConfig(epochs=1, batch_size=4, seed=4))
    assert all(np.isfinite(p.data).all() for _, p in model.named_parameters())
    assert len(calls) == 1


def test_empty_split_rejected(tmp_path):
    manifest = D.Manifest(entries=[])
    model = build(PAMUNetConfig(**TINY), seed=5)
    with pytest.raises(ValueError, match="empty"):
        TR.train(model, manifest, TR.TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="empty"):
        TR.evaluate(model, manifest, "test")


def test_evaluate_on_own_predictions_scores_one(tmp_path):
    manifest = _tiny_dataset(tmp_path, count=10)
    model = build(PAMUNetConfig(**TINY), seed=6)
    from pamunet.model import predict_mask
    for entry in manifest.split("test"):
        sample = D.load_sample(manifest, entry)
        pred = predict_mask(model, Tensor(sample.image.data[None]))
        D.write_mask(tmp_path / "data" / entry.mask_path, pred.data[0])
    report = TR.evaluate(model, manifest, "test")
    assert report.mean_dice == pytest.approx(1.0)
    assert report.mean_miou == pytest.approx(1.0)
    assert report.mean_recall == pytest.approx(1.0)


def test_all_background_predictor_has_zero_recall(tmp_path):
    manifest = _tiny_dataset(tmp_path, count=10)
    model = build(PAMUNetConfig(**TINY), seed=7)
    model.head.kernel.data[...] = 0.0
    model.head.bias.data[...] = -50.0
    report = TR.evaluate(model, manifest, "train")
    assert report.mean_recall == pytest.approx(0.0, abs=1e-4)


def test_evaluate_matches_metric_oracle(tmp_path):
    from pamunet import metrics as M
    manifest = _tiny_dataset(tmp_path, count=10)
    model = build(PAMUNetConfig(**TINY), seed=8)
    report = TR.evaluate(model, manifest, "train")
    from pamunet.model import predict_mask
    for i, entry in enumerate(manifest.split("train")):
        sample = D.load_sample(manifest, entry)
        pred = predict_mask(model, Tensor(sample.image.data[None]))
        assert report.dice[i] == pytest.approx(M.dice(pred.data[0], sample.mask.data))
        assert report.miou[i] == pytest.approx(M.miou(pred.data[0], sample.mask.data))
        assert report.recall[i] == pytest.approx(M.recall(pred.data[0], sample.mask.data))
