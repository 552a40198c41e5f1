"""End-to-end CLI tests: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from pamunet import attention as A
from pamunet import cli
from pamunet import train as TR
from pamunet.data import Manifest, read_image, synth_generate
from pamunet.flops import count_flops
from pamunet.model import PAMUNet, PAMUNetConfig, build
from pamunet.train import (TrainConfig, evaluate, load_checkpoint, run_training,
                           save_checkpoint)

TINY_MODEL = ["--levels", "2", "--base-channels", "4", "--input-size", "16"]


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run(["synth", "--out", str(out), "--seed", "1", "--count", "10",
                "--size", "16"]) == 0
    return out / "manifest.tsv"


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "ds"
    assert run(["synth", "--out", str(out), "--count", "5", "--size", "16"]) == 0
    assert (out / "manifest.tsv").exists()
    assert len(list((out / "images").iterdir())) == 5


def test_synth_bad_size_is_data_error(tmp_path):
    assert run(["synth", "--out", str(tmp_path / "x"), "--size", "20"]) == 2


def test_unknown_flag_is_usage_error():
    assert run(["synth", "--bogus", "1"]) == 1


def test_missing_required_flag_is_usage_error():
    assert run(["train"]) == 1


def test_train_eval_predict_roundtrip(tmp_path, dataset):
    ckpt = tmp_path / "m.pamckpt"
    log = tmp_path / "log.csv"
    assert run(["train", "--data", str(dataset), "--out", str(ckpt), "--log", str(log),
                *TINY_MODEL, "--epochs", "2", "--batch-size", "4", "--seed", "3"]) == 0
    assert ckpt.exists()
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "epoch,seg_loss,reg_loss,total_loss,train_dice"
    assert len(lines) == 3

    metrics = tmp_path / "metrics.csv"
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                "--split", "test", "--out", str(metrics)]) == 0
    assert metrics.read_text().startswith("id,dice,miou,recall")

    pred_dir = tmp_path / "pred"
    attn_dir = tmp_path / "attn"
    assert run(["predict", "--ckpt", str(ckpt), "--data", str(dataset),
                "--split", "test", "--out", str(pred_dir),
                "--attention-dir", str(attn_dir)]) == 0
    masks = list(pred_dir.glob("*_mask.pgm"))
    assert masks
    heats = list(attn_dir.glob("*_gate*.pgm"))
    assert heats  # one per gate per sample
    assert heats[0].read_bytes().startswith(b"P5")


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_train_makes_output_directories_before_training(tmp_path, dataset, flag,
                                                        monkeypatch, capsys):
    steps = []
    step = TR.SGD.step

    def counting_step(self, *args, **kwargs):
        steps.append(1)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(TR.SGD, "step", counting_step)
    train = ["train", "--data", str(dataset), *TINY_MODEL, "--epochs", "1", "--batch-size", "4",
             "--out", str(tmp_path / "m.pamckpt")]
    (tmp_path / "plain").write_text("")
    blocked = str(tmp_path / "plain" / "sub" / "file")  # its directory cannot be made
    assert run(train + [flag, blocked]) == 2  # a later --out wins over the first
    err = capsys.readouterr().err
    assert err.startswith("data error:") and blocked in err and flag in err
    assert steps == []
    fresh = tmp_path / "new" / "deeper" / "file"
    assert run(train + [flag, str(fresh)]) == 0
    assert steps and fresh.exists()  # the missing directories were made and the run trained


def test_train_is_deterministic_across_runs(tmp_path, dataset):
    outs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.pamckpt"
        log = tmp_path / f"{tag}.csv"
        assert run(["train", "--data", str(dataset), "--out", str(ckpt),
                    "--log", str(log), *TINY_MODEL, "--epochs", "2",
                    "--batch-size", "4", "--seed", "7", "--augment"]) == 0
        outs.append((ckpt.read_bytes(), log.read_text().strip().split("\n")[-1]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_config_json_overrides_and_flags_win(tmp_path, dataset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"levels": 2, "base_channels": 4, "input_size": 16, "epochs": 1}')
    ckpt = tmp_path / "c.pamckpt"
    assert run(["train", "--data", str(dataset), "--out", str(ckpt),
                "--config", str(cfg), "--epochs", "2", "--batch-size", "4"]) == 0
    model, extras = load_checkpoint(ckpt)
    assert model.config.levels == 2
    assert extras["epoch"] == 2  # flag beat the file


def test_flops_table_and_csv(tmp_path, capsys):
    out = tmp_path / "flops.csv"
    assert run(["flops", *TINY_MODEL, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "total" in printed and "MACs" in printed
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "layer,kind,macs,flops"
    body = [r.split(",") for r in rows[1:-1]]
    total = int(rows[-1].split(",")[2])
    assert total == sum(int(r[2]) for r in body)


@pytest.mark.parametrize("flag,value,match", [
    ("--base-channels", "0", "channel_schedule"),
    ("--threshold", "1.5", "threshold"),
    ("--input-size", "0", "input size"),
    ("--input-size", "-16", "input size"),
])
def test_flops_rejects_bad_config(flag, value, match, capsys):
    assert run(["flops", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and match in err


@pytest.mark.parametrize("command,config,key", [
    ("flops", {"levels": "3"}, "levels"),
    ("flops", {"input_size": "64"}, "input_size"),
    ("flops", {"input_size": [32, 32, 32]}, "input_size"),
    ("flops", {"input_size": []}, "input_size"),
    ("train", {"lr": "0.1"}, "lr"),
    ("flops", {"channel_schedule": ["3", 5]}, "channel_schedule"),
])
def test_wrong_typed_config_value_is_data_error(tmp_path, dataset, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg)]
    if command == "train":
        argv += ["--data", str(dataset), "--out", str(tmp_path / "c.pamckpt")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and repr(key) in err


def test_lambda_reg_is_a_train_flag():
    args = cli.build_parser().parse_args(
        ["train", "--data", "d", "--out", "o", "--lambda-reg", "0.5"])
    assert cli._train_config(args).lambda_reg == 0.5
    assert "lambda_reg" not in cli._model_config(args).to_dict()
    assert run(["flops", "--lambda-reg", "7"]) == 1
    assert run(["train", "--data", "d", "--out", "o", "--deterministic"]) == 1


def test_predict_runs_one_forward_per_image(tmp_path, dataset, monkeypatch):
    ckpt = tmp_path / "m.pamckpt"
    model = build(PAMUNetConfig(levels=2, base_channels=4, input_size=(16, 16)), seed=2)
    save_checkpoint(ckpt, model)
    calls = []
    forward = PAMUNet.forward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(PAMUNet, "forward", counting)
    attn_dir = tmp_path / "attn"
    assert run(["predict", "--ckpt", str(ckpt), "--data", str(dataset), "--split", "train",
                "--out", str(tmp_path / "pred"), "--attention-dir", str(attn_dir)]) == 0
    images = len(Manifest.load(dataset).split("train"))
    assert len(calls) == images
    assert len(list(attn_dir.glob("*_gate*.pgm"))) == images  # one gated skip at levels 2


def test_predict_exports_streamed_gate_maps(tmp_path, dataset, monkeypatch):
    ckpt = tmp_path / "m.pamckpt"
    model = build(PAMUNetConfig(levels=3, base_channels=4, input_size=(16, 16)), seed=4)
    for name, p in model.named_parameters():
        if name.endswith("gain"):
            p.data[...] = 0.8
    save_checkpoint(ckpt, model)
    heats = {}
    # float32 maps: 4x4 grid 1 KiB, 8x8 grid 16 KiB per sample; 4 KiB streams the 8x8 gate
    for budget in (A.MATERIALIZE_BYTES, 4096):
        monkeypatch.setattr(A, "MATERIALIZE_BYTES", budget)
        attn_dir = tmp_path / f"attn{budget}"
        assert run(["predict", "--ckpt", str(ckpt), "--data", str(dataset), "--split", "train",
                    "--out", str(tmp_path / "pred"), "--attention-dir", str(attn_dir)]) == 0
        heats[budget] = {p.name: read_image(p).data for p in attn_dir.glob("*.pgm")}
    images = len(Manifest.load(dataset).split("train"))
    full, streamed = heats[A.MATERIALIZE_BYTES], heats[4096]
    assert len(streamed) == images * 2 and sorted(streamed) == sorted(full)
    assert {h.shape for h in streamed.values()} == {(1, 16, 16), (1, 64, 64)}
    for name, heat in streamed.items():
        np.testing.assert_allclose(heat, full[name], atol=1.5 / 255)


def test_cka_between_checkpoints(tmp_path, dataset):
    ckpts = []
    for seed in ("1", "2"):
        ckpt = tmp_path / f"s{seed}.pamckpt"
        assert run(["train", "--data", str(dataset), "--out", str(ckpt),
                    *TINY_MODEL, "--epochs", "1", "--batch-size", "4",
                    "--seed", seed]) == 0
        ckpts.append(str(ckpt))
    out = tmp_path / "cka.csv"
    assert run(["cka", "--ckpt-a", ckpts[0], "--ckpt-b", ckpts[1],
                "--out", str(out), "--probe-count", "8"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("layer,")
    assert len(lines) == 1 + 2 * 2 + 2  # header + 2*levels+2 rows
    vals = [float(v) for v in lines[1].split(",")[1:]]
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_ablate_grid(tmp_path, dataset):
    out = tmp_path / "ablation.csv"
    assert run(["ablate", "--data", str(dataset), "--out", str(out), "--seeds", "1",
                *TINY_MODEL, "--epochs", "1", "--batch-size", "4"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "variant,seed,dice,miou,recall,macs"
    body = [l.split(",") for l in lines[1:]]
    variants = [
        "mob-encoder-only", "med", "med+self", "med+cross", "med+additive", "med+pla"]
    assert [r[0] for r in body[:6]] == variants
    mean_rows = [r for r in body if r[1] == "mean"]
    assert [r[0] for r in mean_rows] == variants
    macs = {r[0]: int(r[5]) for r in mean_rows}
    assert macs["med+pla"] > macs["med"]


MED_ONLY = [("med", {"attention_variant": "none", "decoder_kind": "mobile"})]
ABLATE_MODEL = dict(levels=2, base_channels=4, input_size=(16, 16))
ABLATE_TRAIN = dict(epochs=4, batch_size=4)


@pytest.fixture()
def ablate_data(tmp_path):
    return synth_generate(tmp_path / "ablate", seed=3, count=20, size=16)


def _per_epoch_dice(manifest, seed):
    """(val, test) Dice after each epoch, each from its own fresh run."""
    val, test = [], []
    for epochs in range(1, ABLATE_TRAIN["epochs"] + 1):
        tcfg = TrainConfig(**{**ABLATE_TRAIN, "epochs": epochs, "seed": seed})
        model, _ = run_training(PAMUNetConfig(**ABLATE_MODEL, attention_variant="none"),
                                manifest, tcfg)
        val.append(evaluate(model, manifest, "val").mean_dice)
        test.append(evaluate(model, manifest, "test").mean_dice)
    return val, test


def _scripted_val(monkeypatch, val_dice):
    """Make run_ablation see the given val Dice, epoch by epoch."""
    script = iter(val_dice)

    def fake(model, manifest, split, **kw):
        if split == "val":
            return types.SimpleNamespace(mean_dice=next(script))
        return evaluate(model, manifest, split, **kw)

    monkeypatch.setattr(cli, "evaluate", fake)


def test_ablation_scores_best_val_epoch(ablate_data, monkeypatch):
    val, test = _per_epoch_dice(ablate_data, seed=0)
    assert len(set(test)) > 1  # the epoch picked changes the score
    rows, means = cli.run_ablation(ABLATE_MODEL, ABLATE_TRAIN, ablate_data, [0], MED_ONLY)
    assert rows[0]["dice"] == test[int(np.argmax(val))]
    assert means[0]["dice"] == rows[0]["dice"]
    for script, epoch in (([0.5] * 4, 0), ([0.1, 0.7, 0.7, 0.2], 1), ([0.1, 0.2, 0.3, 0.4], 3)):
        _scripted_val(monkeypatch, script)
        rows, _ = cli.run_ablation(ABLATE_MODEL, ABLATE_TRAIN, ablate_data, [0], MED_ONLY)
        assert rows[0]["dice"] == test[epoch], script


def test_ablation_refuses_empty_val_split(tmp_path, dataset):
    text = dataset.read_text()
    assert "\tval\n" in text
    dataset.write_text(text.replace("\tval\n", "\ttrain\n"))
    with pytest.raises(ValueError, match="empty 'val' split"):
        cli.run_ablation(ABLATE_MODEL, ABLATE_TRAIN, Manifest.load(dataset), [0], MED_ONLY)
    out = tmp_path / "ablation.csv"
    assert run(["ablate", "--data", str(dataset), "--out", str(out), "--seeds", "1",
                *TINY_MODEL, "--epochs", "1", "--batch-size", "4"]) == 2
    assert not out.exists()


def test_numeric_failure_maps_to_exit_3(tmp_path, dataset, monkeypatch):
    from pamunet.train import NumericError

    def boom(*a, **k):
        raise NumericError("non-finite loss at epoch 0")

    monkeypatch.setattr(cli, "run_training", boom)
    assert run(["train", "--data", str(dataset), "--out", str(tmp_path / "x.pamckpt"),
                *TINY_MODEL]) == 3


def test_console_script_module_invocation(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pamunet.cli", "synth", "--out",
         str(tmp_path / "ds"), "--count", "2", "--size", "16"],
        capture_output=True, text=True, cwd=repo, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 samples" in proc.stdout


def test_unknown_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levls": 3}))
    assert run(["flops", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'levls'" in err
    # a key of the other config is not unknown: flops reads the file's model keys only
    cfg.write_text(json.dumps({"levels": 2, "input_size": 16, "epochs": 3}))
    assert run(["flops", "--config", str(cfg)]) == 0


def test_config_channel_schedule_is_honoured(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": 2, "input_size": 16, "channel_schedule": [3, 5]}))
    out = tmp_path / "flops.csv"
    assert run(["flops", "--config", str(cfg), "--out", str(out)]) == 0
    model = build(PAMUNetConfig(levels=2, input_size=(16, 16), channel_schedule=[3, 5]), seed=0)
    total = int(out.read_text().strip().split("\n")[-1].split(",")[2])
    assert total == count_flops(model).total_macs
    assert total != count_flops(build(PAMUNetConfig(levels=2, input_size=(16, 16)), seed=0)).total_macs


def _bad_invocations(tmp_path, dataset):
    """(argv, exit code, text the message must hold) per subcommand: missing
    arguments, a missing file, and out-of-range values."""
    missing = str(tmp_path / "missing")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    data = ["--data", str(dataset)]
    return [
        ([], 1, "command"),
        (["synth"], 1, "--out"),
        (["train"], 1, "--data"),
        (["eval", "--ckpt", missing], 1, "--data"),
        (["predict", "--ckpt", missing, "--data", str(dataset)], 1, "--out"),
        (["flops", "--levels"], 1, "--levels"),
        (["cka", "--ckpt-a", missing], 1, "--ckpt-b"),
        (["ablate"], 1, "--data"),
        (["synth", "--out", str(a_file / "ds")], 2, "a_file"),
        (["train", "--data", missing, "--out", str(tmp_path / "m.pamckpt")], 2, missing),
        (["eval", "--ckpt", missing, *data], 2, missing),
        (["predict", "--ckpt", missing, *data, "--out", str(tmp_path / "p")], 2, missing),
        (["flops", "--config", missing], 2, missing),
        (["cka", "--ckpt-a", missing, "--ckpt-b", missing, "--out", missing], 2, missing),
        (["ablate", "--data", missing], 2, missing),
        (["cka", "--ckpt-a", missing, "--ckpt-b", missing, "--out", missing,
          "--probe-count", "3"], 1, "--probe-count"),
        (["cka", "--ckpt-a", missing, "--ckpt-b", missing, "--out", missing,
          "--probe-count", "0"], 1, "--probe-count"),
        (["cka", "--ckpt-a", missing, "--ckpt-b", missing, "--out", missing,
          "--probe-count", "-1"], 1, "--probe-count"),
        (["ablate", *data, "--seeds", "0"], 1, "--seeds"),
        (["ablate", *data, "--seeds", "-2"], 1, "--seeds"),
        (["synth", "--out", str(tmp_path / "s"), "--size", "0"], 2, "size"),
        (["synth", "--out", str(tmp_path / "s"), "--size", "-16"], 2, "size"),
        (["synth", "--out", str(tmp_path / "s"), "--max-blobs", "0"], 2, "max_blobs"),
        (["synth", "--out", str(tmp_path / "s"), "--count", "0"], 2, "count"),
    ]


def test_bad_invocations_exit_with_a_message(tmp_path, dataset, capsys):
    for argv, code, text in _bad_invocations(tmp_path, dataset):
        assert run(argv) == code, argv
        err = capsys.readouterr().err
        prefix = "usage error:" if code == 1 else "data error:"
        assert err.startswith(prefix) and text in err and "Traceback" not in err, (argv, err)
