"""Command-line surface.

Subcommands: synth, train, eval, predict, flops, cka, ablate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure (NaN).
Running out of memory (an input size or batch too large for the machine) is a
data error too, as is a gate heatmap above ``HEATMAP_BYTES`` (256 MiB).

Flags are kebab-case and mirror the TrainConfig / model config defaults; a
JSON file passed via --config supplies overrides keyed by the field names of
either config, and explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from pamunet import tensor as T
from pamunet.cka import MIN_PROBE, capture, cka_matrix
from pamunet.data import (SPLITS, FormatError, Manifest, load_split, synth_batch,
                          synth_generate, write_image, write_mask)
from pamunet.flops import count_flops
from pamunet.model import (ATTENTION_VARIANTS, DECODER_KINDS, PAMUNetConfig, build,
                           config_from_dict, predict_mask)
from pamunet.train import (NumericError, TrainConfig, evaluate, load_checkpoint,
                           require_split, run_training, save_checkpoint)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


CONFIG_KEYS = {f.name for cls in (PAMUNetConfig, TrainConfig) for f in fields(cls)}
HEATMAP_BYTES = 256 * 2 ** 20  # max bytes of one gate's heatmap: a 128x128 gate's


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    d = PAMUNetConfig()
    p.add_argument("--config", help="JSON file with config overrides (flags win)")
    p.add_argument("--levels", type=int, help=f"U depth (default {d.levels})")
    p.add_argument("--base-channels", type=int, help=f"channels at the top level (default {d.base_channels})")
    p.add_argument("--expansion-factor", type=int, help=f"IR block expansion (default {d.expansion_factor})")
    p.add_argument("--variant", choices=ATTENTION_VARIANTS, dest="attention_variant",
                   help=f"attention variant (default {d.attention_variant})")
    p.add_argument("--decoder-kind", choices=DECODER_KINDS, help=f"decoder style (default {d.decoder_kind})")
    p.add_argument("--input-size", type=int, help=f"square input size (default {d.input_size[0]})")
    p.add_argument("--in-channels", type=int, choices=(1, 3), help=f"input channels (default {d.in_channels})")
    p.add_argument("--threshold", type=float, help=f"mask threshold in (0, 1) (default {d.threshold})")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    d = TrainConfig()
    p.add_argument("--lr", type=float, help=f"learning rate (default {d.lr})")
    p.add_argument("--momentum", type=float, help=f"SGD momentum (default {d.momentum})")
    p.add_argument("--weight-decay", type=float, help=f"L2 weight decay (default {d.weight_decay})")
    p.add_argument("--batch-size", type=int, help=f"batch size (default {d.batch_size})")
    p.add_argument("--epochs", type=int, help=f"training epochs (default {d.epochs})")
    p.add_argument("--seed", type=int, help=f"run seed (default {d.seed})")
    p.add_argument("--lambda-reg", type=float,
                   help=f"attention regularization weight (default {d.lambda_reg})")
    p.add_argument("--augment", action=argparse.BooleanOptionalAction, default=None,
                   help=f"random flips/90-degree rotations (default {'on' if d.augment else 'off'})")


def _load_json_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise FormatError(f"config file {path} must hold a JSON object")
    return data


def _merged(args, cls) -> dict:
    """defaults < JSON file < explicit flags, for the fields of ``cls``.  One
    --config file serves both configs, so a file key that is a field of
    neither is a data error."""
    keys = [f.name for f in fields(cls)]
    merged = {}
    if getattr(args, "config", None):
        file_cfg = _load_json_config(args.config)
        unknown = sorted(file_cfg.keys() - CONFIG_KEYS)
        if unknown:
            raise FormatError(f"config file {args.config}: unknown key {unknown[0]!r}")
        merged.update({k: v for k, v in file_cfg.items() if k in keys})
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _model_config(args) -> PAMUNetConfig:
    kw = _merged(args, PAMUNetConfig)
    if isinstance(kw.get("input_size"), int):
        kw["input_size"] = (kw["input_size"], kw["input_size"])
    return config_from_dict(PAMUNetConfig, kw)


def _train_config(args) -> TrainConfig:
    return config_from_dict(TrainConfig, _merged(args, TrainConfig))


def _make_out_dirs(*flag_paths) -> None:
    """Make each (flag, output file path)'s directory, before the command works."""
    for flag, path in flag_paths:
        if path:
            try:
                os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            except OSError as e:
                raise OSError(f"{flag} {path}: cannot make its directory: {e}") from e


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _attention_heatmap(weights: np.ndarray) -> np.ndarray:
    """Row-normalize (rows, Lk) softmax weights, each row's max >= 1/Lk, to 0..255."""
    row_max = weights.max(axis=1, keepdims=True)
    return np.rint(weights / row_max * 255.0).astype(np.uint8)


# -- subcommands -----------------------------------------------------------------

def cmd_synth(args) -> int:
    manifest = synth_generate(args.out, seed=args.seed, count=args.count,
                              size=args.size, max_blobs=args.max_blobs,
                              channels=args.channels)
    counts = {s: len(manifest.split(s)) for s in SPLITS}
    print(f"wrote {len(manifest.entries)} samples to {args.out} "
          f"(train/val/test = {counts['train']}/{counts['val']}/{counts['test']})")
    return 0


def cmd_train(args) -> int:
    _make_out_dirs(("--out", args.out), ("--log", args.log))
    manifest = Manifest.load(args.data)
    model_cfg = _model_config(args)
    train_cfg = _train_config(args)
    print(f"training {model_cfg.attention_variant}/{model_cfg.decoder_kind} model, "
          f"levels={model_cfg.levels}, seed={train_cfg.seed}")
    model, result = run_training(model_cfg, manifest, train_cfg)
    print(f"{model.parameter_count()} parameters")
    save_checkpoint(args.out, model, epoch=train_cfg.epochs, seed=train_cfg.seed,
                    velocities=result.velocities)
    if args.log:
        _write_text(args.log, result.log_csv())
    last = result.history[-1] if result.history else None
    if last:
        print(f"epoch {last['epoch']}: seg={last['seg_loss']:.6f} "
              f"reg={last['reg_loss']:.6f} total={last['total_loss']:.6f} "
              f"dice={last['train_dice']:.6f}")
    print(f"checkpoint saved to {args.out}")
    return 0


def cmd_eval(args) -> int:
    _make_out_dirs(("--out", args.out))
    model, _ = load_checkpoint(args.ckpt)
    manifest = Manifest.load(args.data)
    report = evaluate(model, manifest, args.split)
    if args.out:
        _write_text(args.out, report.to_csv())
    print(f"{args.split}: dice={report.mean_dice:.4f} miou={report.mean_miou:.4f} "
          f"recall={report.mean_recall:.4f} ({len(report.sample_ids)} samples)")
    return 0


def cmd_predict(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    manifest = Manifest.load(args.data)
    require_split(manifest, args.split)
    samples = load_split(manifest, args.split)
    os.makedirs(args.out, exist_ok=True)
    if args.attention_dir:
        os.makedirs(args.attention_dir, exist_ok=True)
    heats = {}  # gate j -> this sample's (1, Lk, Lk) uint8 heatmap

    def sink(j, rows, w):
        if rows.start == 0:
            # every gate's map is square (_check_grids): its heatmap is Lk * Lk bytes
            lk = w.shape[2]
            if lk ** 2 > HEATMAP_BYTES:
                raise ValueError(f"sample {sample.id}: gate {j}'s attention heatmap exceeds "
                                 f"the {HEATMAP_BYTES}-byte cap on one heatmap")
            heats[j] = np.empty((1, lk, lk), np.uint8)
        heats[j][0, rows] = _attention_heatmap(w[0])

    for sample in samples:
        mask = predict_mask(model, T.Tensor(sample.image.data[None]),
                            sink=sink if args.attention_dir else None)
        write_mask(os.path.join(args.out, f"{sample.id}_mask.pgm"), mask.data[0])
        for j in sorted(heats):
            write_image(os.path.join(args.attention_dir, f"{sample.id}_gate{j}.pgm"),
                        heats.pop(j))
    print(f"wrote {len(samples)} masks to {args.out}")
    return 0


def cmd_flops(args) -> int:
    _make_out_dirs(("--out", args.out))
    model = build(_model_config(args), seed=0)
    report = count_flops(model)
    print(report.format_table())
    if args.out:
        _write_text(args.out, report.to_csv())
    return 0


def cmd_cka(args) -> int:
    _make_out_dirs(("--out", args.out))
    if args.probe_count < MIN_PROBE:
        raise UsageError(f"--probe-count must be >= {MIN_PROBE}, got {args.probe_count}")
    model_a, _ = load_checkpoint(args.ckpt_a)
    model_b, _ = load_checkpoint(args.ckpt_b)
    ca, cb = model_a.config, model_b.config
    if ca.input_size != cb.input_size or ca.in_channels != cb.in_channels:
        raise ValueError("checkpoints expect different input shapes; CKA needs a shared probe")
    h, w = ca.input_size
    if h != w:
        raise ValueError("CKA probe generation needs a square input size")
    probe_samples = synth_batch(args.probe_seed, args.probe_count, h,
                                channels=ca.in_channels)
    probe = T.Tensor(np.stack([s.image.data for s in probe_samples]))
    acts_a = capture(model_a, probe, model_tag=os.path.basename(args.ckpt_a))
    acts_b = capture(model_b, probe, model_tag=os.path.basename(args.ckpt_b))
    matrix = cka_matrix(acts_a, acts_b)
    _write_text(args.out, matrix.to_csv())
    print(f"wrote {len(matrix.row_layers)}x{len(matrix.col_layers)} CKA matrix to {args.out} "
          f"(synthetic probe: seed {args.probe_seed}, {args.probe_count} samples)")
    return 0


ABLATION_VARIANTS = [
    ("mob-encoder-only", {"attention_variant": "none", "decoder_kind": "vanilla"}),
    ("med", {"attention_variant": "none", "decoder_kind": "mobile"}),
    ("med+self", {"attention_variant": "self", "decoder_kind": "mobile"}),
    ("med+cross", {"attention_variant": "cross", "decoder_kind": "mobile"}),
    ("med+additive", {"attention_variant": "additive", "decoder_kind": "mobile"}),
    ("med+pla", {"attention_variant": "pla", "decoder_kind": "mobile"}),
]


def _train_best_val(config: PAMUNetConfig, manifest: Manifest, tcfg: TrainConfig):
    """Train a fresh model and return it at the epoch with the best val Dice,
    the earliest on ties (as built when ``tcfg.epochs`` is 0)."""
    best = {"dice": -1.0, "params": None}

    def keep_best(model, row):
        val_dice = evaluate(model, manifest, "val").mean_dice
        if val_dice > best["dice"]:
            best["dice"] = val_dice
            best["params"] = {n: p.data.copy() for n, p in model.named_parameters()}

    model, _ = run_training(config, manifest, tcfg, on_epoch=keep_best)
    if best["params"] is not None:
        for name, p in model.named_parameters():
            p.data = best["params"][name]
    return model


def run_ablation(base_model_kw: dict, base_train_kw: dict, manifest: Manifest,
                 seeds: list[int], variants=ABLATION_VARIANTS):
    """Train/evaluate every Table-style variant over the shared seeds.

    Each run is scored on the test split at its best val epoch (see
    :func:`_train_best_val`).  Returns (per-run rows, per-variant mean rows);
    each row is a dict with variant/seed/dice/miou/recall/macs.
    """
    require_split(manifest, "val")
    rows = []
    means = []
    for name, overrides in variants:
        per_seed = []
        for seed in seeds:
            cfg = PAMUNetConfig(**{**base_model_kw, **overrides})
            tcfg = TrainConfig(**{**base_train_kw, "seed": seed})
            model = _train_best_val(cfg, manifest, tcfg)
            report = evaluate(model, manifest, "test")
            macs = count_flops(model).total_macs
            row = {"variant": name, "seed": seed, "dice": report.mean_dice,
                   "miou": report.mean_miou, "recall": report.mean_recall, "macs": macs}
            rows.append(row)
            per_seed.append(row)
        means.append({
            "variant": name, "seed": "mean",
            "dice": float(np.mean([r["dice"] for r in per_seed])),
            "miou": float(np.mean([r["miou"] for r in per_seed])),
            "recall": float(np.mean([r["recall"] for r in per_seed])),
            "macs": per_seed[0]["macs"],
        })
    return rows, means


def ablation_csv(rows, means) -> str:
    lines = ["variant,seed,dice,miou,recall,macs"]
    for r in rows + means:
        lines.append(f"{r['variant']},{r['seed']},{r['dice']:.6f},{r['miou']:.6f},"
                     f"{r['recall']:.6f},{r['macs']}")
    return "\n".join(lines) + "\n"


def cmd_ablate(args) -> int:
    _make_out_dirs(("--out", args.out))
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    manifest = Manifest.load(args.data)
    model_kw = asdict(_model_config(args))
    del model_kw["attention_variant"], model_kw["decoder_kind"]
    train_kw = asdict(_train_config(args))
    del train_kw["seed"]
    seeds = list(range(args.seeds))
    rows, means = run_ablation(model_kw, train_kw, manifest, seeds)
    csv = ablation_csv(rows, means)
    if args.out:
        _write_text(args.out, csv)
    print(csv, end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pamunet",
                     description="Mobile attention U-Net: train, evaluate, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--size", type=int, default=64, help="square image size, divisible by 16")
    p.add_argument("--max-blobs", type=int, default=5)
    p.add_argument("--channels", type=int, choices=(1, 3), default=1)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--data", required=True, help="manifest.tsv path")
    p.add_argument("--out", required=True, help="checkpoint output (*.pamckpt)")
    p.add_argument("--log", help="per-epoch CSV log path")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--out", help="per-sample metrics CSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="write predicted mask PGMs")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--out", required=True, help="directory for mask PGMs")
    p.add_argument("--attention-dir",
                   help="also export attention maps as row-normalized PGM heatmaps")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("flops", help="analytic per-layer MAC/FLOPs table")
    p.add_argument("--out", help="CSV output path")
    _add_model_flags(p)
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("cka", help="CKA matrix between two checkpoints")
    p.add_argument("--ckpt-a", required=True)
    p.add_argument("--ckpt-b", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--probe-count", type=int, default=32, help=f"probe samples (>= {MIN_PROBE})")
    p.add_argument("--probe-seed", type=int, default=99)
    p.set_defaults(fn=cmd_cka)

    p = sub.add_parser("ablate", help="train/evaluate the variant grid over shared seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds (0..n-1)")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (FormatError, OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"data error: out of memory, the input size or batch is too large: {e}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
