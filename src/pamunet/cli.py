"""Command-line surface.

Subcommands: synth, train, eval, predict, flops, cka, ablate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure (NaN).

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
from pamunet.model import (ATTENTION_VARIANTS, DECODER_KINDS, PAMUNetConfig,
                           binary_mask, build, config_from_dict)
from pamunet.train import (NumericError, TrainConfig, evaluate, load_checkpoint,
                           require_split, run_training, save_checkpoint)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


CONFIG_KEYS = {f.name for cls in (PAMUNetConfig, TrainConfig) for f in fields(cls)}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with config overrides (flags win)")
    p.add_argument("--levels", type=int, help="U depth (default 4)")
    p.add_argument("--base-channels", type=int, help="channels at the top level (default 16)")
    p.add_argument("--expansion-factor", type=int, help="IR block expansion (default 6)")
    p.add_argument("--variant", choices=ATTENTION_VARIANTS, dest="attention_variant",
                   help="attention variant (default pla)")
    p.add_argument("--decoder-kind", choices=DECODER_KINDS, help="decoder style (default mobile)")
    p.add_argument("--input-size", type=int, help="square input size (default 128)")
    p.add_argument("--in-channels", type=int, choices=(1, 3), help="input channels (default 1)")
    p.add_argument("--threshold", type=float, help="mask threshold in (0, 1) (default 0.5)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, help="learning rate (default 0.01)")
    p.add_argument("--momentum", type=float, help="SGD momentum (default 0.9)")
    p.add_argument("--weight-decay", type=float, help="L2 weight decay (default 0.0001)")
    p.add_argument("--batch-size", type=int, help="batch size (default 8)")
    p.add_argument("--epochs", type=int, help="training epochs (default 10)")
    p.add_argument("--seed", type=int, help="run seed (default 0)")
    p.add_argument("--lambda-reg", type=float,
                   help="attention regularization weight (default 0.01)")
    p.add_argument("--augment", action=argparse.BooleanOptionalAction, default=None,
                   help="random flips/90-degree rotations (default off)")


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


def _write_text(path, text) -> None:
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _attention_heatmap(weights: np.ndarray) -> np.ndarray:
    """Row-normalize one (Lq, Lk) map to the 0..255 gray scale."""
    row_max = weights.max(axis=1, keepdims=True)
    row_max[row_max == 0] = 1.0
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
    for flag, path in (("--out", args.out), ("--log", args.log)):  # written after training
        if path:
            try:
                os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            except OSError as e:
                raise OSError(f"{flag} {path}: cannot make its directory: {e}") from e
    manifest = Manifest.load(args.data)
    model_cfg = _model_config(args)
    train_cfg = _train_config(args)
    print(f"training {model_cfg.attention_variant}/{model_cfg.decoder_kind} model, "
          f"levels={model_cfg.levels}, seed={train_cfg.seed}")
    model, result = run_training(model_cfg, manifest, train_cfg,
                                 zero_init_gates=args.zero_init_gates)
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
    for sample in samples:
        with T.no_grad():
            out = model.forward(T.Tensor(sample.image.data[None]),
                                maps=bool(args.attention_dir))
            probs = T.sigmoid(out.logits)
        mask = binary_mask(probs.data[0], model.config.threshold)
        write_mask(os.path.join(args.out, f"{sample.id}_mask.pgm"), mask)
        if args.attention_dir:
            for j, weights in enumerate(out.maps):
                heat = _attention_heatmap(weights[0])
                write_image(os.path.join(args.attention_dir, f"{sample.id}_gate{j}.pgm"),
                            heat[None])
    print(f"wrote {len(samples)} masks to {args.out}")
    return 0


def cmd_flops(args) -> int:
    model = build(_model_config(args), seed=0)
    report = count_flops(model)
    print(report.format_table())
    if args.out:
        _write_text(args.out, report.to_csv())
    return 0


def cmd_cka(args) -> int:
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
    p.add_argument("--zero-init-gates", action="store_true",
                   help="start attention gates as exact pass-throughs")
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


if __name__ == "__main__":
    sys.exit(main())
