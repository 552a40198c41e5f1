"""Fingerprint the outputs that a same-seed rerun must reproduce byte for byte.

Prints one ``sha256  name`` line per file:

- ``flops``: 20 ``pamunet flops`` CSVs, for the 5 attention variants x 2
  decoder kinds, at the default config and at ``--levels 3
  --base-channels 4 --input-size 64``;
- ``train``: the checkpoint and the per-epoch log of 13 ``pamunet train``
  runs.  Twelve use the criterion-8 config (``synth --seed 5 --count 64
  --size 64``; levels 3, base 4, batch 4, 2 epochs, ``--augment``) at seeds
  0 and 2, for the mobile decoder with each attention variant and for the
  vanilla decoder without attention.  The thirteenth trains the paper
  default (PLA, levels 4, base 16) for 1 epoch at batch 2 on 20 synthetic
  128x128 images.  It also hashes every mask and attention heatmap that
  ``pamunet predict --attention-dir`` writes for the test split with the
  ``c8-mobile-pla-s0``, ``c8-mobile-additive-s0`` and ``paper-default``
  checkpoints; the paper default's 64x64 gate exports a streamed map.
  Last come the ``pamunet eval --split test`` CSV of ``c8-mobile-pla-s0``
  and the ``pamunet cka`` CSV between it and ``c8-mobile-none-s0``.

It drives only ``pamunet.cli.main``, so it runs against any checkout:

    PYTHONPATH=<checkout>/src python3 tools/fingerprint.py [flops] [train] > fp.txt

then ``diff`` two such files.  Checkpoints are byte-identical across runs on
one machine at a fixed BLAS thread count, so the script pins OpenBLAS to one
thread unless the caller sets ``OPENBLAS_NUM_THREADS``.  The ``train`` part
takes a few minutes and about 600 MiB of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

VARIANTS = ("none", "self", "cross", "additive", "pla")
DECODERS = ("mobile", "vanilla")
SMALL = ["--levels", "3", "--base-channels", "4", "--input-size", "64"]
CRITERION_8 = SMALL + ["--batch-size", "4", "--epochs", "2", "--augment"]
PAPER = ["--epochs", "1", "--batch-size", "2"]
PREDICTED = ("c8-mobile-pla-s0", "c8-mobile-additive-s0", "paper-default")


def _cli(argv) -> None:
    """Run one ``pamunet`` command quietly; raise with its output if it fails."""
    from pamunet import cli  # here, so that BLAS threads are pinned before numpy loads

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"pamunet {' '.join(map(str, argv))} exited {code}:\n{out.getvalue()}")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def flops(workdir):
    """Yield (sha256, name) for the 20 FLOPs CSVs."""
    for config, flags in (("default", []), ("small", SMALL)):
        for decoder in DECODERS:
            for variant in VARIANTS:
                name = f"flops/{config}-{decoder}-{variant}.csv"
                path = os.path.join(workdir, name)
                _cli(["flops", "--out", path, "--variant", variant, "--decoder-kind", decoder] + flags)
                yield _sha256(path), name


def _predict(workdir, name, data_dir, ckpt):
    """Yield (sha256, name) for every mask and heatmap ``predict`` writes for the test split."""
    out = os.path.join(workdir, "predict", name)
    _cli(["predict", "--ckpt", ckpt, "--data", os.path.join(data_dir, "manifest.tsv"),
          "--split", "test", "--out", os.path.join(out, "masks"),
          "--attention-dir", os.path.join(out, "attention")])
    for sub in ("masks", "attention"):
        for fname in sorted(os.listdir(os.path.join(out, sub))):
            yield _sha256(os.path.join(out, sub, fname)), f"predict/{name}/{sub}/{fname}"


def _eval_and_cka(workdir, data_dir):
    """Yield (sha256, name) for the test-split eval CSV of ``c8-mobile-pla-s0``
    and for its CKA CSV against ``c8-mobile-none-s0``."""
    pla, none = (os.path.join(workdir, "train", f"c8-mobile-{v}-s0.pamckpt") for v in ("pla", "none"))
    commands = {
        "eval/c8-mobile-pla-s0-test.csv": ["eval", "--ckpt", pla, "--split", "test",
                                           "--data", os.path.join(data_dir, "manifest.tsv")],
        "cka/c8-mobile-pla-s0-vs-none-s0.csv": ["cka", "--ckpt-a", pla, "--ckpt-b", none],
    }
    for name, argv in commands.items():
        path = os.path.join(workdir, name)
        _cli(argv + ["--out", path])
        yield _sha256(path), name


def train(workdir):
    """Yield (sha256, name) for the checkpoint and log of the 13 training runs,
    after each run in ``PREDICTED`` for its predict outputs, and last for the
    eval and CKA CSVs of :func:`_eval_and_cka`."""
    runs = []
    data = os.path.join(workdir, "data-c8")
    _cli(["synth", "--out", data, "--seed", "5", "--count", "64", "--size", "64"])
    for seed in (0, 2):
        for decoder, variant in [("mobile", v) for v in VARIANTS] + [("vanilla", "none")]:
            runs.append((f"c8-{decoder}-{variant}-s{seed}", data,
                         CRITERION_8 + ["--seed", seed, "--variant", variant, "--decoder-kind", decoder]))
    paper_data = os.path.join(workdir, "data-paper")
    _cli(["synth", "--out", paper_data, "--seed", "0", "--count", "20", "--size", "128"])
    runs.append(("paper-default", paper_data, PAPER))
    for name, data_dir, flags in runs:
        ckpt, log = (os.path.join(workdir, "train", name + ext) for ext in (".pamckpt", ".csv"))
        _cli(["train", "--data", os.path.join(data_dir, "manifest.tsv"), "--out", ckpt, "--log", log]
             + flags)
        yield _sha256(ckpt), f"train/{name}.pamckpt"
        yield _sha256(log), f"train/{name}.csv"
        if name in PREDICTED:
            yield from _predict(workdir, name, data_dir, ckpt)
    yield from _eval_and_cka(workdir, data)


PARTS = {"flops": flops, "train": train}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parts", nargs="*", help=f"any of {', '.join(PARTS)} (default: all)")
    args = parser.parse_args(argv)
    for part in args.parts:
        if part not in PARTS:
            parser.error(f"unknown part {part!r}; choose from {', '.join(PARTS)}")
    with tempfile.TemporaryDirectory(prefix="pamunet-fingerprint-") as workdir:
        for part in args.parts or PARTS:
            for digest, name in PARTS[part](workdir):
                print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
