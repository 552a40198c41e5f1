"""Held-out ablation protocol: paired PLA - MED test Dice on synthetic datasets 6-9.

Criterion 8 compares the attention variants on one synthetic dataset (seed 5)
and three model seeds.  This script repeats its MED against MED+PLA comparison
on four datasets that no setting was chosen on, with twice the seeds, so that a
change that moves criterion-8 bits can be judged on more than one draw:

- data: ``synth_generate(seed=d, count=64, size=64)`` for d = 6, 7, 8, 9;
- model: levels 3, base 4, 64x64 input, mobile decoder, attention ``none``
  (MED) or ``pla`` (MED+PLA);
- training: 10 epochs, batch 4, lr 0.01, momentum 0.9, weight decay 1e-4,
  lambda_reg 0.01, no augmentation, model seeds 0-5;
- scoring: ``cli.run_ablation``, which scores each run's test split at its best
  val epoch.

For each dataset it prints MED and PLA Dice and their paired difference per
seed, then the mean, sample standard deviation and count of positive
differences over seeds 0-2, 3-5 and 0-5.  That is 48 trainings.  The
datasets run in parallel, one worker process each, up to 4 workers and no more
than the CPUs this process may run on; the reports print in dataset order.
On a 2-core x86_64 host that takes about 6 minutes, against 13 one by one.
The workers run with OpenBLAS pinned to one thread unless the caller sets
``OPENBLAS_NUM_THREADS``, so a rerun on one machine repeats every figure,
whatever the number of workers:

    PYTHONPATH=src python3 tools/heldout.py
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import sys
import tempfile
from functools import partial

DATASETS = (6, 7, 8, 9)
SEEDS = (0, 1, 2, 3, 4, 5)
GROUPS = (("0-2", (0, 1, 2)), ("3-5", (3, 4, 5)), ("0-5", SEEDS))
MODEL = dict(levels=3, base_channels=4, input_size=(64, 64))
TRAIN = dict(epochs=10, batch_size=4, lr=0.01, momentum=0.9, weight_decay=1e-4, lambda_reg=0.01)
VARIANTS = [("med", {"attention_variant": "none", "decoder_kind": "mobile"}),
            ("med+pla", {"attention_variant": "pla", "decoder_kind": "mobile"})]


def report(dataset: int, rows) -> list[str]:
    """The per-seed table and the group summaries for one dataset's ablation rows."""
    dice = {(r["variant"], r["seed"]): r["dice"] for r in rows}
    diffs = {s: dice["med+pla", s] - dice["med", s] for s in SEEDS}
    lines = [f"dataset {dataset}", "seed  med     pla     pla-med"]
    lines += [f"{s:<5} {dice['med', s]:.4f}  {dice['med+pla', s]:.4f}  {diffs[s]:+.4f}" for s in SEEDS]
    for name, seeds in GROUPS:
        d = [diffs[s] for s in seeds]
        lines.append(f"seeds {name}: mean {statistics.mean(d):+.4f}  sd {statistics.stdev(d):.4f}  "
                     f"positive {sum(x > 0 for x in d)} of {len(d)}")
    return lines


def heldout(tmp: str, dataset: int) -> str:
    """One dataset's ablation, trained under ``tmp``, as its printed report."""
    from pamunet import data as D  # here, so that BLAS threads are pinned before numpy loads
    from pamunet.cli import run_ablation

    manifest = D.synth_generate(os.path.join(tmp, str(dataset)), seed=dataset, count=64, size=64)
    rows, _ = run_ablation(MODEL, TRAIN, manifest, list(SEEDS), VARIANTS)
    return "\n".join(report(dataset, rows)) + "\n"


def main() -> int:
    workers = min(len(DATASETS), len(os.sched_getaffinity(0)))
    with tempfile.TemporaryDirectory() as tmp, multiprocessing.get_context("spawn").Pool(workers) as pool:
        for text in pool.imap(partial(heldout, tmp), DATASETS):
            print(text, flush=True)
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
