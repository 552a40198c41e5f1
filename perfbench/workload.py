"""One benchmark workload in a fresh process.

Sets up the workload several times (timed), checks the program's outputs
against stored references, runs the timed closed loop and, with ``--trace 1``,
runs it again with every layer wrapped in spans.  ``run.py`` starts this file
with ``PYTHONPATH`` pointing at the checkout's ``src`` and the BLAS thread
count fixed in the environment, and adds the process's peak RSS to what this
file writes to ``--result``.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE --spans FILE
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import inspect
import json
import math
import os
import platform
import shutil
import statistics
import time
import tracemalloc

import numpy as np

from pamunet import attention as A
from pamunet import blocks as B
from pamunet import cli
from pamunet import data as D
from pamunet import flops as F
from pamunet import losses as L
from pamunet import model as M
from pamunet import tensor as T
from pamunet import train as TR

from spans import MIB, Tracer

SETUP_REPS = 11
WARMUP_STEPS = 1        # leading steps of a timed phase that are not timed
CHECK_SEED = 0          # inputs behind the stored training references
LOSS_RTOL_F32 = 1e-4    # float32 tolerance on a loss
MASK_MARGIN = 1e-4      # predicted pixels this close to the threshold may flip

# train-ablation: the attention-variant ablation of the acceptance suite
ABLATION_MODEL = dict(levels=3, base_channels=4, input_size=(64, 64))
ABLATION_VARIANTS = ("none", "self", "cross", "additive", "pla")
ABLATION_TRAIN = dict(epochs=1, batch_size=4, lr=0.01, momentum=0.9,
                      weight_decay=1e-4, lambda_reg=0.01)
ABLATION_IMAGES = 64
# (seg, reg) loss of the first CHECK_SEED batch per variant, before training
REF_ABLATION = {
    "none": (3.033163547515869, 0.0),
    "self": (3.033163547515869, 0.000563237234018743),
    "cross": (3.033163547515869, 0.0012812449131160975),
    "additive": (3.033163547515869, 1.0362691682530567e-06),
    "pla": (3.033163547515869, 0.0013831398682668805),
}

# train-paper / predict-paper: the paper's default model (levels 4, base 16,
# 128x128, PLA); batch 2, since the default batch 8 needs ~7.5 GiB
PAPER_MODEL = dict()
PAPER_TRAIN = dict(epochs=1, batch_size=2, lr=0.01, momentum=0.9,
                   weight_decay=1e-4, lambda_reg=0.01)
PAPER_IMAGES = 5        # 4 train images: two steps per epoch
REF_PAPER = {"pla": (1.7383027076721191, 0.00045544846216216683)}
PREDICT_IMAGES = 5      # predict runs on the 4-image train split
GATE_GAIN = 0.8         # gates of the predict checkpoint opened, so attention carries signal


def now() -> float:
    return time.perf_counter()


def open_gates(model, gain: float) -> None:
    for name, p in model.named_parameters():
        if name.endswith("gain"):
            p.data[...] = gain


def loss_parts(model, x, y, lambda_reg: float) -> tuple[float, float, float]:
    """No-grad forward plus total_loss, as (seg, reg, total)."""
    with T.no_grad():
        out = model.forward(x)
        lb = L.total_loss(T.sigmoid(out.logits), y, out.gate_maps, lambda_reg)
    return lb.seg.item(), lb.reg.item(), lb.total.item()


def stack(samples) -> tuple[T.Tensor, T.Tensor]:
    return (T.Tensor(np.stack([s.image.data for s in samples])),
            T.Tensor(np.stack([s.mask.data for s in samples])))


def read_pgm(path) -> np.ndarray:
    """Independent P5 reader for the output checks, so checks are never traced."""
    with open(path, "rb") as fh:
        buf = fh.read()
    fields = buf.split(maxsplit=4)
    if fields[0] != b"P5" or int(fields[3]) != 255:
        raise ValueError(f"{path} is not an 8-bit P5 file")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(buf[len(buf) - w * h:], dtype=np.uint8).reshape(h, w)


def done_by(end: float, start: float, phase: "Phase", min_steps: int) -> bool:
    """After a round that began at ``start``: stop once less than half a round
    is left before ``end``, so a run times the whole number of rounds closest
    to its length (at least one)."""
    return phase.attempted >= min_steps and now() + (now() - start) / 2 >= end


class Phase:
    """Step times and outcome counts of one timed closed loop."""

    def __init__(self):
        self.steps_ms: list[float] = []
        self.step_samples: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(msg)


# -- workloads ---------------------------------------------------------------------

class StepClock:
    """Train steps are the intervals between successive returns of
    ``train.SGD.step``; the first step of a ``train`` call is timed from the
    call.  Also keeps every step's loss and batch size."""

    def __init__(self):
        self.mark = 0.0
        self.durations: list[float] = []
        self.losses: list[float] = []
        self.batches: list[int] = []
        clock = self
        step, total_loss = TR.SGD.step, TR.total_loss

        def timed_step(opt):
            step(opt)
            t = now()
            clock.durations.append(t - clock.mark)
            clock.mark = t

        def kept_loss(pred, *args, **kwargs):
            lb = total_loss(pred, *args, **kwargs)
            clock.losses.append(float(lb.total.data))
            clock.batches.append(pred.shape[0])
            return lb

        TR.SGD.step = timed_step
        TR.total_loss = kept_loss


class TrainLoop:
    """Closed loop over ``train.train``: every variant trains one epoch per
    round, so each runs the same number of steps."""

    def __init__(self, model_kw: dict, variants, train_kw: dict, images: int,
                 size: int, refs: dict):
        self.model_kw, self.variants, self.train_kw = model_kw, variants, train_kw
        self.images, self.size, self.refs = images, size, refs

    def config(self, variant: str) -> M.PAMUNetConfig:
        return M.PAMUNetConfig(**{**self.model_kw, "attention_variant": variant})

    def setup(self, seed: int, workdir: str) -> dict:
        t0 = now()
        self.manifest = D.synth_generate(workdir, seed=seed, count=self.images, size=self.size)
        t1 = now()
        self.models = {v: M.build(self.config(v), seed=seed) for v in self.variants}
        t2 = now()
        self.seed = seed
        self.cfg = TR.TrainConfig(seed=seed, **self.train_kw)
        self.epoch = 0
        self.velocities = {v: None for v in self.variants}
        self.first_loss = {}
        return {"synth": t1 - t0, "build": t2 - t1}

    def first_batch(self, samples, seed: int):
        perm = TR.epoch_permutation(seed, 0, len(samples))
        return stack([samples[i] for i in perm[:self.cfg.batch_size]])

    def check(self) -> list[str]:
        errors = []
        n_train = D.assign_splits(self.images).count("train")
        ref_x, ref_y = self.first_batch(D.synth_batch(CHECK_SEED, self.images, self.size)[:n_train],
                                        CHECK_SEED)
        x, y = self.first_batch(D.load_split(self.manifest, "train"), self.seed)
        for v in self.variants:
            seg, reg, _ = loss_parts(M.build(self.config(v), seed=CHECK_SEED), ref_x, ref_y,
                                     self.cfg.lambda_reg)
            for part, got, want in zip(("seg", "reg"), (seg, reg), self.refs[v]):
                if not abs(got - want) <= LOSS_RTOL_F32 * abs(want) + 1e-12:
                    errors.append(f"{v}: reference {part} loss {got!r} != stored {want!r}")
            self.first_loss[v] = loss_parts(self.models[v], x, y, self.cfg.lambda_reg)[2]
        return errors

    def run(self, seconds: float, phase: Phase, min_steps: int) -> None:
        clock = self.clock
        end = now() + seconds
        while True:
            start = now()
            for v in self.variants:
                n0, m0 = len(clock.durations), len(clock.losses)
                clock.mark = now()
                try:
                    result = TR.train(self.models[v], self.manifest, self.cfg,
                                      start_epoch=self.epoch, velocities=self.velocities[v])
                    self.velocities[v] = result.velocities
                except Exception as e:  # the step in flight failed; the loop goes on
                    phase.attempted += 1
                    phase.fail(f"{v} epoch {self.epoch}: {e!r}")
                done = len(clock.durations) - n0
                losses = clock.losses[m0:m0 + done]
                phase.steps_ms.extend(d * 1e3 for d in clock.durations[n0:])
                phase.step_samples.extend(clock.batches[m0:m0 + done])
                phase.attempted += done
                for k, value in enumerate(losses):
                    if not math.isfinite(value):
                        phase.fail(f"{v} epoch {self.epoch} step {k}: loss {value}")
                if self.epoch == 0 and losses:
                    want = self.first_loss[v]
                    if not abs(losses[0] - want) <= LOSS_RTOL_F32 * abs(want):
                        phase.fail(f"{v}: first-step loss {losses[0]!r} != {want!r}")
            self.epoch += 1
            if done_by(end, start, phase, min_steps):
                return

    def final_check(self) -> list[str]:
        return []


class PredictLoop:
    """Closed loop over ``cli.main(["predict", ...])`` with attention export."""

    def setup(self, seed: int, workdir: str) -> dict:
        t0 = now()
        manifest = D.synth_generate(os.path.join(workdir, "data"), seed=seed,
                                    count=PREDICT_IMAGES, size=128)
        t1 = now()
        model = M.build(M.PAMUNetConfig(**PAPER_MODEL), seed=seed)
        open_gates(model, GATE_GAIN)
        t2 = now()
        self.ckpt = os.path.join(workdir, "model.pamckpt")
        TR.save_checkpoint(self.ckpt, model, seed=seed)
        t3 = now()
        self.manifest_path = os.path.join(workdir, "data", "manifest.tsv")
        self.out = os.path.join(workdir, "masks")
        self.attn = os.path.join(workdir, "attention")
        self.ids = [e.id for e in manifest.split("train")]
        self.gates = sum(1 for name, _ in model.named_parameters() if name.endswith("gain"))
        self.argv = ["predict", "--ckpt", self.ckpt, "--data", self.manifest_path,
                     "--split", "train", "--out", self.out, "--attention-dir", self.attn]
        return {"synth": t1 - t0, "build": t2 - t1, "save": t3 - t2}

    def check(self) -> list[str]:
        """Reference masks from ``model.predict_mask`` on the saved checkpoint;
        the forward it runs is captured to know which pixels sit at the threshold."""
        model, _ = TR.load_checkpoint(self.ckpt)
        captured = []
        forward = model.forward

        def capture(x, *args, **kwargs):
            out = forward(x, *args, **kwargs)
            captured.append(out.logits.data)
            return out

        model.forward = capture
        manifest = D.Manifest.load(self.manifest_path)
        self.masks, self.loose = {}, {}
        for sample in D.load_split(manifest, "train"):
            mask = M.predict_mask(model, T.Tensor(sample.image.data[None]))
            probs = 1.0 / (1.0 + np.exp(-captured[-1][0].astype(np.float64)))
            self.masks[sample.id] = mask.data[0, 0] > 0
            self.loose[sample.id] = np.abs(probs[0] - model.config.threshold) < MASK_MARGIN
        return []

    def check_outputs(self) -> list[str]:
        errors = []
        for sid, want in self.masks.items():
            got = read_pgm(os.path.join(self.out, f"{sid}_mask.pgm")) > 127
            bad = (got != want) & ~self.loose[sid]
            if bad.any():
                errors.append(f"{sid}: {int(bad.sum())} mask pixels differ from predict_mask")
        maps = len(os.listdir(self.attn))
        if maps != len(self.ids) * self.gates:
            errors.append(f"{maps} heatmaps written, expected {len(self.ids)} x {self.gates}")
        return errors

    def run(self, seconds: float, phase: Phase, min_steps: int) -> None:
        end = now() + seconds
        while True:
            for d in (self.out, self.attn):
                shutil.rmtree(d, ignore_errors=True)
            start = t0 = now()
            try:
                rc = cli.main(list(self.argv))
            except Exception as e:  # counted as a failed step
                rc = repr(e)
            phase.steps_ms.append((now() - t0) * 1e3)
            phase.step_samples.append(len(self.ids))
            phase.attempted += 1
            errors = [f"predict returned {rc}"] if rc != 0 else self.check_outputs()
            if errors:
                phase.fail("; ".join(errors))
            if done_by(end, start, phase, min_steps):
                return

    def final_check(self) -> list[str]:
        return []


def make_workload(name: str):
    if name == "train-ablation":
        return TrainLoop(ABLATION_MODEL, ABLATION_VARIANTS, ABLATION_TRAIN,
                         ABLATION_IMAGES, 64, REF_ABLATION)
    if name == "train-paper":
        return TrainLoop(PAPER_MODEL, ("pla",), PAPER_TRAIN, PAPER_IMAGES, 128, REF_PAPER)
    if name == "predict-paper":
        return PredictLoop()
    raise ValueError(f"unknown workload {name!r}")


# -- tracing -------------------------------------------------------------------------

TENSOR_PLUMBING = {"default_dtype", "set_default_dtype", "using_dtype", "grad_enabled",
                   "no_grad", "record_op", "accumulate_grad", "backward", "reset_tape"}
NAMED_OPS = ("add", "relu6", "softmax", "depthwise_conv2d", "pointwise_conv2d", "conv2d",
             "conv_transpose2d", "matmul")
MAC_OPS = ("depthwise_conv2d", "pointwise_conv2d", "conv2d", "conv_transpose2d", "matmul")
BLOCKS = {"IRBlock": "irblock", "Conv2d": "conv", "PointwiseConv": "pointwise",
          "ConvTranspose2d": "conv_transpose"}
COUNTERS = ("forward_macs", "materialized_bytes", "written_bytes",
            "flops.irblock", "flops.conv", "flops.pointwise", "flops.conv_transpose")


def _kernel_macs(args, kwargs, out):
    """conv2d, depthwise, pointwise: every output element costs one kernel slice."""
    kernel = args[1] if len(args) > 1 else next(v for k, v in kwargs.items() if k.startswith("kernel"))
    return out.data.size * math.prod(kernel.shape[1:])


def _transpose_macs(args, kwargs, out):
    x = args[0]
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    return x.data.size * math.prod(kernel.shape[1:])


def _matmul_macs(args, kwargs, out):
    return out.data.size * args[0].shape[-1]


def _streaming_macs(args, kwargs, out):
    q, k = args[0], args[1]
    n, lq, d = q.shape
    return n * lq * k.shape[1] * d + out[0].data.size * k.shape[1]


def _additive_macs(args, kwargs, out):
    return out.data.size * args[0].shape[-1]


def install_tracer(tracer: Tracer, counters: dict) -> None:
    for name, fn in list(vars(T).items()):
        if (inspect.isfunction(fn) and fn.__module__ == T.__name__
                and not name.startswith("_") and name not in TENSOR_PLUMBING):
            macs = {"conv_transpose2d": _transpose_macs, "matmul": _matmul_macs}.get(
                name, _kernel_macs if name in MAC_OPS else None)
            tracer.wrap(T, name, f"tensor.{name}", macs=macs)
    tracer.wrap(T, "backward", "tensor.backward")
    tracer.wrap_record_op(T)
    tracer.wrap_record_op(A)
    tracer.wrap(A, "scaled_dot_attention", "attention.scaled_dot_attention")
    tracer.wrap(A, "scaled_dot_attention_streaming", "attention.scaled_dot_attention_streaming",
                macs=_streaming_macs)
    tracer.wrap(A, "additive_scores", "attention.additive_scores", macs=_additive_macs)
    for cls in list(vars(A).values()):
        if (isinstance(cls, type) and issubclass(cls, B.Module) and cls.__name__.endswith("Gate")
                and "forward" in vars(cls)):
            tracer.wrap(cls, "forward", "attention.gate")
    for cls_name, kind in BLOCKS.items():
        cls = getattr(B, cls_name, None)
        if cls is not None:
            tracer.wrap(cls, "forward", f"blocks.{kind}")

    rows = {}  # id(model) -> (model, MACs per flops kind); the model is kept so ids stay unique

    def forward_done(args, kwargs, out):
        model, x = args[0], args[1]
        n = x.shape[0]
        if id(model) not in rows:
            kinds = {}
            for _, kind, macs in F.count_flops(model).rows:
                kinds[kind] = kinds.get(kind, 0) + macs
            rows[id(model)] = (model, kinds)
        for kind, macs in rows[id(model)][1].items():
            counters["forward_macs"] += n * macs
            key = f"flops.{kind}"
            if key in counters:
                counters[key] += n * macs
        counters["materialized_bytes"] += sum(m.data.nbytes for m in out.gate_maps if m.ndim == 3)

    tracer.wrap(M.PAMUNet, "forward", "model.forward", on_return=forward_done)
    for mod in (L, TR):
        tracer.wrap(mod, "total_loss", "losses.total_loss")
    tracer.wrap(TR.SGD, "step", "train.sgd_step")
    tracer.wrap(TR, "_stack_batch", "train.batch")
    tracer.wrap(TR, "dice", "metrics.dice")
    for mod in (TR, cli):
        tracer.wrap(mod, "load_split", "data.load_split")
    tracer.wrap(cli, "cmd_predict", "cli.predict")
    tracer.wrap(cli, "load_checkpoint", "train.load_checkpoint")
    tracer.wrap(cli, "predict_mask", "model.predict_mask")
    tracer.wrap(D, "read_image", "data.read_image")

    def written(args, kwargs, out):
        counters["written_bytes"] += os.path.getsize(args[0])

    for mod in (D, cli):
        tracer.wrap(mod, "write_image", "data.write_image", on_return=written)


def layer_metrics(tracer: Tracer, counters: dict, steps: int, images: int) -> tuple[dict, dict]:
    """Per-step figures from the spans: tensor.* times are self time, the rest
    inclusive.  Returns (metrics, diagnostics)."""
    self_ns, total_ns = tracer.self_and_total_ns()
    calls, selft, total, macs = {}, {}, {}, {}
    top_blocks = {f"blocks.{k}": 0 for k in BLOCKS.values()}
    cli_forwards = 0
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        selft[name] = selft.get(name, 0) + self_ns[i]
        total[name] = total.get(name, 0) + total_ns[i]
        if i in tracer.macs:
            macs[name] = macs.get(name, 0) + tracer.macs[i]
        if name in top_blocks and not tracer.has_ancestor(i, "blocks."):
            top_blocks[name] += total_ns[i]
        if name == "model.forward" and tracer.has_ancestor(i, "cli."):
            cli_forwards += 1

    per = max(steps, 1)

    def ms(ns):
        return ns / 1e6 / per

    def rate(mac, ns):
        return mac / ns if ns else 0.0  # MAC per ns == GMAC/s

    out = {"tensor.op_calls": sum(c for n, c in calls.items()
                                  if n.startswith("tensor.") and not n.endswith(".bwd")
                                  and n != "tensor.backward") / per,
           "tensor.tape_nodes": tracer.tape_nodes / per}
    groups = {op: [0, 0, 0, 0] for op in NAMED_OPS + ("other",)}
    for name in calls:
        if not name.startswith("tensor.") or name == "tensor.backward":
            continue
        op = name[len("tensor."):]
        bwd = op.endswith(".bwd")
        op = op[:-4] if bwd else op
        g = groups[op if op in NAMED_OPS else "other"]
        if bwd:
            g[1] += selft[name]
        else:
            g[0] += selft[name]
            g[2] += calls[name]
            g[3] += macs.get(name, 0)
    for op, (fwd, bwd, n, mac) in groups.items():
        out[f"tensor.{op}.fwd_ms"] = ms(fwd)
        out[f"tensor.{op}.bwd_ms"] = ms(bwd)
        if op != "softmax":
            out[f"tensor.{op}.calls"] = n / per
        if op in MAC_OPS:
            out[f"tensor.{op}.gmac_s"] = rate(mac, fwd)
    out["tensor.backward_ms"] = ms(total.get("tensor.backward", 0))
    for name, ns in top_blocks.items():
        kind = name[len("blocks."):]
        out[f"{name}.fwd_ms"] = ms(ns)
        out[f"{name}.gmac_s"] = rate(counters[f"flops.{kind}"], ns)
    out["model.forward_ms"] = ms(total.get("model.forward", 0))
    out["model.forward_gmac_s"] = rate(counters["forward_macs"], total.get("model.forward", 0))
    out["flops.forward_macs"] = counters["forward_macs"] / per
    out["attention.gate_fwd_ms"] = ms(total.get("attention.gate", 0))
    out["attention.scaled_dot_attention.fwd_ms"] = ms(total.get("attention.scaled_dot_attention", 0))
    stream = "attention.scaled_dot_attention_streaming"
    out[f"{stream}.fwd_ms"] = ms(total.get(stream, 0))
    out[f"{stream}.bwd_ms"] = ms(selft.get(stream + ".bwd", 0))
    out[f"{stream}.calls"] = calls.get(stream, 0) / per
    out["attention.materialized_mib"] = counters["materialized_bytes"] / MIB / per
    out["losses.total_loss_ms"] = ms(total.get("losses.total_loss", 0))
    out["attention.additive_scores.fwd_ms"] = ms(total.get("attention.additive_scores", 0))
    out["attention.additive_scores.bwd_ms"] = ms(selft.get("attention.additive_scores.bwd", 0))
    for metric, span in (("train.sgd_step_ms", "train.sgd_step"), ("train.batch_ms", "train.batch"),
                         ("metrics.dice_ms", "metrics.dice"),
                         ("data.load_split_ms", "data.load_split"),
                         ("cli.predict_ms", "cli.predict"),
                         ("train.load_checkpoint_ms", "train.load_checkpoint"),
                         ("data.read_image_ms", "data.read_image"),
                         ("data.write_image_ms", "data.write_image")):
        out[metric] = ms(total.get(span, 0))
    out["cli.forwards_per_image"] = cli_forwards / images if images else 0.0
    out["data.write_image_mib"] = counters["written_bytes"] / MIB / per
    diagnostics = {"op_macs": sum(tracer.macs.values()), "flops_macs": counters["forward_macs"]}
    return out, diagnostics


# -- run record ------------------------------------------------------------------------

def blas_runtime() -> dict:
    """OpenBLAS's own report of its build and thread count, where it can be read."""
    info = {"threads": None, "config": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["config"] = blas.get("openblas configuration") or blas.get("name")
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode("ascii", "replace")
                    info["threads"] = int(get_threads())
                    return info
    return info


def run_record() -> dict:
    blas = blas_runtime()
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas["threads"],
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas["config"], "machine": platform.machine()}


# -- main ------------------------------------------------------------------------------

def summarize(phase: Phase) -> dict:
    """End-to-end figures of a phase.  Its first step warms the process
    (allocator, first backward) and is checked but not timed."""
    steps = phase.steps_ms[WARMUP_STEPS:]
    samples = sum(phase.step_samples[WARMUP_STEPS:])
    busy_s = sum(steps) / 1e3
    return {"step_ms_p50": float(np.percentile(steps, 50)) if steps else float("nan"),
            "samples_per_s": samples / busy_s if busy_s else float("nan"),
            "steps": len(steps), "samples": samples}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", required=True)
    args = p.parse_args()

    wl = make_workload(args.workload)
    setups = []
    for rep in range(SETUP_REPS):
        t0 = now()
        parts = wl.setup(args.seed, os.path.join(args.workdir, f"setup{rep}"))
        setups.append({"total": now() - t0, **parts})
    checks = wl.check()
    if isinstance(wl, TrainLoop):
        wl.clock = StepClock()

    result = {"record": run_record(), "setup_s": statistics.median(s["total"] for s in setups),
              "setup_reps": len(setups)}
    phases = []
    if args.trace:
        untraced = Phase()
        wl.run(args.seconds / 2, untraced, WARMUP_STEPS + 1)
        tracer, counters = Tracer(), dict.fromkeys(COUNTERS, 0)
        install_tracer(tracer, counters)
        traced = Phase()
        try:
            wl.run(args.seconds / 2, traced, WARMUP_STEPS + 1)
        finally:
            tracer.uninstall()
        # tracemalloc slows every Python allocation, so memory gets its own
        # shortest run (one step, round or call) instead of skewing the spans
        probe, probed = Tracer(), Phase()
        probe.wrap(M.PAMUNet, "forward", "model.forward", memory=True)
        probe.wrap(T, "backward", "tensor.backward", memory=True)
        tracemalloc.start()
        try:
            wl.run(0.0, probed, 1)
        finally:
            probe.uninstall()
            tracemalloc.stop()
        phases = [untraced, traced, probed]
        images = sum(traced.step_samples) if isinstance(wl, PredictLoop) else 0
        per_layer, result["diagnostics"] = layer_metrics(tracer, counters, len(traced.steps_ms),
                                                         images)
        for name in ("model.forward", "tensor.backward"):
            per_layer[f"{name}.peak_traced_mib"] = probe.peak_mib.get(name, 0.0)
        for metric, part in (("data.synth_generate_ms", "synth"), ("model.build_ms", "build"),
                             ("train.save_checkpoint_ms", "save")):
            per_layer[metric] = statistics.median(s.get(part, 0.0) for s in setups) * 1e3
        a, b = summarize(untraced), summarize(traced)
        per_layer["trace.overhead_pct"] = (b["step_ms_p50"] / a["step_ms_p50"] - 1.0) * 100
        result["per_layer"] = per_layer
        result["untraced"], result["traced"] = a, b
        tracer.write(args.spans)
    else:
        phase = Phase()
        wl.run(args.seconds, phase, WARMUP_STEPS + 1)
        phases = [phase]
        result["end_to_end"] = summarize(phase)
        result["steps_ms"] = phase.steps_ms
    checks += wl.final_check()
    result["checks"] = checks
    result["attempted"] = sum(ph.attempted for ph in phases)
    result["failed"] = sum(ph.failed for ph in phases)
    result["errors"] = [e for ph in phases for e in ph.errors]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
