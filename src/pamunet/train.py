"""SGD training loop, binary checkpoints, and split evaluation.

Determinism contract: given (seed, config, manifest) the whole run is a pure
function. Per-epoch sample permutations and augmentation draws come from
generators keyed by (seed, epoch), parameter init is keyed by (seed, name),
so same-seed runs produce byte-identical checkpoints.

Checkpoint layout (``*.pamckpt``): 8-byte magic, little-endian uint64 header
length, canonical JSON header (model config, epoch, seed, ordered parameter
names/shapes), then raw float32 little-endian parameter blobs in header
order, then optimizer velocity blobs when present; nothing follows them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from pamunet import tensor as T
from pamunet.data import AUGMENT_OPS, Manifest, Sample, augment, load_split
from pamunet.losses import CLAMP_EPS, total_loss
from pamunet.metrics import MetricReport, dice
from pamunet.model import PAMUNet, PAMUNetConfig, binary_mask, build, predict_mask
from pamunet.tensor import Tensor

CHECKPOINT_MAGIC = b"PAMCKPT1"
CHECKPOINT_VERSION = 1
CHECKPOINT_KEYS = ("version", "config", "epoch", "seed", "params", "has_velocities")
TRAIN_LOG_HEADER = "epoch,seg_loss,reg_loss,total_loss,train_dice"


class NumericError(RuntimeError):
    """Raised when training produces a non-finite loss."""


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0001
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    lambda_reg: float = 0.01
    augment: bool = False

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 <= self.lambda_reg < np.inf:
            raise ValueError(f"lambda_reg must be finite and >= 0, got {self.lambda_reg}")


class SGD:
    """Momentum SGD with coupled (L2) weight decay.

    g' = g + wd * w;  v <- mu * v + g';  w <- w - lr * v
    """

    def __init__(self, named_params: dict[str, Tensor], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        self.params = dict(named_params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} misaligned with "
                                 f"parameter {name} {p.data.shape}")
            g = g + self.weight_decay * p.data
            v = self.velocities[name]
            v *= self.momentum
            v += g
            p.data -= self.lr * v

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# -- checkpoints ----------------------------------------------------------------

def save_checkpoint(path, model: PAMUNet, epoch: int = 0, seed: int = 0,
                    velocities: dict[str, np.ndarray] | None = None) -> None:
    params = list(model.named_parameters())
    header = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "epoch": epoch,
        "seed": seed,
        "params": [[name, list(p.shape)] for name, p in params],
        "has_velocities": velocities is not None,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
        if velocities is not None:
            for name, _ in params:
                fh.write(np.ascontiguousarray(velocities[name], dtype="<f4").tobytes())


def _read_blobs(data: bytes, pos: int, shapes: dict[str, tuple[int, ...]],
                section: str) -> tuple[dict[str, np.ndarray], int]:
    """Read one float32 blob per name, in order, from ``data[pos:]``."""
    out = {}
    for name, shape in shapes.items():
        n = 4 * int(np.prod(shape, dtype=np.int64))
        raw = data[pos:pos + n]
        if len(raw) != n:
            raise ValueError(f"checkpoint truncated while reading {section} {name}")
        out[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
        if not np.isfinite(out[name]).all():
            raise ValueError(f"checkpoint {section} {name} holds non-finite values")
        pos += n
    return out, pos


def load_checkpoint(path) -> tuple[PAMUNet, dict]:
    """Rebuild the model; returns (model, extras) with epoch/seed/velocities."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    if len(data) < 16:
        raise ValueError(f"{path}: checkpoint truncated in its header length")
    (hlen,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + hlen].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    missing = [k for k in CHECKPOINT_KEYS if k not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {header['version']} unsupported "
                         f"(expected {CHECKPOINT_VERSION})")
    try:
        config = PAMUNetConfig.from_dict(header["config"])
    except (AttributeError, ValueError) as e:  # not a dict, unknown key, bad value
        raise ValueError(f"{path}: bad model config in checkpoint: {e}") from e
    model = PAMUNet(config)
    named = dict(model.named_parameters())
    shapes = {name: p.shape for name, p in named.items()}
    if header["params"] != [[name, list(shape)] for name, shape in shapes.items()]:
        raise ValueError("checkpoint parameter names/shapes do not match the model structure")
    params, pos = _read_blobs(data, 16 + hlen, shapes, "parameter")
    for name, value in params.items():
        named[name].data = value
    velocities = None
    if header["has_velocities"]:
        velocities, pos = _read_blobs(data, pos, shapes, "velocity")
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} unexpected bytes after the checkpoint data")
    extras = {"epoch": header["epoch"], "seed": header["seed"], "velocities": velocities}
    return model, extras


# -- training ---------------------------------------------------------------------

def _stack_batch(samples: list[Sample]) -> tuple[Tensor, Tensor]:
    x = Tensor(np.stack([s.image.data for s in samples]))
    y = Tensor(np.stack([s.mask.data for s in samples]))
    return x, y


def _first_non_finite_layer(model: PAMUNet, activations: dict[str, Tensor]) -> str:
    """The first non-finite parameter, else the first non-finite stage output
    of the failing forward, else the loss."""
    for name, p in model.named_parameters():
        if not np.isfinite(p.data).all():
            return name
    for name, act in activations.items():
        if not np.isfinite(act.data).all():
            return name
    return "loss reduction"


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    velocities: dict[str, np.ndarray] = field(default_factory=dict)

    def log_csv(self) -> str:
        lines = [TRAIN_LOG_HEADER]
        for row in self.history:
            lines.append(f"{row['epoch']},{row['seg_loss']:.6f},{row['reg_loss']:.6f},"
                         f"{row['total_loss']:.6f},{row['train_dice']:.6f}")
        return "\n".join(lines) + "\n"


def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """The epoch-e sample order is a pure function of (seed, e)."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def require_split(manifest: Manifest, split: str) -> None:
    if not manifest.split(split):
        raise ValueError(f"manifest has an empty {split!r} split")


def train(model: PAMUNet, manifest: Manifest, cfg: TrainConfig,
          start_epoch: int = 0, velocities: dict | None = None,
          on_epoch=None) -> TrainResult:
    require_split(manifest, "train")
    samples = load_split(manifest, "train")
    opt = SGD(dict(model.named_parameters()), lr=cfg.lr,
              momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    if velocities:
        for name, v in velocities.items():
            opt.velocities[name] = np.array(v, dtype=np.float32)
    result = TrainResult()
    n = len(samples)
    threshold = model.config.threshold

    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        perm = epoch_permutation(cfg.seed, epoch, n)
        aug_rng = np.random.default_rng([cfg.seed, epoch, 1])
        sums = {"seg": 0.0, "reg": 0.0, "total": 0.0}
        dice_scores: list[float] = []
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            batch = [samples[i] for i in idx]
            if cfg.augment:
                ops = aug_rng.choice(len(AUGMENT_OPS) + 1, size=len(batch))
                batch = [augment(s, AUGMENT_OPS[op - 1]) if op > 0 else s
                         for s, op in zip(batch, ops)]
            x, target = _stack_batch(batch)
            out = model.forward(x)
            probs = T.sigmoid(out.logits)
            lb = total_loss(probs, target, out.gate_maps, cfg.lambda_reg)
            if not np.isfinite(lb.total.data):
                T.reset_tape()
                layer = _first_non_finite_layer(model, out.activations)
                raise NumericError(
                    f"non-finite loss at epoch {epoch} (first non-finite layer: {layer})")
            T.backward(lb.total)
            opt.step()
            opt.zero_grad()
            k = len(batch)
            sums["seg"] += lb.seg.item() * k
            sums["reg"] += lb.reg.item() * k
            sums["total"] += lb.total.item() * k
            pred_masks = binary_mask(probs.data, threshold)
            for i in range(k):
                dice_scores.append(dice(pred_masks[i], target.data[i]))
        row = {
            "epoch": epoch,
            "seg_loss": sums["seg"] / n,
            "reg_loss": sums["reg"] / n,
            "total_loss": sums["total"] / n,
            "train_dice": float(np.mean(dice_scores)),
        }
        result.history.append(row)
        if on_epoch is not None:
            on_epoch(model, row)
    result.velocities = opt.velocities
    return result


def evaluate(model: PAMUNet, manifest: Manifest, split: str,
             batch_size: int = 8) -> MetricReport:
    require_split(manifest, split)
    samples = load_split(manifest, split)
    report = MetricReport()
    for lo in range(0, len(samples), batch_size):
        batch = samples[lo:lo + batch_size]
        x, _ = _stack_batch(batch)
        masks = predict_mask(model, x)
        for i, s in enumerate(batch):
            report.add(s.id, masks.data[i], s.mask.data)
    return report


def init_head_prior(model: PAMUNet, manifest: Manifest, batch_size: int) -> None:
    """Shift ``head.bias`` so the mean logit over the train split equals the
    log-odds of the split's foreground fraction (clamped to [eps, 1-eps]).

    A fresh model otherwise starts at a seed-dependent mean logit, and SGD
    first collapses it onto the all-background predictor, where it can sit at
    Dice 0 for several epochs (the prior-probability start of Lin et al.,
    arXiv 1708.02002).  A bias shift moves every logit by the same amount.
    """
    require_split(manifest, "train")
    samples = load_split(manifest, "train")
    logit_sum = 0.0
    with T.no_grad():
        for lo in range(0, len(samples), batch_size):
            x, _ = _stack_batch(samples[lo:lo + batch_size])
            logit_sum += float(model.forward(x).logits.data.sum(dtype=np.float64))
    masks = np.stack([s.mask.data for s in samples])
    fg = float(np.clip(masks.mean(dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS))
    shift = np.log(fg / (1.0 - fg)) - logit_sum / masks.size
    model.head.bias.data += shift


def run_training(config: PAMUNetConfig, manifest: Manifest, cfg: TrainConfig,
                 on_epoch=None) -> tuple[PAMUNet, TrainResult]:
    """Build a fresh model, start it at the foreground prior and train it.

    ``on_epoch(model, row)`` runs after every epoch.  The prior is set here
    and not in :func:`train`, so a resumed or chained ``train`` call keeps the
    bias it was given.
    """
    model = build(config, seed=cfg.seed)
    init_head_prior(model, manifest, cfg.batch_size)
    result = train(model, manifest, cfg, on_epoch=on_epoch)
    return model, result
