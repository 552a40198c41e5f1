"""Full network assembly: mobile encoder, bottleneck, gated decoder, head.

Layer naming contract (shared with checkpoints, FLOPs rows and activation
capture): ``stem``, ``enc{i}.block{0,1}``, ``bottleneck.{ir,reduce}``,
``dec{i}.{up,gate}``, ``head``.  Captured activations are keyed
``enc{i}``, ``bottleneck``, ``dec{i}`` and ``head``: one per stage plus the
bottleneck and the logits, 2*levels + 2 in total.

Every decoder stage doubles resolution with its up block's stride-2
transposed conv, optionally runs an attention gate against the matching
encoder residual, concatenates the residual, and fuses through the up block's
``fuse``.  The deepest ``levels - 1`` skips come from encoder stages and carry
gates; the final full-resolution skip comes from the stem and is a plain
concatenation, which keeps every attention grid at or below 64x64 positions
for 128x128 inputs.

``decoder_kind`` only picks the up block class (``UpBlock`` for mobile,
``VanillaUpBlock`` for vanilla).  Gates and up blocks yield their own FLOPs
rows, so neither forward nor ``mac_sites`` branches on the decoder kind or the
gate variant.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, asdict

import numpy as np

from pamunet import tensor as T
from pamunet.attention import make_gate
from pamunet.blocks import (Conv2d, ConvTranspose2d, IRBlock, Module, PointwiseConv,
                            UpBlock, VanillaUpBlock, init_parameters)
from pamunet.tensor import ShapeError, Tensor

ATTENTION_VARIANTS = ("none", "self", "cross", "additive", "pla")
DECODER_KINDS = ("vanilla", "mobile")


def _fits(value, hint) -> bool:
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        args = typing.get_args(hint)
        if not isinstance(value, (list, tuple)) or (origin is tuple and len(value) != len(args)):
            return False
        return all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def config_from_dict(cls, values):
    """Build the config dataclass ``cls`` from a JSON object (a --config file,
    a checkpoint header).  An unknown key or a value of the wrong type is a
    ValueError naming the key, not a TypeError from inside validation."""
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if key not in hints or not _fits(value, hints[key]):
            raise ValueError(f"{cls.__name__} key {key!r} is unknown or has a value "
                             f"of the wrong type: {value!r}")
    return cls(**values)


@dataclass
class PAMUNetConfig:
    levels: int = 4
    base_channels: int = 16
    channel_schedule: list[int] = field(default_factory=list)
    expansion_factor: int = 6
    attention_variant: str = "pla"
    decoder_kind: str = "mobile"
    input_size: tuple[int, int] = (128, 128)
    in_channels: int = 1
    threshold: float = 0.5

    def __post_init__(self):
        self.input_size = tuple(self.input_size)
        if not self.channel_schedule:
            self.channel_schedule = [self.base_channels * 2 ** i for i in range(self.levels)]
        self.validate()

    def validate(self):
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if len(self.channel_schedule) != self.levels:
            raise ValueError(
                f"channel_schedule length {len(self.channel_schedule)} != levels {self.levels}")
        if min(self.channel_schedule) < 1:
            raise ValueError(f"channel_schedule entries must be >= 1, got {self.channel_schedule}")
        if self.expansion_factor < 1:
            raise ValueError(f"expansion_factor must be >= 1, got {self.expansion_factor}")
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.attention_variant not in ATTENTION_VARIANTS:
            raise ValueError(f"attention_variant must be one of {ATTENTION_VARIANTS}, "
                             f"got {self.attention_variant!r}")
        if self.decoder_kind not in DECODER_KINDS:
            raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}, got {self.decoder_kind!r}")
        if self.in_channels not in (1, 3):
            raise ValueError(f"in_channels must be 1 or 3, got {self.in_channels}")
        div = 2 ** self.levels
        h, w = self.input_size
        if h < 1 or w < 1:
            raise ValueError(f"input size must be positive, got {h}x{w}")
        if h % div or w % div:
            raise ValueError(
                f"input size {h}x{w} is not divisible by 2^levels = {div}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["input_size"] = list(self.input_size)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PAMUNetConfig":
        # checkpoints written while lambda_reg was a model field still carry it;
        # training reads it from TrainConfig only
        return config_from_dict(cls, {k: v for k, v in d.items() if k != "lambda_reg"})


@dataclass
class ForwardResult:
    """``gate_maps`` holds each gate's regularizer entry: its weight map on the
    tape, or the 0-d variance of a streamed gate.  ``maps`` is ``None`` unless
    ``forward(maps=True)`` asked for it; then it holds every gate's (N, Lq, Lk)
    weight map as a plain array, streamed gates included, in decoder order."""
    logits: Tensor
    gate_maps: list[Tensor]
    activations: dict[str, Tensor] | None = None
    maps: list[np.ndarray] | None = None


class PAMUNet(Module):
    """The assembled network; construct through :func:`build`."""

    def __init__(self, config: PAMUNetConfig):
        super().__init__()
        config.validate()
        self._config = config
        ch = config.channel_schedule
        t = config.expansion_factor
        levels = config.levels
        c0 = ch[0]

        self.stem = Conv2d(config.in_channels, c0, k=3, stride=1, padding=1)

        self._enc_stages = []
        prev = c0
        for i in range(levels):
            stage = Module()
            stage.block0 = IRBlock(prev, ch[i], stride=1, expansion=t)
            stage.block1 = IRBlock(ch[i], ch[i], stride=2, expansion=t)
            setattr(self, f"enc{i}", stage)
            self._enc_stages.append(stage)
            prev = ch[i]

        reduced = ch[-2] if levels >= 2 else ch[0]
        bott = Module()
        bott.ir = IRBlock(ch[-1], ch[-1], stride=1, expansion=t)
        bott.reduce = PointwiseConv(ch[-1], reduced, relu6=True)
        self.bottleneck = bott

        # decoder stage j consumes skip j: enc[levels-2-j] output, stem for the last
        skip_ch = [ch[levels - 2 - j] for j in range(levels - 1)] + [c0]
        self._dec_stages = []
        mobile = config.decoder_kind == "mobile"
        d_in = reduced
        for j in range(levels):
            out = skip_ch[j]
            stage = Module()
            stage.up = (UpBlock(d_in, out, expansion=t, fuse_in=2 * out) if mobile
                        else VanillaUpBlock(d_in, out, fuse_in=2 * out))
            if config.attention_variant != "none" and j < levels - 1:
                stage.gate = make_gate(config.attention_variant, d_in, out, expansion=t)
            setattr(self, f"dec{j}", stage)
            self._dec_stages.append(stage)
            d_in = out

        self.head = ConvTranspose2d(ch[0], 1, k=1, stride=1)

    @property
    def config(self) -> PAMUNetConfig:
        return self._config

    def forward(self, x: Tensor, capture: bool = False, maps: bool = False) -> ForwardResult:
        cfg = self._config
        if x.ndim != 4 or x.shape[1] != cfg.in_channels or x.shape[2:] != cfg.input_size:
            raise ShapeError(
                f"input shape {x.shape} does not match configured "
                f"(N,{cfg.in_channels},{cfg.input_size[0]},{cfg.input_size[1]})")
        acts: dict[str, Tensor] | None = {} if capture else None

        def grab(name, t):
            if acts is not None:
                acts[name] = t.detach()

        h = self.stem(x)
        skips = [h]
        for i, stage in enumerate(self._enc_stages):
            h = stage.block1(stage.block0(h))
            grab(f"enc{i}", h)
            skips.append(h)

        h = self.bottleneck.reduce(self.bottleneck.ir(h))
        grab("bottleneck", h)

        # skips[-2] pairs with the first decoder stage, skips[0] (stem) with the last
        gate_maps: list[Tensor] = []
        weight_maps: list[np.ndarray] | None = [] if maps else None
        for j, stage in enumerate(self._dec_stages):
            skip = skips[len(skips) - 2 - j]
            x_up = stage.up.deconv(h)
            gate = getattr(stage, "gate", None)
            if gate is not None:
                y, entry = gate(h, x_up, skip, maps=weight_maps)
                gate_maps.append(entry)
            else:
                y = x_up
            h = stage.up.fuse(T.concat([y, skip], axis=1))
            grab(f"dec{j}", h)

        logits = self.head(h)
        grab("head", logits)
        return ForwardResult(logits, gate_maps, acts, weight_maps)

    def activation_names(self) -> list[str]:
        levels = self._config.levels
        return ([f"enc{i}" for i in range(levels)] + ["bottleneck"]
                + [f"dec{j}" for j in range(levels)] + ["head"])

    def mac_sites(self):
        """Yield (layer name, kind, MAC count) for every multiply-bearing site,
        walking the same structure as forward at the configured input size."""
        hw = self._config.input_size
        yield "stem", "conv", self.stem.macs(hw)
        for i, stage in enumerate(self._enc_stages):
            yield f"enc{i}.block0", "irblock", stage.block0.macs(hw)
            mid = stage.block0.out_hw(hw)
            yield f"enc{i}.block1", "irblock", stage.block1.macs(mid)
            hw = stage.block1.out_hw(mid)
        yield "bottleneck.ir", "irblock", self.bottleneck.ir.macs(hw)
        yield "bottleneck.reduce", "pointwise", self.bottleneck.reduce.macs(hw)
        for j, stage in enumerate(self._dec_stages):
            up_hw = stage.up.deconv.out_hw(hw)
            yield f"dec{j}.up.deconv", "conv_transpose", stage.up.deconv.macs(hw)
            gate = getattr(stage, "gate", None)
            if gate is not None:
                yield from gate.mac_sites(f"dec{j}.gate", hw, up_hw)
            yield stage.up.fuse_site(f"dec{j}.up", up_hw)
            hw = up_hw
        yield "head", "conv_transpose", self.head.macs(hw)


def build(config: PAMUNetConfig, seed: int, zero_init_gates: bool = False) -> PAMUNet:
    """Construct and deterministically initialize a model.

    Parameter values are a pure function of (seed, parameter name), so two
    variants sharing backbone layer names share backbone weights bitwise.
    """
    model = PAMUNet(config)
    init_parameters(model, seed, zero_gates=zero_init_gates)
    return model


def binary_mask(probs: np.ndarray, threshold: float) -> np.ndarray:
    """The mask rule: probs >= threshold as 0/1 (ties go to foreground)."""
    return (probs >= threshold).astype(probs.dtype)


def predict_mask(model: PAMUNet, x: Tensor) -> Tensor:
    """Binary mask of one no-grad forward: sigmoid(logits) >= threshold."""
    with T.no_grad():
        probs = T.sigmoid(model.forward(x).logits)
    return Tensor._wrap(binary_mask(probs.data, model.config.threshold), False)
