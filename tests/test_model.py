"""Model assembly tests: shapes, naming, variants, determinism, gradients."""

import numpy as np
import pytest

from gradcheck import _kink_signature, check_gradients
from pamunet import attention as A
from pamunet import tensor as T
from pamunet.flops import count_flops
from pamunet.model import PAMUNet, PAMUNetConfig, build, predict_mask
from pamunet.tensor import ShapeError, Tensor

TINY = dict(levels=2, base_channels=4, input_size=(16, 16), in_channels=1)


def tiny_config(**kw):
    return PAMUNetConfig(**{**TINY, **kw})


def test_default_config_builds_and_produces_full_res_logits():
    model = build(PAMUNetConfig(), seed=0)
    x = Tensor(np.random.default_rng(0).random((1, 1, 128, 128)).astype(np.float32))
    with T.no_grad():
        out = model.forward(x)
    assert out.logits.shape == (1, 1, 128, 128)
    assert len(out.gate_maps) == 3  # gates on encoder-residual skips only


def test_indivisible_input_size_rejected():
    with pytest.raises(ValueError, match="divisible"):
        PAMUNetConfig(levels=4, input_size=(120, 120))


def test_same_seed_same_parameters():
    a = build(tiny_config(), seed=9)
    b = build(tiny_config(), seed=9)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_zero_input_zero_head_gives_bias_logits():
    model = build(tiny_config(), seed=1)
    model.head.kernel.data[...] = 0.0
    model.head.bias.data[...] = 0.37
    with T.no_grad():
        out = model.forward(Tensor(np.zeros((2, 1, 16, 16))))
    np.testing.assert_allclose(out.logits.data, 0.37, atol=1e-6)


def _array_sink(blocks: dict):
    """A forward's weight sink that keeps a copy of each block of gate j in
    ``blocks[j]``; ``np.concatenate(blocks[j], axis=1)`` is gate j's map."""
    def sink(j, rows, w):
        blocks.setdefault(j, []).append(w.copy())
    return sink


def test_variant_none_has_no_gate_maps():
    model = build(tiny_config(attention_variant="none"), seed=2)
    blocks = {}
    with T.no_grad():
        out = model.forward(Tensor(np.zeros((1, 1, 16, 16))), sink=_array_sink(blocks))
    assert out.gate_maps == [] and blocks == {}


def test_weight_maps_only_on_request():
    model = build(PAMUNetConfig(levels=3, base_channels=4, input_size=(32, 32)), seed=2)
    x = Tensor(np.random.default_rng(2).random((2, 1, 32, 32)))
    blocks = {}
    with T.no_grad():
        plain = model.forward(x)
        out = model.forward(x, sink=_array_sink(blocks))
    assert out.logits.data.tobytes() == plain.logits.data.tobytes()
    maps = [np.concatenate(blocks[j], axis=1) for j in sorted(blocks)]
    assert sorted(blocks) == [0, 1] and [m.shape for m in maps] == [(2, 64, 64), (2, 256, 256)]
    for weights, entry in zip(maps, out.gate_maps):
        np.testing.assert_array_equal(weights, entry.data)


@pytest.mark.parametrize("levels,size", [(2, 16), (3, 32)])
def test_capture_yields_two_levels_plus_two_activations(levels, size):
    cfg = PAMUNetConfig(levels=levels, base_channels=4, input_size=(size, size))
    model = build(cfg, seed=3)
    with T.no_grad():
        out = model.forward(Tensor(np.random.default_rng(3).random((2, 1, size, size))))
    names = ([f"enc{i}" for i in range(levels)] + ["bottleneck"]
             + [f"dec{j}" for j in range(levels)] + ["head"])
    assert list(out.activations) == names  # the stage-output keys of model.py's naming contract
    assert len(out.activations) == 2 * levels + 2


def test_mirror_symmetry_of_spatial_sizes():
    cfg = PAMUNetConfig(levels=3, base_channels=4, input_size=(32, 32))
    model = build(cfg, seed=4)
    with T.no_grad():
        out = model.forward(Tensor(np.zeros((1, 1, 32, 32))))
    for j in range(cfg.levels):
        # decoder stage j restores the input resolution of encoder stage levels-1-j
        enc_input_size = 32 // 2 ** (cfg.levels - 1 - j)
        assert out.activations[f"dec{j}"].shape[2:] == (enc_input_size, enc_input_size)
    for i in range(cfg.levels):
        assert out.activations[f"enc{i}"].shape[2:] == (32 // 2 ** (i + 1),) * 2


@pytest.mark.parametrize("variant", ["self", "cross", "additive", "pla"])
def test_variant_lattice_and_shared_backbone(variant):
    plain = build(tiny_config(attention_variant="none"), seed=5)
    gated = build(tiny_config(attention_variant=variant), seed=5)
    plain_names = set(dict(plain.named_parameters()))
    gated_names = set(dict(gated.named_parameters()))
    assert plain.parameter_count() < gated.parameter_count()
    assert plain_names < gated_names
    extra = gated_names - plain_names
    assert extra and all("gate" in n.split(".") for n in extra)
    gated_params = dict(gated.named_parameters())
    for name, p in plain.named_parameters():
        np.testing.assert_array_equal(p.data, gated_params[name].data)


def test_predict_mask_threshold_and_tie_rule():
    model = build(tiny_config(), seed=6)
    model.head.kernel.data[...] = 0.0
    model.head.bias.data[...] = 50.0
    x = Tensor(np.random.default_rng(6).random((1, 1, 16, 16)))
    np.testing.assert_array_equal(predict_mask(model, x).data, 1.0)
    model.head.bias.data[...] = 0.0  # sigmoid = 0.5 exactly -> foreground
    np.testing.assert_array_equal(predict_mask(model, x).data, 1.0)
    model.head.bias.data[...] = -50.0
    np.testing.assert_array_equal(predict_mask(model, x).data, 0.0)


def test_predict_mask_matches_indicator_oracle():
    model = build(tiny_config(), seed=7)
    x = Tensor(np.random.default_rng(7).random((2, 1, 16, 16)))
    mask = predict_mask(model, x)
    with T.no_grad():
        logits = model.forward(x).logits
    probs = 1.0 / (1.0 + np.exp(-logits.data))
    ref = np.where(probs >= model.config.threshold, 1.0, 0.0)
    np.testing.assert_array_equal(mask.data, ref)
    assert set(np.unique(mask.data)) <= {0.0, 1.0}


def test_forward_rejects_wrong_shape():
    model = build(tiny_config(), seed=8)
    with pytest.raises(ShapeError, match="input shape"):
        model.forward(Tensor(np.zeros((1, 1, 8, 8))))


def test_config_roundtrips_through_dict():
    cfg = tiny_config(attention_variant="cross")
    again = PAMUNetConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_loads_legacy_lambda_reg_key():
    # checkpoints written while lambda_reg was a model field carry the key
    legacy = {**tiny_config().to_dict(), "lambda_reg": 0.05}
    assert PAMUNetConfig.from_dict(legacy) == tiny_config()


@pytest.mark.parametrize("kw,match", [
    (dict(base_channels=0), "channel_schedule"),
    (dict(channel_schedule=[4, 0]), "channel_schedule"),
    (dict(expansion_factor=0), "expansion_factor"),
    (dict(threshold=0.0), "threshold"),
    (dict(threshold=1.0), "threshold"),
    (dict(threshold=1.5), "threshold"),
    (dict(input_size=(0, 0)), "input size"),
    (dict(input_size=(16, 0)), "input size"),
    (dict(input_size=(-16, -16)), "input size"),
])
def test_config_rejects_out_of_range_fields(kw, match):
    with pytest.raises(ValueError, match=match):
        tiny_config(**kw)


def test_mac_sites_walk_the_whole_model():
    model = build(tiny_config(attention_variant="pla"), seed=10)
    sites = list(model.mac_sites())
    names = [n for n, _, _ in sites]
    assert names[0] == "stem" and names[-1] == "head"
    assert any(n.endswith("gate.scores") for n in names)
    assert all(m > 0 for _, _, m in sites)


def _op_macs(monkeypatch):
    """Count MACs at the ops, as the benchmark's self-test does: every output
    element of a conv costs one kernel slice, every input pixel of a
    transposed conv one kernel slice, a matmul output element one row, and the
    attention kernel one score row per (query, key) pair plus one weights @ V
    row per output element."""
    counted = []

    def wrap(owner, name, rule):
        orig = getattr(owner, name)

        def counting(*args, **kwargs):
            out = orig(*args, **kwargs)
            counted.append(rule(args, out))
            return out

        monkeypatch.setattr(owner, name, counting)

    for name in ("conv2d", "depthwise_conv2d", "pointwise_conv2d"):
        wrap(T, name, lambda a, out: out.data.size * int(np.prod(a[1].shape[1:])))
    wrap(T, "conv_transpose2d", lambda a, out: a[0].data.size * int(np.prod(a[1].shape[1:])))
    wrap(T, "matmul", lambda a, out: out.data.size * a[0].shape[-1])
    wrap(A, "scaled_dot_attention_streaming",
         lambda a, out: int(np.prod(a[0].shape)) * a[1].shape[1] + out[0].data.size * a[1].shape[1])
    return counted


@pytest.mark.parametrize("decoder_kind", ["vanilla", "mobile"])
@pytest.mark.parametrize("variant", ["none", "self", "cross", "additive", "pla"])
def test_flops_rows_match_op_macs(variant, decoder_kind, monkeypatch):
    model = build(tiny_config(attention_variant=variant, decoder_kind=decoder_kind), seed=14)
    counted = _op_macs(monkeypatch)
    with T.no_grad():
        model.forward(Tensor(np.zeros((1, 1, 16, 16))))
    assert counted
    assert count_flops(model).total_macs == sum(counted)


def test_model_seed_changes_parameters():
    a = build(tiny_config(), seed=11)
    b = build(tiny_config(), seed=12)
    pa = dict(a.named_parameters())
    pb = dict(b.named_parameters())
    assert any(not np.array_equal(pa[n].data, pb[n].data) for n in pa if n.endswith("kernel"))


def test_end_to_end_gradients_spot_check():
    # Full every-parameter FD sweep lives in the acceptance suite; here a
    # fast spot check wires the whole graph at f64.
    with T.using_dtype(np.float64):
        model = build(tiny_config(attention_variant="pla"), seed=13)
        for name, p in model.named_parameters():
            if name.endswith("gain"):
                p.data[...] = 0.8  # open the gates so the attention path carries gradient
        rng = np.random.default_rng(13)
        x = Tensor(rng.random((1, 1, 16, 16)))

        def f():
            out = model.forward(x)
            loss = T.mean(T.mul(out.logits, out.logits))
            for m in out.gate_maps:
                loss = T.add(loss, T.mul(T.variance(m), 0.01))
            return loss

        probes = [model.stem.kernel, model.head.bias,
                  dict(model.named_parameters())["dec0.gate.kv.kernel"]]
        check_gradients(f, probes, tol=1e-3)


@pytest.mark.parametrize("kw,sites", [(dict(levels=2, base_channels=4, input_size=(16, 16)), 18),
                                      ({}, 34)], ids=["gradcheck", "paper-default"])
def test_kink_spy_sees_every_relu6_site(kw, sites):
    # the gradcheck config and the paper default: stem, two per IR block
    # (PLA gates' refine blocks included) and the bottleneck reduce
    model = build(PAMUNetConfig(**kw), seed=8)
    x = Tensor(np.random.default_rng(8).random((1, 1) + model.config.input_size))
    collector = []
    with T.no_grad(), _kink_signature(collector):
        model.forward(x)
    assert len(collector) == sites
