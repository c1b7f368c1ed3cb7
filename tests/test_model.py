"""Assembled network: shapes, fusion placement, routing plumbing."""

import numpy as np
import pytest

from conftest import stage_trace, tiny_model_config
from m3ad.backbone import WindowAttention
from m3ad.heads_losses import sample_masks
from m3ad.model import M3ADNet
from m3ad import numerics as nm
from m3ad.moe import task_routing
from m3ad.numerics import Tensor, no_grad
from m3ad.errors import ShapeError
from m3ad.priors import compute_prior_stats, normalize_priors

_ROUTE = task_routing("diagnosis")


def _priors(n, rng):
    age = rng.uniform(55, 85, n)
    gender = rng.integers(0, 2, n)
    etiv = rng.uniform(1200, 1700, n)
    stats = compute_prior_stats(np.array([60.0, 70.0, 80.0]),
                                np.array([1300.0, 1450.0, 1600.0]))
    return normalize_priors(age, gender, etiv, stats)


def test_encode_shapes_and_trace(rng):
    cfg = tiny_model_config()
    model = M3ADNet(cfg, seed=1)
    for size in (32, 64):
        images = rng.standard_normal((2, size, size))
        out = model.encode(images, _ROUTE)
        assert out.shape == (2, size // 32, size // 32, cfg.stage_dim(3))
        trace = stage_trace(model, images, _ROUTE)
        assert [t[0] for t in trace] == [0, 1, 2, 3]
        for stage, hw, channels in trace:
            assert hw == (size // (4 << stage),) * 2
            assert channels == cfg.stage_dim(stage)


def test_encode_rectangular_input(rng):
    model = M3ADNet(tiny_model_config(), seed=1)
    out = model.encode(rng.standard_normal((1, 32, 64)), _ROUTE)
    assert out.shape == (1, 1, 2, 64)


def test_encode_rejects_bad_shapes(rng):
    model = M3ADNet(tiny_model_config(), seed=1)
    with pytest.raises(ShapeError):
        model.encode(rng.standard_normal((32, 32)), _ROUTE)
    with pytest.raises(ShapeError):
        model.encode(rng.standard_normal((1, 48, 48)), _ROUTE)


def test_masking_changes_encoding(rng):
    model = M3ADNet(tiny_model_config(), seed=2)
    images = rng.standard_normal((2, 32, 32))
    masks = sample_masks(rng, 1, (32, 32), 8, 0.5).repeat(2, axis=0)
    plain = model.encode(images, _ROUTE)
    masked = model.encode(images, _ROUTE, masks=masks)
    assert np.abs(plain.data - masked.data).max() > 1e-6


def test_fusion_requires_priors(rng):
    model = M3ADNet(tiny_model_config(), seed=3)
    images = rng.standard_normal((2, 32, 32))
    base = model.encode(images, _ROUTE)
    fused = model.encode(images, _ROUTE, priors=_priors(2, rng))
    assert np.abs(base.data - fused.data).max() > 1e-6


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_fusion_stage_placement(rng, stage):
    # priors must reach the output through every placement, including the
    # final stage where fusion runs after the last blocks
    cfg = tiny_model_config(fusion_stage=stage)
    model = M3ADNet(cfg, seed=4)
    images = rng.standard_normal((2, 32, 32))
    p1 = _priors(2, rng)
    p2 = p1 + 0.5
    out1 = model.encode(images, _ROUTE, priors=p1)
    out2 = model.encode(images, _ROUTE, priors=p2)
    assert np.abs(out1.data - out2.data).max() > 1e-8


def test_task_logits_arities(rng):
    model = M3ADNet(tiny_model_config(), seed=5)
    images = rng.standard_normal((3, 32, 32))
    priors = _priors(3, rng)
    diag, change = model.dual_task_logits(images, priors)
    assert diag.shape == (3, 3)
    assert change.shape == (3, 3)
    model9 = M3ADNet(tiny_model_config(num_change_classes=7), seed=5)
    _, change9 = model9.dual_task_logits(images, priors)
    assert change9.shape == (3, 7)


def test_task_passes_differ(rng):
    model = M3ADNet(tiny_model_config(), seed=6)
    images = rng.standard_normal((2, 32, 32))
    priors = _priors(2, rng)
    diag, change = model.dual_task_logits(images, priors)
    # same arity, different gates and heads
    assert np.abs(diag.data - change.data).max() > 1e-6


def _single_task_logits(model, images, priors, task):
    """The pass the stacked one replaces: all rows routed by one task."""
    grid = model.encode(images, task_routing(task), priors=priors)
    b, h, w, c = grid.shape
    return model.heads(nm.reshape(grid, (b, h * w, c)), task)[0].data


def test_dual_pass_matches_single_task_passes(rng):
    """At batch 16 every matrix product keeps its row count per block, so
    the logits are bit-identical. At batch 1 the stacked pass multiplies
    2 rows where a single pass multiplies 1, BLAS picks another kernel,
    and float32 logits of unit scale move by up to about 2e-7."""
    model = M3ADNet(tiny_model_config(), seed=6)
    with no_grad():
        for batch, atol in ((16, 0.0), (1, 1e-6), (1, 1e-6)):
            images = rng.standard_normal((batch, 32, 32)).astype(np.float32)
            priors = _priors(batch, rng).astype(np.float32)
            for task, out in zip(("diagnosis", "change"), model.dual_task_logits(images, priors)):
                np.testing.assert_allclose(out.data, _single_task_logits(model, images, priors, task),
                                           rtol=0, atol=atol)


def test_reconstruction_shapes(rng):
    model = M3ADNet(tiny_model_config(), seed=7)
    images = rng.standard_normal((2, 32, 32))
    masks = sample_masks(rng, 2, (32, 32), 8, 0.5)
    labels = np.array([0, 2])
    recon = model.reconstruct(images, model.label_guided_weights(labels), masks)
    assert recon.shape == (2, 32, 32)
    recon_k = model.reconstruct(images, model.label_guided_weights([1, 1], shared_weight=0.0),
                                masks)
    assert recon_k.shape == (2, 32, 32)
    assert np.abs(recon.data - recon_k.data).max() > 0


def test_parameter_name_views():
    """Checkpoints and the optimizer key parameters by these names."""
    cfg = tiny_model_config()
    model = M3ADNet(cfg, seed=8)
    all_names = list(model.named_parameters())
    gates = [name for name in all_names if ".moe.feature_attn." in name or ".moe.gate_" in name]
    num_blocks = sum(cfg.depths)
    # per block: feature_attn weight+bias, two bias-free task gates
    assert len(gates) == 4 * num_blocks
    expert_of = [int(name.split(".moe.experts.")[1].split(".")[0])
                 for name in all_names if ".moe.experts." in name]
    # two linear layers, weight+bias each, per block, for each expert and no other
    assert sorted(set(expert_of)) == list(range(cfg.num_experts))
    for expert in range(cfg.num_experts):
        assert expert_of.count(expert) == 4 * num_blocks
    assert "mask_token" in all_names


def test_attention_temperatures():
    """Every attention block has one tau per head, above the 0.01 floor."""
    cfg = tiny_model_config()
    model = M3ADNet(cfg, seed=9)
    taus = [blk.mixer._temperature().data for blk in model.blocks
            if isinstance(blk.mixer, WindowAttention)]
    assert len(taus) == cfg.depths[0] + cfg.depths[1]
    stage_of = [0] * cfg.depths[0] + [1] * cfg.depths[1]
    for stage_idx, tau in zip(stage_of, taus):
        assert tau.shape == (cfg.num_heads[stage_idx],)
        assert np.all(tau > 0.01)


def test_construction_deterministic(rng):
    a = M3ADNet(tiny_model_config(), seed=11)
    b = M3ADNet(tiny_model_config(), seed=11)
    names = dict(a.named_parameters())
    for name, p in b.named_parameters().items():
        assert (names[name].data == p.data).all()
    images = rng.standard_normal((1, 32, 32))
    assert (a.encode(images, _ROUTE).data == b.encode(images, _ROUTE).data).all()
    c = M3ADNet(tiny_model_config(), seed=12)
    assert (dict(c.named_parameters())["patch_embed.proj.weight"].data
            != names["patch_embed.proj.weight"].data).any()


def test_tensor_input_passthrough(rng):
    model = M3ADNet(tiny_model_config(dtype="float64"), seed=13)
    images = Tensor(rng.standard_normal((1, 32, 32)))
    out = model.encode(images, _ROUTE)
    assert out.data.dtype == np.float64
