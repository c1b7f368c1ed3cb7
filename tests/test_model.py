"""Assembled network: shapes, fusion placement, routing plumbing."""

import tracemalloc

import numpy as np
import pytest

from conftest import div, engine_ops, feature_summary, stage_trace, tiny_model_config
from m3ad.backbone import WindowAttention
from m3ad.config import ModelConfig
from m3ad.heads_losses import apply_mask, finetune_loss, pretrain_loss, sample_masks
from m3ad.model import M3ADNet
from m3ad import moe
from m3ad import numerics as nm
from m3ad.moe import MMoELayer, Routing, expert_mix
from m3ad.numerics import Tensor, no_grad
from m3ad.errors import ShapeError
from m3ad.priors import compute_prior_stats, normalize_priors
from test_backbone import _op_nodes

_ROUTE = Routing()  # a diagnosis copy stacked on a change copy


def _priors(n, rng):
    age = rng.uniform(55, 85, n)
    gender = rng.integers(0, 2, n)
    etiv = rng.uniform(1200, 1700, n)
    stats = compute_prior_stats(np.array([60.0, 70.0, 80.0]),
                                np.array([1300.0, 1450.0, 1600.0]))
    return normalize_priors(age, gender, etiv, stats, dtype=np.float32)


def test_encode_shapes_and_trace(rng):
    cfg = tiny_model_config()
    model = M3ADNet(cfg, seed=1)
    for size in (32, 64):
        images = rng.standard_normal((2, size, size))
        out = model.encode(images, _ROUTE)
        assert out.shape == (2 * 2, size // 32, size // 32, cfg.stage_dim(3))
        trace = stage_trace(model, images, _ROUTE)
        assert [t[0] for t in trace] == [0, 1, 2, 3]
        for stage, hw, channels in trace:
            assert hw == (size // (4 << stage),) * 2
            assert channels == cfg.stage_dim(stage)


def test_encode_rectangular_input(rng):
    model = M3ADNet(tiny_model_config(), seed=1)
    out = model.encode(rng.standard_normal((1, 32, 64)), _ROUTE)
    assert out.shape == (2, 1, 2, 64)


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


class _OneTask:
    """Routing of a single-task pass: one copy of the batch, every row
    routed by ``task``'s gate in :func:`_one_task_moe`."""

    def __init__(self, task):
        self.task = task

    def copies(self, batch):
        return 1


def _one_task_moe(layer, x, routing):
    gate = getattr(layer, "gate_" + routing.task)
    w = nm.softmax(div(gate(feature_summary(layer, x)), layer.gate_temp), axis=-1)
    return expert_mix(x, w, layer.experts)


def _single_task_logits(model, images, priors, task):
    """The pass the stacked one replaces: all rows routed by one task's
    gates and read by its head, built here from the model's parts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MMoELayer, "__call__", _one_task_moe)
        grid = model.encode(images, _OneTask(task), priors=priors)
    b, h, w, c = grid.shape
    pooled = model.heads.norm(nm.reshape(grid, (b, h * w, c)).mean(axis=1))
    return getattr(model.heads, task)(pooled).data


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


# -- the copies split after the first mixer --------------------------------


def _stacked_grid(model, images, routing, copies, priors=None, masks=None):
    """The encoder pass with every copy stacked from the patch embedding
    on, the oracle of ``encode``, which splits the copies after the first
    block's mixer."""
    x = model.patch_embed(Tensor(np.concatenate([images] * copies).astype(model.np_dtype)))
    if masks is not None:
        x = apply_mask(x, np.concatenate([masks] * copies), model.mask_token)
    clinical = None
    if priors is not None:
        clinical = model.prior_encoder(Tensor(np.concatenate([priors] * copies)))
    blocks = iter(model.blocks)
    for stage, depth in enumerate(model.cfg.depths):
        for _ in range(depth):
            x = next(blocks)(x, routing)
        if stage < 3:
            x = model.merges[stage](x)
        if stage == model.cfg.fusion_stage and clinical is not None:
            b, h, w, c = x.shape
            x = nm.reshape(model.fusion(nm.reshape(x, (b, h * w, c)), clinical), (b, h, w, c))
    return x


def _stacked_dual_logits(model, images, priors, sink=None):
    grid = _stacked_grid(model, images, Routing(sink=sink), 2, priors=priors)
    b, h, w, c = grid.shape
    return model.heads(nm.reshape(grid, (b, h * w, c)))


def _stacked_reconstruct(model, images, weights, masks):
    copies = len(weights) // len(images)
    return model.decoder(_stacked_grid(model, images, Routing(weights=weights), copies,
                                       masks=masks))


@pytest.mark.parametrize("batch", [1, 2, 16])
def test_dual_pass_runs_first_mixer_once_bit_exactly(rng, batch):
    """Scoring takes each scan once up to the first MMoE layer and equals
    the pass that stacks both copies from the start, bit for bit: every
    product keeps its rows, only fewer of them run."""
    model = M3ADNet(tiny_model_config(depths=(2, 1, 1, 1)), seed=14)
    images = rng.standard_normal((batch, 32, 32)).astype(np.float32)
    priors = _priors(batch, rng)
    sink, oracle_sink = [], []
    with no_grad():
        got = model.dual_task_logits(images, priors, sink=sink)
        want = _stacked_dual_logits(model, images, priors, oracle_sink)
    for a, b in zip(got, want):
        assert np.array_equal(a.data, b.data)
    assert len(sink) == len(oracle_sink) == len(model.blocks)
    for a, b in zip(sink, oracle_sink):
        assert a.shape == (2 * batch, model.cfg.num_experts) and np.array_equal(a, b)


def test_pretrain_forward_and_masked_l1_eval_are_bit_exact(tiny_splits):
    """The pretrain loss's forward pass (label-guided over class-only
    rows) and validation's masked L1 equal the stacked pass bit for bit."""
    from m3ad.heads_losses import masked_l1_per_sample
    from m3ad.train import _masked_l1_eval
    _, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=15)
    masks = sample_masks(np.random.default_rng(1), len(val), (32, 32), 8, 0.5)
    weights = np.concatenate([model.label_guided_weights(val.diag),
                              model.label_guided_weights(val.diag, shared_weight=0.0)])
    with no_grad():
        got = model.reconstruct(val.images, weights, masks).data
        want = _stacked_reconstruct(model, val.images, weights, masks).data
        assert got.shape == (2 * len(val), 32, 32) and np.array_equal(got, want)
        values = _masked_l1_eval(model, val, masks, weights[:len(val)], batch_size=len(val))
        oracle = _stacked_reconstruct(model, val.images, weights[:len(val)], masks).data
    assert np.array_equal(values, masked_l1_per_sample(oracle, val.images, masks))


def _grads(model, loss):
    model.zero_grad()
    loss.backward()
    return {name: p.grad for name, p in model.named_parameters().items()}


def test_training_gradients_match_the_stacked_pass(tiny_splits):
    """One pretrain step and one fine-tune step. The first block's
    gradients now add the copies before its weight products, so they
    change in summation order only: in float64 within 1e-12 of the
    largest entry of each gradient (measured: below 1e-14)."""
    from m3ad.heads_losses import (expert_specialization_loss, finetune_loss, pretrain_loss,
                                   recon_loss)
    train, _, _ = tiny_splits
    model = M3ADNet(tiny_model_config(dtype="float64"), seed=16)
    images, labels = train.images[:8].astype(np.float64), train.diag[:8]
    masks = sample_masks(np.random.default_rng(2), 8, (32, 32), 8, 0.5)
    stats = compute_prior_stats(train.age, train.etiv)
    priors = normalize_priors(train.age[:8], train.gender[:8], train.etiv[:8], stats,
                              dtype=np.float64)
    weights = np.concatenate([model.label_guided_weights(labels),
                              model.label_guided_weights(labels, shared_weight=0.0)])
    pred = _stacked_reconstruct(model, images, weights, masks)
    stacked = nm.add(recon_loss(pred[:8], images, masks),
                     expert_specialization_loss(pred[8:], images, labels, masks))
    pairs = [(pretrain_loss(model, images, labels, masks, 1.0)[0], stacked)]
    diag, change = train.diag[:8], train.change[:8]
    pairs.append((finetune_loss(*model.dual_task_logits(images, priors), diag, change),
                  finetune_loss(*_stacked_dual_logits(model, images, priors), diag, change)))
    for loss, oracle in pairs:
        assert loss.item() == oracle.item()
        got, want = _grads(model, loss), _grads(model, oracle)
        for name, grad in want.items():
            if grad is None:
                assert got[name] is None
                continue
            err = np.abs(got[name] - grad).max()
            assert err <= 1e-12 * np.abs(grad).max(), name


def test_recorded_pretrain_forward_keeps_only_what_its_backward_reads():
    """What a recorded tiny-model pretrain forward (8 scans) leaves alive
    until its backward, in units of the batch's image bytes. Measured:
    105 while graph nodes held their parents' Tensors, and so every op
    output (Linear's pre-bias product, the operands of add, the input of
    each sum, attention's qkv buffer); 54 since a node holds only its
    vjp and its parents' nodes. The bound sits between the two."""
    from m3ad.heads_losses import pretrain_loss
    rng = np.random.default_rng(4)
    model = M3ADNet(tiny_model_config(), seed=19)
    images = rng.standard_normal((8, 32, 32)).astype(np.float32)
    masks = sample_masks(rng, 8, (32, 32), 8, 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total, _, _ = pretrain_loss(model, images, np.arange(8) % 3, masks, 1.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 75 * images.nbytes
    total.backward()


def test_pretrain_without_specialization_runs_one_copy(monkeypatch):
    """At lambda_expert 0 the pass holds the label-guided rows alone, and
    its reconstruction term equals the one of the two-copy pass."""
    from m3ad.heads_losses import ReconDecoder, pretrain_loss
    rng = np.random.default_rng(3)
    model = M3ADNet(tiny_model_config(), seed=17)
    images = rng.standard_normal((4, 32, 32)).astype(np.float32)
    labels = np.array([0, 1, 2, 1])
    masks = sample_masks(rng, 4, (32, 32), 8, 0.5)
    rows = []
    call = ReconDecoder.__call__
    monkeypatch.setattr(ReconDecoder, "__call__",
                        lambda self, grid: rows.append(grid.shape[0]) or call(self, grid))
    total, recon, expert = pretrain_loss(model, images, labels, masks, 0.0)
    _, recon_both, expert_both = pretrain_loss(model, images, labels, masks, 1.0)
    assert rows == [4, 8]
    assert total is recon and expert.item() == 0.0 and expert_both.item() > 0.0
    assert recon.item() == recon_both.item()


# Graph nodes of one calib step (embed 16, depths 2/2/2/2, 64x64 scans,
# batch 16), counted from the loss, and op calls of one batch-1 scoring
# pass of the same model, expert_mix and the task gate (gate_weights)
# included in both. A change that grows or shrinks the graph updates
# these numbers and says so.
_CALIB_CENSUS = {"pretrain": 145, "finetune": 170, "predict_ops": 168}


def test_graph_census_of_a_calib_step(monkeypatch):
    cfg = ModelConfig(embed_dim=16, depths=(2, 2, 2, 2), num_heads=(2, 4, 8, 16), window=8,
                      expert_hidden_ratio=4, shared_expert_weight=0.15).validate()
    model = M3ADNet(cfg, seed=1)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((16, 64, 64)).astype(np.float32)
    labels = np.arange(16) % 3
    masks = sample_masks(rng, 16, (64, 64), cfg.mask_unit, cfg.mask_ratio)
    priors = _priors(16, rng)
    census = {"pretrain": len(_op_nodes(pretrain_loss(model, images, labels, masks, 0.5)[0])),
              "finetune": len(_op_nodes(finetune_loss(*model.dual_task_logits(images, priors),
                                                      labels, labels)))}
    calls = []
    for module, name, op in [(nm, name, op) for name, op in engine_ops().items()] + [
            (moe, "expert_mix", expert_mix),
            (MMoELayer, "gate_weights", MMoELayer.gate_weights)]:
        monkeypatch.setattr(module, name, lambda *a, op=op, **k: calls.append(op) or op(*a, **k))
    with no_grad():
        model.dual_task_logits(images[:1], priors[:1])
    census["predict_ops"] = len(calls)
    assert census == _CALIB_CENSUS
