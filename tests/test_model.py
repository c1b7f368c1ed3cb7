"""Assembled network: shapes, fusion placement, routing plumbing."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (div, feature_summary, graph_census, op_calls, stage_trace,
                      tiny_model_config)
from m3ad.backbone import WindowAttention
from m3ad.config import ModelConfig
from m3ad.heads_losses import (apply_mask, expert_specialization_loss, finetune_loss,
                               pretrain_loss, recon_loss, sample_masks)
from m3ad.model import M3ADNet
from m3ad import numerics as nm
from m3ad.moe import MMoELayer, Routing, expert_mix
from m3ad.numerics import Tensor, no_grad
from m3ad.errors import ShapeError
from m3ad.priors import compute_prior_stats, normalize_priors

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


def _one_task_moe(layer, x, routing, copies=1):
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


# -- the copies split inside the first MMoE layer ---------------------------


def _stacked_grid(model, images, routing, copies, priors=None, masks=None):
    """The encoder pass with every copy stacked from the patch embedding
    on, the oracle of ``encode``, which runs the first block, its MMoE
    layer's norm, gate and experts included, once per scan and splits the
    copies where that layer mixes its experts."""
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
    """Scoring takes each scan once up to where the first MMoE layer mixes
    its experts and equals the pass that stacks both copies from the
    start, bit for bit: every product keeps its rows, only fewer of them
    run."""
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


_SCORING_SCRIPT = """
import sys, threading
src, tests, dest = sys.argv[1:4]
sys.path[:0] = [src, tests]
from m3ad import entry
entry.cap_threads()
import numpy as np
from m3ad.config import ModelConfig
from m3ad.heads_losses import sample_masks
from m3ad.model import M3ADNet
from m3ad.numerics import no_grad
from test_model import _priors, _stacked_dual_logits, _stacked_reconstruct
cfg = ModelConfig(embed_dim=16, depths=(2, 2, 2, 2), num_heads=(2, 4, 8, 16), window=8,
                  expert_hidden_ratio=4, shared_expert_weight=0.15).validate()
model = M3ADNet(cfg, seed=1)
rng = np.random.default_rng(5)
res = {}
with no_grad():
    for batch in (1, 2, 16):
        images = rng.standard_normal((batch, 64, 64)).astype(np.float32)
        priors = _priors(batch, rng)
        labels = np.arange(batch) % 3
        masks = sample_masks(rng, batch, (64, 64), cfg.mask_unit, cfg.mask_ratio)
        weights = np.concatenate([model.label_guided_weights(labels),
                                  model.label_guided_weights(labels, shared_weight=0.0)])
        sink, oracle_sink = [], []
        outs = {"split": (*model.dual_task_logits(images, priors, sink=sink),
                          model.reconstruct(images, weights, masks)),
                "stacked": (*_stacked_dual_logits(model, images, priors, oracle_sink),
                            _stacked_reconstruct(model, images, weights, masks))}
        for name, (diagnosis, change, recon) in outs.items():
            res[f"{batch}/{name}/diagnosis"] = diagnosis.data
            res[f"{batch}/{name}/change"] = change.data
            res[f"{batch}/{name}/recon"] = recon.data
        for name, rows in (("split", sink), ("stacked", oracle_sink)):
            for layer, gate in enumerate(rows):
                res[f"{batch}/{name}/gate{layer}"] = gate
np.savez(dest, workers=threading.active_count() - 1, **res)
"""


def test_calib_scoring_matches_the_stacked_pass_at_one_and_two_threads(tmp_path):
    """The calib model's dual-task logits, gate rows and two-copy
    reconstruction at batch 1, 2 and 16 equal the stacked pass's byte for
    byte at M3AD_THREADS=1 and =2, and the two thread counts agree. At
    batch 16 block 0's experts cross the pool's threshold, so the
    two-thread run spreads them over workers."""
    import m3ad
    from m3ad.entry import _BLAS_VARS
    src = os.path.dirname(os.path.dirname(os.path.abspath(m3ad.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    runs = {}
    for threads in (1, 2):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env["M3AD_THREADS"] = str(threads)
        path = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", _SCORING_SCRIPT, src, tests, str(path)],
                       env=env, check=True, timeout=300)
        runs[threads] = dict(np.load(path))
    assert runs[1].pop("workers") == 0
    assert 1 <= runs[2].pop("workers") <= 2
    assert runs[1].keys() == runs[2].keys()
    for run in runs.values():
        split = {key: arr for key, arr in run.items() if "/split/" in key}
        assert len(split) == 3 * (3 + 8)
        for key, arr in split.items():
            assert arr.tobytes() == run[key.replace("/split/", "/stacked/")].tobytes(), key
    for key, arr in runs[1].items():
        assert arr.tobytes() == runs[2][key].tobytes(), key


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


def _step_losses(model, images, labels, change, masks, priors):
    """(split, stacked) makers of the pretrain loss (label-guided over
    class-only rows) and of the fine-tune loss: the model's pass, and the
    pass that stacks the copies from the patch embedding on."""
    n = len(images)
    weights = np.concatenate([model.label_guided_weights(labels),
                              model.label_guided_weights(labels, shared_weight=0.0)])

    def stacked_pretrain():
        pred = _stacked_reconstruct(model, images, weights, masks)
        return nm.add(recon_loss(pred[:n], images, masks),
                      expert_specialization_loss(pred[n:], images, labels, masks))

    return {"pretrain": (lambda: pretrain_loss(model, images, labels, masks, 1.0)[0],
                         stacked_pretrain),
            "finetune": (lambda: finetune_loss(*model.dual_task_logits(images, priors),
                                               labels, change),
                         lambda: finetune_loss(*_stacked_dual_logits(model, images, priors),
                                               labels, change))}


def test_training_gradients_match_the_stacked_pass(tiny_splits):
    """One pretrain step and one fine-tune step. Block 0's gradients now
    add the copies before its weight products, its MMoE layer's and those
    of everything before it, so they change in summation order only: in
    float64 within 1e-12 of the largest entry of each gradient (measured:
    below 1e-14)."""
    train, _, _ = tiny_splits
    model = M3ADNet(tiny_model_config(dtype="float64"), seed=16)
    images, labels = train.images[:8].astype(np.float64), train.diag[:8]
    masks = sample_masks(np.random.default_rng(2), 8, (32, 32), 8, 0.5)
    stats = compute_prior_stats(train.age, train.etiv)
    priors = normalize_priors(train.age[:8], train.gender[:8], train.etiv[:8], stats,
                              dtype=np.float64)
    losses = _step_losses(model, images, labels, train.change[:8], masks, priors)
    for split, stacked in losses.values():
        loss, oracle = split(), stacked()
        assert loss.item() == oracle.item()
        got, want = _grads(model, loss), _grads(model, oracle)
        for name, grad in want.items():
            if grad is None:
                assert got[name] is None
                continue
            err = np.abs(got[name] - grad).max()
            assert err <= 1e-12 * np.abs(grad).max(), name


# A float32 step is judged against its float64 twin, the same parameters
# cast exactly: per gradient tensor, its worst and its median error as a
# fraction of the twin's largest entry. The split pass's must stay within
# _F32_FACTOR times the stacked pass's plus _F32_FLOOR float32 epsilons. A
# sweep of seeds 0-299 of this set-up needed a floor of 18.8 epsilons at
# factor 3 (14.6 at 4, 124 at 2); every case beyond factor 1.25 was the
# one-element stage-0 tau_raw gradient, a sum that cancels, on which both
# passes err by up to 2.5e-4.
_F32_FACTOR, _F32_FLOOR = 3.0, 24.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_training_gradients_err_no_more_than_the_stacked_pass(seed):
    rng = np.random.default_rng(seed)
    model = M3ADNet(tiny_model_config(), seed=seed)
    twin = M3ADNet(tiny_model_config(dtype="float64"), seed=seed)
    for p, q in zip(model.parameters(), twin.parameters()):
        q.data[...] = p.data
    images = rng.standard_normal((8, 32, 32)).astype(np.float32)
    labels, change = rng.integers(0, 3, 8), rng.integers(0, 3, 8)
    masks = sample_masks(rng, 8, (32, 32), 8, 0.5)
    priors = rng.standard_normal((8, 3)).astype(np.float32)
    losses = _step_losses(model, images, labels, change, masks, priors)
    twin_losses = _step_losses(twin, images.astype(np.float64), labels, change, masks,
                               priors.astype(np.float64))
    floor = _F32_FLOOR * np.finfo(np.float32).eps
    for stage, (split, stacked) in losses.items():
        truth = _grads(twin, twin_losses[stage][1]())
        got, want = _grads(model, split()), _grads(model, stacked())
        for name, grad in truth.items():
            if grad is None:
                assert got[name] is None and want[name] is None
                continue
            scale = np.abs(grad).max()
            err, oracle_err = (np.abs(g - grad) / scale for g in (got[name], want[name]))
            for stat in (np.max, np.median):
                assert stat(err) <= _F32_FACTOR * stat(oracle_err) + floor, (stage, name)


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


# The census of one calib step (embed 16, depths 2/2/2/2, 64x64 scans,
# batch 16): graph nodes per op and the bytes their vjps keep per op,
# counted from the loss by conftest.graph_census, and the op calls of one
# batch-1 scoring pass of the same model, by conftest.op_calls. The shapes
# are fixed, so the numbers are exact. A change that grows or shrinks the
# graph, or what it keeps, updates them and says so. Totals: 145 and 170
# nodes, 61.60 and 102.09 MiB kept (expert_mix 25.38 and 66.63 MiB),
# 168 op calls.
_SHARED_COUNT = {"add": 26, "clamp_min": 4, "conv3x3": 8, "cosine_attention": 4,
                 "dwconv3x3": 4, "expert_mix": 8, "gelu": 12, "reshape": 9, "roll": 10,
                 "softplus": 4}
_SHARED_KEPT = {"add": 0, "conv3x3": 7077888, "cosine_attention": 14778416,
                "dwconv3x3": 3538944, "gelu": 2359296, "reshape": 0, "roll": 0,
                "softplus": 48}
_CALIB_CENSUS = {
    "pretrain": (
        {**_SHARED_COUNT, "concat": 1, "getitem": 2, "layer_norm": 21, "linear": 21,
         "masked_l1": 2, "mul": 3, "transpose": 4, "tsum": 2},
        {**_SHARED_KEPT, "clamp_min": 48, "concat": 24, "expert_mix": 26617216, "getitem": 0,
         "layer_norm": 4226048, "linear": 4653056, "masked_l1": 1048576, "mul": 294920,
         "transpose": 0, "tsum": 0}),
    "finetune": (
        {**_SHARED_COUNT, "_task_gate": 8, "broadcast_to": 1, "clamp_min": 6, "concat": 2,
         "cross_entropy": 2, "getitem": 4, "layer_norm": 25, "linear": 27, "mul": 4,
         "softmax": 1, "tmean": 2, "transpose": 3},
        {**_SHARED_KEPT, "_task_gate": 182304, "broadcast_to": 0, "clamp_min": 49200,
         "concat": 48, "cross_entropy": 512, "expert_mix": 69869568, "getitem": 0,
         "layer_norm": 4308480, "linear": 4751744, "mul": 131344, "softmax": 256, "tmean": 0,
         "transpose": 0}),
    "predict": {"_task_gate": 8, "add": 25, "broadcast_to": 1, "clamp_min": 6, "concat": 2,
                "conv3x3": 8, "cosine_attention": 4, "dwconv3x3": 4, "expert_mix": 8,
                "gelu": 12, "getitem": 4, "layer_norm": 25, "linear": 27, "mul": 2,
                "reshape": 11, "roll": 10, "softmax": 1, "softplus": 4, "tmean": 2,
                "transpose": 4},
}


def _moved(got: dict, want: dict) -> dict:
    """(got, pinned) of each op whose number differs from the pinned one."""
    return {op: (got.get(op), want.get(op)) for op in sorted(got.keys() | want.keys())
            if got.get(op) != want.get(op)}


def test_graph_census_of_a_calib_step():
    cfg = ModelConfig(embed_dim=16, depths=(2, 2, 2, 2), num_heads=(2, 4, 8, 16), window=8,
                      expert_hidden_ratio=4, shared_expert_weight=0.15).validate()
    model = M3ADNet(cfg, seed=1)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((16, 64, 64)).astype(np.float32)
    labels = np.arange(16) % 3
    masks = sample_masks(rng, 16, (64, 64), cfg.mask_unit, cfg.mask_ratio)
    priors = _priors(16, rng)
    census = {"pretrain": graph_census(pretrain_loss(model, images, labels, masks, 0.5)[0]),
              "finetune": graph_census(finetune_loss(*model.dual_task_logits(images, priors),
                                                     labels, labels))}
    with no_grad():
        census["predict"] = op_calls(lambda: model.dual_task_logits(images[:1], priors[:1]))
    moved = {}
    for stage in ("pretrain", "finetune"):
        for kind, got, want in zip(("nodes", "kept bytes"), census[stage], _CALIB_CENSUS[stage]):
            moved[f"{stage} {kind}"] = _moved(got, want)
    moved["predict op calls"] = _moved(census["predict"], _CALIB_CENSUS["predict"])
    assert {where: ops for where, ops in moved.items() if ops} == {}
