"""Mixture-of-experts routing: weight tables, gates, gradient sparsity,
and the fused gate and expert ops against the graphs they replace."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import m3ad
from conftest import div, feature_summary, gate_chain
from m3ad import numerics as nm
from m3ad.entry import _BLAS_VARS
from m3ad.errors import ContractError, ShapeError
from m3ad.moe import MMoELayer, Routing, expert_groups, expert_mix, label_guided_weights
from m3ad.numerics import Tensor


def test_expert_groups_partition():
    assert expert_groups(8, 2) == ((2, 3), (4, 5), (6, 7))
    assert expert_groups(11, 2) == ((2, 3, 4), (5, 6, 7), (8, 9, 10))
    assert expert_groups(5, 2) == ((2,), (3,), (4,))


def test_label_guided_weight_table():
    w = label_guided_weights(np.array([0, 1, 2]), 8, 2, 0.3, np.float64)
    expected = np.array([
        [0.15, 0.15, 0.35, 0.35, 0.0, 0.0, 0.0, 0.0],
        [0.15, 0.15, 0.0, 0.0, 0.35, 0.35, 0.0, 0.0],
        [0.15, 0.15, 0.0, 0.0, 0.0, 0.0, 0.35, 0.35],
    ])
    np.testing.assert_allclose(w, expected, atol=1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_label_guided_weights_contracts():
    with pytest.raises(ContractError):
        label_guided_weights(np.array([3]), 8, 2, 0.3, np.float64)
    with pytest.raises(ShapeError):
        label_guided_weights(np.array([[0]]), 8, 2, 0.3, np.float64)


def test_class_only_weight_table():
    """Label-guided rows at shared weight 0 route each sample through its
    class's experts alone."""
    np.testing.assert_array_equal(
        label_guided_weights(np.array([1, 0]), 8, 2, 0.0, np.float64),
        [[0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
         [0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(
        label_guided_weights(np.array([0]), 5, 2, 0.0, np.float64),
        [[0.0, 0.0, 1.0, 0.0, 0.0]])


def test_routing_constructors():
    r = Routing()
    assert r.kind == "task" and r.copies(3) == 2
    f = Routing(weights=np.ones((6, 8)) / 8)
    assert f.kind == "fixed" and f.copies(3) == 2
    with pytest.raises(AttributeError):  # read-only: the weights decide it
        f.kind = "task"
    with pytest.raises(ShapeError):
        f.copies(4)


def _layer(seed=5, dim=8):
    return MMoELayer(np.random.default_rng(seed), dim, 8, 2, 1.0, np.float64)


def test_gate_weights_on_simplex(rng):
    layer = _layer()
    for _ in range(100):
        x = Tensor(rng.standard_normal((6, 6, 8)) * 3.0)
        w = layer.gate_weights(x).data
        assert w.shape == (6, 8) and (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)


def test_gate_temperature_scales_logits(rng):
    hot = MMoELayer(np.random.default_rng(5), 8, 8, 2, 2.0, np.float64)
    ref = _layer(5)
    x = Tensor(rng.standard_normal((4, 4, 8)))
    w_hot = hot.gate_weights(x).data
    fla = feature_summary(ref, x)
    logits = np.concatenate([ref.gate_diagnosis(fla[:2]).data, ref.gate_change(fla[2:]).data])
    manual = np.exp(logits / 2.0)
    manual /= manual.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(w_hot, manual, atol=1e-10)


_HALVES = (slice(0, 2), slice(2, 4))  # diagnosis rows, change rows of a 4-row pass


def test_task_gates_are_independent(rng):
    """A change to one task's gate moves its own half of the rows and
    leaves the other half bit-unchanged."""
    x = Tensor(rng.standard_normal((4, 4, 8)))
    for gate, own in (("gate_diagnosis", 0), ("gate_change", 1)):
        layer = _layer()
        before = layer(x, Routing()).data.copy()
        # one expert's column: a shift of every logit would cancel in the softmax
        getattr(layer, gate).weight.data[:, 3] += 0.5
        after = layer(x, Routing()).data
        other = _HALVES[1 - own]
        np.testing.assert_array_equal(after[other], before[other])
        assert np.abs(after[_HALVES[own]] - before[_HALVES[own]]).max() > 1e-9


def test_shared_feature_attention_affects_both_tasks(rng):
    layer = _layer()
    x = Tensor(rng.standard_normal((4, 4, 8)))
    before = layer(x, Routing()).data.copy()
    layer.feature_attn.weight.data += 0.5
    after = layer(x, Routing()).data
    for half in _HALVES:
        assert np.abs(after[half] - before[half]).max() > 1e-9


def test_task_routing_records_to_sink(rng):
    layer = _layer()
    sink = []
    layer(Tensor(rng.standard_normal((6, 4, 8))), Routing(sink=sink))
    assert len(sink) == 1 and sink[0].shape == (6, 8)
    np.testing.assert_allclose(sink[0].sum(axis=1), 1.0, atol=1e-6)


def _single_task_pass(layer, x, gate):
    """One task's pass over ``x`` built from nm ops: that task's gate
    over the feature summary, then the gate-weighted sum of the experts."""
    w = nm.softmax(div(gate(feature_summary(layer, x)), layer.gate_temp), axis=-1)
    out = None
    for e, expert in enumerate(layer.experts):
        term = nm.mul(_reference_expert(expert, x), nm.reshape(w[:, e], (x.shape[0], 1, 1)))
        out = term if out is None else nm.add(out, term)
    return w.data, out.data


def test_stacked_task_blocks_match_single_task_passes(rng):
    """One pass routes the first half of the rows by the diagnosis gate
    and the second half by the change gate: each half, and its sunk gate
    weights, match that task's own pass over the half."""
    layer = _layer()
    x = rng.standard_normal((6, 4, 8))
    sink = []
    both = layer(Tensor(x), Routing(sink=sink)).data
    for half, gate in ((slice(0, 3), layer.gate_diagnosis), (slice(3, 6), layer.gate_change)):
        w, out = _single_task_pass(layer, Tensor(x[half]), gate)
        np.testing.assert_allclose(sink[0][half], w, rtol=1e-12)
        np.testing.assert_allclose(both[half], out, rtol=1e-12, atol=1e-15)
    with pytest.raises(ShapeError):  # the rows must split into two halves
        layer(Tensor(rng.standard_normal((3, 4, 8))), Routing())


def test_fixed_one_hot_selects_single_expert(rng):
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)))
    w = np.zeros((2, 8))
    w[:, 3] = 1.0
    out = layer(x, Routing(weights=w))
    np.testing.assert_allclose(out.data, _reference_expert(layer.experts[3], x).data, atol=1e-12)


def test_fixed_routing_zero_columns_get_no_gradient(rng):
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)))
    w = label_guided_weights(np.array([0, 0]), 8, 2, 0.3, np.float64)
    out = layer(x, Routing(weights=w))
    out.sum().backward()
    for e in (0, 1, 2, 3):  # shared pair + class-0 pair carry weight
        assert layer.experts[e].fc1.weight.grad is not None
    for e in (4, 5, 6, 7):  # other classes' experts stay out of the graph
        for p in layer.experts[e].parameters():
            assert p.grad is None
    for name, p in layer.named_parameters().items():
        if name.startswith(("feature_attn.", "gate_")):
            assert p.grad is None


def test_fixed_routing_weight_contracts(rng):
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)))
    out = layer(x, Routing(weights=np.ones((2, 8)) / 8))
    assert out.shape == (2, 4, 8)
    with pytest.raises(ShapeError):  # weights take one row per sample
        layer(x, Routing(weights=np.ones(8) / 8))
    with pytest.raises(ShapeError):
        layer(x, Routing(weights=np.ones((3, 8)) / 8))
    with pytest.raises(ContractError):
        layer(x, Routing(weights=np.zeros((2, 8))))
    with pytest.raises(ShapeError):
        layer(Tensor(rng.standard_normal((2, 8))), Routing(weights=np.ones((2, 8)) / 8))


def test_fixed_routing_matches_explicit_sum(rng):
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)))
    w = np.array([[0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.25, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0]])
    out = layer(x, Routing(weights=w)).data
    expected = np.zeros_like(out)
    for e in range(8):
        expert_out = _reference_expert(layer.experts[e], x).data
        expected += w[:, e][:, None, None] * expert_out
    np.testing.assert_allclose(out, expected, atol=1e-12)


_GATE_PARAMS = ("feature_attn.weight", "feature_attn.bias", "gate_diagnosis.weight",
                "gate_change.weight")


@pytest.mark.parametrize("temp", [1.0, 0.7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grid", [(16, 16, 16), (8, 8, 32), (4, 4, 64), (2, 2, 128)])
@pytest.mark.parametrize("rows", [2, 32])
def test_task_gate_is_one_node_with_the_chains_bits(rows, grid, dtype, temp):
    """On each stage grid of the calib model, the gate is one node over x,
    the feature attention and the two task gate weights; its value and
    every gradient are those of the 11-node chain, bit for bit."""
    rng = np.random.default_rng(rows + grid[-1])
    layer = MMoELayer(rng, grid[-1], 8, 1, temp, dtype)
    params = [layer.named_parameters()[name] for name in _GATE_PARAMS]
    for p in params:  # unit scale: the sigmoid and the softmax bend
        p.data[...] = rng.standard_normal(p.shape)
    x = Tensor(rng.standard_normal((rows,) + grid).astype(dtype), requires_grad=True)
    probe = rng.standard_normal((rows, 8)).astype(dtype)
    out = layer.gate_weights(x)
    assert out._vjp.__qualname__.split(".")[0] == "_task_gate"
    assert out._parents == (x, *params)
    chain = gate_chain(layer, x)
    assert out.dtype == dtype and np.array_equal(out.data, chain.data)
    grads = []
    for y in (out, chain):
        for p in [x] + params:
            p.grad = None
        nm.mul(y, probe).sum().backward()
        grads.append([p.grad for p in [x] + params])
    for got, want in zip(*grads):
        assert got.dtype == dtype and np.array_equal(got, want)


def test_task_gate_contracts(rng):
    layer = _layer()
    with pytest.raises(ShapeError, match="equal blocks"):  # no two task halves
        layer.gate_weights(Tensor(rng.standard_normal((3, 4, 8))))
    with pytest.raises(ShapeError, match="float32.*float64"):
        layer.gate_weights(Tensor(rng.standard_normal((4, 4, 8)).astype(np.float32)))


def test_gate_parameters_cover_gate_path_only():
    layer = _layer()
    names = {name for name in layer.named_parameters() if not name.startswith("experts.")}
    assert names == {"feature_attn.weight", "feature_attn.bias",
                     "gate_diagnosis.weight", "gate_change.weight"}


# -- expert_mix against the per-expert graph ---------------------------


@pytest.fixture(params=["pool_off", "pool_on"])
def pool_mode(request, monkeypatch):
    """Run expert work inline, or force it onto a two-worker pool."""
    if request.param == "pool_off":
        monkeypatch.setattr(nm, "_PARALLEL_MIN_WORK", 1 << 62)
        yield
        return
    pool = ThreadPoolExecutor(max_workers=2, thread_name_prefix="m3ad-test")
    monkeypatch.setattr(nm, "_PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(nm, "_POOL", pool)
    yield
    pool.shutdown()


def _reference_expert(expert, x):
    return expert.fc2(nm.gelu(expert.fc1(x)))


def _reference_layer(layer, x, routing):
    """The per-expert graph: sum, in expert order, of w[:, e] * expert(x)
    over the experts with any weight, built from nm ops."""
    b, n = x.shape[0], len(layer.experts)
    if routing.kind == "task":
        w = layer.gate_weights(x)
        cols = [nm.reshape(w[:, e], (b, 1, 1)) for e in range(n)]
    else:
        weights = np.asarray(routing.weights, dtype=x.dtype)
        cols = [weights[:, e].reshape(b, 1, 1) if np.any(weights[:, e]) else None
                for e in range(n)]
    out = None
    for expert, col in zip(layer.experts, cols):
        if col is not None:
            term = nm.mul(_reference_expert(expert, x), col)
            out = term if out is None else nm.add(out, term)
    return out


def _forward_backward(layer, x, fn, seed):
    layer.zero_grad()
    x.grad = None
    out = fn()
    probe = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
    nm.mul(out, probe).sum().backward()
    return out.data, x.grad, {n: p.grad for n, p in layer.named_parameters().items()}


_ROUTINGS = {
    "task": lambda dt: Routing(),
    "calib_task": lambda dt: Routing(),
    "label_guided": lambda dt: Routing(
        weights=label_guided_weights(np.array([0, 2, 1, 0]), 8, 2, 0.15, dt)),
    "class_only": lambda dt: Routing(weights=label_guided_weights(np.ones(4, int), 8, 2, 0.0, dt)),
}


# Weight gradients of a dispatched expert sum over its own rows only, so
# BLAS blocks that sum differently from the dense graph, which also adds
# the zero rows of the other classes. At the calib size, (16, 256, 16) with
# hidden 64, they differ by up to 5.8e-7 (float32) and 1.1e-15 (float64)
# of each tensor's largest entry and are held to this fraction of it;
# output, x gradient and biases stay exact.
_DISPATCH_GRAD_RTOL = {np.float32: 2e-6, np.float64: 1e-14}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["task", "label_guided", "class_only", "single_expert",
                                  "calib_label_guided", "calib_task"])
def test_expert_mix_is_bit_identical_to_per_expert_graph(mode, dtype, pool_mode):
    if mode.startswith("calib"):
        # the calib stage-0 layer: under task routing each expert runs on
        # 32 rows of 256 tokens, 8 GELU blocks of hidden units for its vjp
        # to rebuild
        layer = MMoELayer(np.random.default_rng(8), 16, 8, 4, 1.0, dtype)
        rows = 32 if mode == "calib_task" else 16
        x = Tensor(np.random.default_rng(9).standard_normal((rows, 256, 16)).astype(dtype),
                   requires_grad=True)
    else:
        layer = MMoELayer(np.random.default_rng(8), 8, 8, 2, 1.0, dtype)
        x = Tensor(np.random.default_rng(9).standard_normal((4, 6, 8)).astype(dtype),
                   requires_grad=True)
    if mode == "calib_label_guided":
        labels = np.random.default_rng(10).integers(0, 3, 16)
        routing = Routing(weights=label_guided_weights(labels, 8, 2, 0.15, dtype))
        fused = _forward_backward(layer, x, lambda: layer(x, routing), 1)
        ref = _forward_backward(layer, x, lambda: _reference_layer(layer, x, routing), 1)
        assert np.array_equal(fused[0], ref[0])
        assert np.array_equal(fused[1], ref[1])
        for name, grad in ref[2].items():
            if grad is None:
                assert fused[2][name] is None, name
            else:
                tol = _DISPATCH_GRAD_RTOL[dtype] * np.abs(grad).max()
                np.testing.assert_allclose(fused[2][name], grad, rtol=0, atol=tol,
                                           err_msg=name)
        return
    if mode == "single_expert":
        expert = layer.experts[5]
        ones = np.ones((x.shape[0], 1), dtype=dtype)
        fused = _forward_backward(layer, x, lambda: expert_mix(x, ones, [expert]), 1)
        ref = _forward_backward(layer, x, lambda: _reference_expert(expert, x), 1)
    else:
        routing = _ROUTINGS[mode](dtype)
        fused = _forward_backward(layer, x, lambda: layer(x, routing), 1)
        ref = _forward_backward(layer, x, lambda: _reference_layer(layer, x, routing), 1)
    assert fused[0].dtype == dtype
    assert np.array_equal(fused[0], ref[0])
    assert np.array_equal(fused[1], ref[1])
    assert fused[2].keys() == ref[2].keys()
    for name, grad in ref[2].items():
        if grad is None:
            assert fused[2][name] is None, name
        else:
            assert np.array_equal(fused[2][name], grad), name


def test_expert_mix_contracts(rng):
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)))
    with pytest.raises(ContractError):
        expert_mix(x, np.ones((2, 0)), [])
    with pytest.raises(ShapeError):
        expert_mix(x, np.ones((3, 2)), layer.experts[:2])
    with pytest.raises(ShapeError):
        expert_mix(x, Tensor(np.ones((2, 2), dtype=np.float32)), layer.experts[:2])
    with pytest.raises(ContractError):  # constant weights must select an expert
        expert_mix(x, np.zeros((2, 3)), layer.experts[:3])


def test_expert_mix_leaves_unweighted_experts_out(rng):
    """Constant weights: an expert whose column is all zero is no parent
    of the node and gets no gradient; the others get one."""
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
    w = np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
    expert_mix(x, w, layer.experts[:3]).sum().backward()
    assert x.grad is not None
    for e, used in ((0, True), (1, False), (2, True)):
        for p in layer.experts[e].parameters():
            assert (p.grad is not None) == used, (e, used)


def test_backward_frees_what_expert_mix_saved(rng):
    """The GELU Phi arrays an expert_mix vjp saves are collectable once
    backward returns, though the node itself is still referenced."""
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
    out = expert_mix(x, np.array([[0.5, 0.5], [1.0, 0.0]]), layer.experts[:2])
    cells = dict(zip(out._vjp.__code__.co_freevars, out._vjp.__closure__))
    saved_phi = [weakref.ref(kept[2]) for kept in cells["saved"].cell_contents]
    del cells
    assert all(ref() is not None for ref in saved_phi)
    out.sum().backward()
    gc.collect()
    assert all(ref() is None for ref in saved_phi)
    assert x.grad is not None


def test_fixed_routing_node_keeps_gathered_rows_not_x(rng):
    """Where every expert gathers its rows, the node keeps the gathered
    copies and x's shape: x's array is freed once the caller drops x,
    and the gradients are those of a graph whose caller keeps it."""
    layer = _layer()
    leaf = Tensor(rng.standard_normal((4, 3, 8)), requires_grad=True)
    w = label_guided_weights(np.array([0, 1, 2, 0]), 8, 2, 0.15, np.float64)
    w[1, :2] = 0.0  # the shared experts skip a row too
    grads = []
    for keep_x in (False, True):
        for p in [leaf] + layer.parameters():
            p.grad = None
        x = nm.mul(leaf, 2.0)
        out = expert_mix(x, w, layer.experts)
        if not keep_x:
            ref = weakref.ref(x.data)
            del x
            assert ref() is None
        nm.mul(out, out).sum().backward()
        grads.append([p.grad for p in [leaf] + layer.parameters()])
    for dropped, kept in zip(*grads):
        assert (dropped is None and kept is None) or np.array_equal(dropped, kept)


@pytest.mark.parametrize("weights", ["graph", "fixed", "graph_2copies", "fixed_2copies"])
def test_recorded_expert_mix_keeps_one_hidden_width_array_per_expert(weights, pool_mode):
    """After its forward, a recorded calib stage-0 node holds, per expert,
    one array as wide as the expert's hidden layer (the GELU's Phi), its
    gathered rows of x, the expert outputs for graph weights, and its own
    output: the hidden layer's GELU and slope are left to the vjp. With
    two copies of x's rows (fine-tuning's task copies; pretraining's
    label-guided and class-only copies) it keeps them for the union of
    the rows the copies weight, once, and only the output grows."""
    dtype, tokens, dim, hidden = np.float32, 256, 16, 64
    weights, copies = weights.split("_")[0], 2 if weights.endswith("copies") else 1
    rng = np.random.default_rng(3)
    layer = MMoELayer(rng, dim, 8, hidden // dim, 1.0, dtype)
    x = Tensor(rng.standard_normal((16, tokens, dim)).astype(dtype), requires_grad=True)
    if weights == "graph":
        w = nm.softmax(Tensor(rng.standard_normal((16 * copies, 8)).astype(dtype),
                              requires_grad=True))
        rows = np.full(8, 16)
    else:
        labels = rng.integers(0, 3, 16)
        w = np.concatenate([label_guided_weights(labels, 8, 2, shared, dtype)
                            for shared in (0.15, 0.0)[:copies]])
        rows = np.count_nonzero(np.any(w.reshape(copies, 16, 8), axis=0), axis=0)
    row_bytes = tokens * np.dtype(dtype).itemsize
    phi = int(rows.sum()) * row_bytes * hidden
    gathered = int(rows[rows < 16].sum()) * row_bytes * dim
    outputs = ((int(rows.sum()) if weights == "graph" else 0) * row_bytes * dim
               + copies * x.data.nbytes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = expert_mix(x, w, layer.experts)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert phi + gathered + outputs <= kept <= phi + gathered + outputs + (64 << 10)
    out.sum().backward()
    assert x.grad is not None


# -- one expert pass per row of x, for every copy of the rows -----------


def _copy_weights(kind, dtype):
    """(2 * 4, 8) weights of two copies of 4 rows: a graph node of softmax
    rows, or fixed rows of pretraining's label-guided copy on its
    class-only copy, whose class experts share their rows between the
    copies, or those with a zero of one copy on a row the other weights."""
    rng = np.random.default_rng(12)
    if kind == "graph":
        leaf = Tensor(rng.standard_normal((8, 8)).astype(dtype), requires_grad=True)
        return leaf, nm.softmax(leaf)
    labels = np.array([0, 2, 1, 0])
    w = np.concatenate([label_guided_weights(labels, 8, 2, shared, dtype)
                        for shared in (0.15, 0.0)])
    if kind == "fixed_partial":
        w[0, 2:4] = 0.0  # class 0's experts: row 0 weighted by the second copy only
        w[5, 6:8] = 0.0  # class 2's experts: row 1 weighted by the first copy only
    return None, w


# float64 gradients that add the copies before the fc products, not after,
# as a fraction of each tensor's largest entry (over 50 seeds of layer and
# input: at most 1.3e-15)
_COPIES_GRAD_RTOL = 1e-14


@pytest.mark.parametrize("kind", ["graph", "fixed", "fixed_partial"])
def test_expert_mix_runs_each_expert_once_for_all_copies(kind, pool_mode, monkeypatch):
    """x holds 4 rows and the weights cover two copies of them: each expert
    runs once, on the rows of x any copy weights, and the output equals
    the pass over the stacked copies bit for bit, the gradient of graph
    weights too; the other gradients add the copies in another order."""
    layer = MMoELayer(np.random.default_rng(8), 8, 8, 2, 1.0, np.float64)
    x = Tensor(np.random.default_rng(9).standard_normal((4, 6, 8)), requires_grad=True)
    leaf, w = _copy_weights(kind, np.float64)
    leaves = [x] + ([] if leaf is None else [leaf]) + layer.parameters()
    affine_rows = []
    affine = nm._affine
    monkeypatch.setattr(nm, "_affine", lambda rows, weight, bias: affine_rows.append(
        len(rows) if weight.shape[1] == 16 else 0) or affine(rows, weight, bias))
    runs = []
    for stack in (False, True):
        for p in leaves:
            p.grad = None
        affine_rows.clear()
        if leaf is not None:
            w = nm.softmax(leaf)
        out = expert_mix(nm.concat([x, x]) if stack else x, w, layer.experts)
        fc1_rows = sum(affine_rows)
        probe = np.random.default_rng(1).standard_normal(out.shape)
        nm.mul(out, probe).sum().backward()
        runs.append((out.data, [p.grad for p in leaves], fc1_rows))
    (got, got_grads, got_rows), (want, want_grads, want_rows) = runs
    union = np.any(np.asarray(w.data if leaf is not None else w).reshape(2, 4, 8), axis=0)
    weighted = np.ones_like(union) if leaf is not None else union
    assert got.shape == (8, 6, 8) and np.array_equal(got, want)
    assert got_rows == 6 * weighted.sum() < want_rows  # the fc1 rows of the forward
    if leaf is not None:
        assert np.array_equal(got_grads[1], want_grads[1])
    for g, t in zip(got_grads, want_grads):
        assert (g is None) == (t is None)
        if t is not None:
            assert np.abs(g - t).max() <= _COPIES_GRAD_RTOL * np.abs(t).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_task_gate_maps_each_row_once_for_both_copies(dtype):
    """With a copy per task, x holds each scan once and both task gates map
    all of its rows: the weights equal those of the gate over the stacked
    copies bit for bit; the gradients add the two gates' terms before the
    sigmoid and the mean, so they move by summation order only (over 50
    seeds: at most 2.8e-7 and 4.4e-16 of each tensor's largest entry)."""
    rng = np.random.default_rng(4)
    layer = MMoELayer(rng, 8, 8, 1, 0.7, dtype)
    params = [layer.named_parameters()[name] for name in _GATE_PARAMS]
    for p in params:
        p.data[...] = rng.standard_normal(p.shape)
    x = Tensor(rng.standard_normal((3, 4, 4, 8)).astype(dtype), requires_grad=True)
    probe = rng.standard_normal((6, 8)).astype(dtype)
    runs = []
    for stack in (False, True):
        for p in [x] + params:
            p.grad = None
        p_out = (layer.gate_weights(nm.concat([x, x])) if stack
                 else layer.gate_weights(x, copies=2))
        nm.mul(p_out, probe).sum().backward()
        runs.append((p_out.data, [p.grad for p in [x] + params]))
    (got, got_grads), (want, want_grads) = runs
    assert got.shape == (6, 8) and np.array_equal(got, want)
    rtol = 1e-6 if dtype == np.float32 else 1e-14
    for g, t in zip(got_grads, want_grads):
        assert np.abs(g - t).max() <= rtol * np.abs(t).max()


def test_copies_contracts(rng):
    """The weights' rows must be a whole number, at least one, of copies
    of x's rows; the gate's copies must split into one span of x's rows per
    task; a layer's fixed routing must cover its copies."""
    layer = _layer()
    x = Tensor(rng.standard_normal((2, 4, 8)))
    for rows in (0, 1, 3, 5):
        with pytest.raises(ShapeError, match="whole number of copies"):
            expert_mix(x, np.ones((rows, 2)), layer.experts[:2])
    with pytest.raises(ShapeError, match="whole number of copies"):
        expert_mix(x, Tensor(np.ones((3, 2)), requires_grad=True), layer.experts[:2])
    with pytest.raises(ShapeError, match="equal blocks"):  # 6 rows in blocks of 3
        layer.gate_weights(x, copies=3)
    assert layer.gate_weights(Tensor(rng.standard_normal((3, 4, 8))), copies=2).shape == (6, 8)
    with pytest.raises(ShapeError, match="not 2 copies"):
        layer(x, Routing(weights=np.ones((2, 8)) / 8), copies=2)
    assert layer(x, Routing(weights=np.ones((4, 8)) / 8), copies=2).shape == (4, 4, 8)


_DETERMINISM_SCRIPT = """
import sys, threading
src, dest = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
from m3ad import entry
entry.cap_threads()
import numpy as np
from m3ad.moe import MMoELayer, Routing, label_guided_weights
from m3ad import numerics as nm
from m3ad.numerics import Tensor
rng = np.random.default_rng(0)
layer = MMoELayer(rng, 16, 8, 4, 1.0, np.float32)
x = Tensor(rng.standard_normal((8, 256, 16)).astype(np.float32), requires_grad=True)
labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
res = {}
for name, routing in (("task", Routing()),
                      ("fixed", Routing(weights=label_guided_weights(labels, 8, 2, 0.15, np.float32)))):
    layer.zero_grad()
    x.grad = None
    out = layer(x, routing)
    nm.mul(out, rng.standard_normal(out.shape).astype(np.float32)).sum().backward()
    res[name + "/out"] = out.data
    res[name + "/x"] = x.grad
    for n, p in layer.named_parameters().items():
        if p.grad is not None:
            res[name + "/" + n] = p.grad
np.savez(dest, workers=threading.active_count() - 1, **res)
"""


def test_mmoe_results_do_not_depend_on_thread_count(tmp_path):
    """B=8 x 256 tokens x 64 hidden x 8 experts crosses the pool's
    threshold, so the two-thread run splits experts over workers."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(m3ad.__file__)))
    runs = {}
    for threads in (1, 2):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env["M3AD_THREADS"] = str(threads)
        path = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT, src, str(path)],
                       env=env, check=True, timeout=120)
        runs[threads] = dict(np.load(path))
    assert runs[1].pop("workers") == 0
    assert 1 <= runs[2].pop("workers") <= 2
    assert runs[1].keys() == runs[2].keys()
    assert len(runs[1]) > 2 * 4
    for name, arr in runs[1].items():
        assert arr.tobytes() == runs[2][name].tobytes(), name
