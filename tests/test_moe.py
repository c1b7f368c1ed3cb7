"""Mixture-of-experts routing: weight tables, gates, gradient sparsity,
and the fused expert op against the per-expert graph it replaces."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import m3ad
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
    fla = ref.feature_summary(x)
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
    w = nm.softmax(nm.div(gate(layer.feature_summary(x)), layer.gate_temp), axis=-1)
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
                                  "calib_label_guided"])
def test_expert_mix_is_bit_identical_to_per_expert_graph(mode, dtype, pool_mode):
    if mode == "calib_label_guided":
        layer = MMoELayer(np.random.default_rng(8), 16, 8, 4, 1.0, dtype)
        x = Tensor(np.random.default_rng(9).standard_normal((16, 256, 16)).astype(dtype),
                   requires_grad=True)
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
    layer = MMoELayer(np.random.default_rng(8), 8, 8, 2, 1.0, dtype)
    x = Tensor(np.random.default_rng(9).standard_normal((4, 6, 8)).astype(dtype),
               requires_grad=True)
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
