"""Engine tests: op values against independent oracles, backward
semantics, and the .m3t container."""

import os
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import cut_and_flip, m3t_with_header
from m3ad import entry
from m3ad import numerics as nm
from m3ad.errors import CheckpointError, ConfigError, ContractError, ShapeError
from m3ad.numerics import (LayerNorm, Linear, Module, Tensor, grad_check,
                           load_m3t, no_grad, save_m3t)


def t64(rng, *shape, grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=grad)


# -- value oracles -----------------------------------------------------


def test_matmul_matches_triple_loop(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    expected = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = nm.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


def test_batched_matmul_matches_loop(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 5))
    out = nm.matmul(Tensor(a), Tensor(b))
    for i in range(2):
        np.testing.assert_allclose(out.data[i], a[i] @ b[i], atol=1e-12)


def test_matmul_shape_errors(rng):
    with pytest.raises(ShapeError):
        nm.matmul(t64(rng, 3), t64(rng, 3, 2))
    with pytest.raises(ShapeError):
        nm.matmul(t64(rng, 3, 4), t64(rng, 5, 2))
    with pytest.raises(ShapeError):
        nm.matmul(t64(rng, 2, 3, 4), t64(rng, 3, 4, 2))
    with pytest.raises(ShapeError):  # no batch broadcasting of a 2-D operand
        nm.matmul(t64(rng, 2, 3, 4), t64(rng, 4, 2))


def test_layer_norm_matches_direct_formula(rng):
    x = rng.standard_normal((4, 6))
    gamma = rng.standard_normal(6)
    beta = rng.standard_normal(6)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expected = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
    out = nm.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_layer_norm_affine_shape_error(rng):
    with pytest.raises(ShapeError):
        nm.layer_norm(t64(rng, 2, 5), t64(rng, 4), t64(rng, 5))


def test_cross_entropy_matches_log_softmax(rng):
    z = rng.standard_normal((5, 3))
    y = np.array([0, 2, 1, 1, 2])
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(5), y].mean()
    out = nm.cross_entropy(Tensor(z), y)
    assert abs(out.item() - expected) < 1e-10


def test_cross_entropy_input_contracts(rng):
    with pytest.raises(ShapeError):
        nm.cross_entropy(t64(rng, 4, 3, 2), np.array([0]))
    with pytest.raises(ContractError):
        nm.cross_entropy(t64(rng, 2, 3), np.array([0.5, 1.0]))
    with pytest.raises(ShapeError):
        nm.cross_entropy(t64(rng, 2, 3), np.array([0, 1, 2]))
    with pytest.raises(ContractError):
        nm.cross_entropy(t64(rng, 2, 3), np.array([0, 3]))
    with pytest.raises(ContractError):
        nm.cross_entropy(t64(rng, 2, 3), np.array([-1, 0]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.integers(min_value=1, max_value=4))
def test_softmax_rows_on_simplex(row, repeats):
    x = np.tile(np.asarray(row, dtype=np.float64), (repeats, 1))
    out = nm.softmax(Tensor(x), axis=-1).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def test_reductions_match_numpy(rng):
    x = rng.standard_normal((3, 4, 5))
    np.testing.assert_allclose(nm.tsum(Tensor(x)).data, x.sum(), atol=1e-12)
    np.testing.assert_allclose(nm.tsum(Tensor(x), axis=(0, 2)).data,
                               x.sum(axis=(0, 2)), atol=1e-12)
    np.testing.assert_allclose(
        nm.tmean(Tensor(x), axis=1, keepdims=True).data,
        x.mean(axis=1, keepdims=True), atol=1e-12)


def test_softplus_and_gelu_extremes():
    big = Tensor(np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0]))
    sp = nm.softplus(big).data
    assert np.isfinite(sp).all()
    np.testing.assert_allclose(sp[-1], 1000.0, atol=1e-9)
    assert sp[0] >= 0.0
    ge = nm.gelu(big).data
    assert np.isfinite(ge).all()
    np.testing.assert_allclose(ge[-1], 1000.0, atol=1e-9)
    np.testing.assert_allclose(ge[0], 0.0, atol=1e-9)


# the float32 erf of Eigen and XLA, coefficients from the highest power down
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)


def _gelu32_reference(x):
    """Whole-array float32 evaluation of the rational GELU: (erf(x/sqrt2),
    value, slope), one step per expression."""
    f = np.float32
    u = np.clip(x * f(0.7071067811865476), f(-4), f(4))
    t = u * u
    p, q = f(_ERF32_P[0]), f(_ERF32_Q[0])
    for c in _ERF32_P[1:]:
        p = p * t + f(c)
    for c in _ERF32_Q[1:]:
        q = q * t + f(c)
    erf = u * p / q
    phi = f(0.5) * (f(1) + erf)
    pdf = f(0.3989422804014327) * np.exp(f(-0.5) * x * x)
    return erf, x * phi, phi + x * pdf


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_slope_is_computed_only_when_recording(rng, dtype):
    x = (rng.standard_normal(1000) * 3).astype(dtype)
    if dtype == np.float32:
        _, expected_value, expected_slope = _gelu32_reference(x)
    else:
        phi = 0.5 * (1.0 + special.erf(x * np.asarray(0.7071067811865476, dtype=dtype)))
        pdf = np.asarray(0.3989422804014327, dtype=dtype) * np.exp(-0.5 * x * x)
        expected_value, expected_slope = x * phi, phi + x * pdf
    value, slope = nm._gelu(x, slope=True)
    assert value.dtype == slope.dtype == dtype
    assert np.array_equal(value, expected_value)
    assert np.array_equal(slope, expected_slope)
    value_only, none = nm._gelu(x, slope=False)
    assert np.array_equal(value_only, value) and none is None
    with no_grad():
        assert nm.gelu(Tensor(x, requires_grad=True))._vjp is None


def test_float32_gelu_tolerance_on_a_grid():
    """2M points in [-10, 10]: the kernel is the pinned rational; its erf
    is within 5e-7 of float64 and odd bit for bit, its slope within 1e-6,
    and it saturates exactly (4*sqrt2 / sqrt2 rounds below 4 in float32,
    so the clamp starts just above 4*sqrt2 = 5.657)."""
    x = np.linspace(-10, 10, 2_000_001).astype(np.float32)
    erf, value, slope = _gelu32_reference(x)
    got_value, got_slope = nm._gelu(x, slope=True)
    assert np.array_equal(got_value, value) and np.array_equal(got_slope, slope)
    x64 = x.astype(np.float64)
    erf64 = special.erf(x64 / np.sqrt(2.0))
    assert np.abs(erf - erf64).max() <= 5e-7
    slope64 = 0.5 * (1.0 + erf64) + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
    assert np.abs(slope - slope64).max() <= 1e-6
    assert np.array_equal(_gelu32_reference(-x)[0], -erf)
    far = np.abs(x) >= 5.66
    assert np.array_equal(value[far], np.where(x[far] > 0, x[far], 0))


def test_float32_gelu_bits_do_not_depend_on_blocking(rng):
    """Across block edges, on contiguous and strided input, each element
    gets the bits it gets when its small slice is evaluated alone."""
    n = 2 * nm._GELU_BLOCK + 3
    base = (rng.standard_normal(2 * n) * 3).astype(np.float32)
    for x in (base[:n], base[::2]):
        value, slope = nm._gelu(x, slope=True)
        for start in range(0, n, 4093):
            part_value, part_slope = nm._gelu(x[start:start + 4093], slope=True)
            assert np.array_equal(value[start:start + 4093], part_value)
            assert np.array_equal(slope[start:start + 4093], part_slope)


def test_importing_the_entry_module_loads_no_numpy():
    """The console script pins BLAS at one thread in ``entry.cap_threads``,
    which works only before numpy's first import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(entry.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                          "import m3ad.entry; print('numpy' in sys.modules)", src],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_parallel_map_keeps_order_and_uses_pool_only_for_large_work(monkeypatch):
    pool = ThreadPoolExecutor(max_workers=2, thread_name_prefix="m3ad-test")
    monkeypatch.setattr(nm, "_POOL", pool)
    try:
        def where(i):
            return i, threading.current_thread().name

        big = nm._parallel_map(where, range(6), work=nm._PARALLEL_MIN_WORK)
        assert [i for i, _ in big] == list(range(6))
        assert all(name.startswith("m3ad-test") for _, name in big)
        small = nm._parallel_map(where, range(6), work=nm._PARALLEL_MIN_WORK - 1)
        assert small == [(i, threading.current_thread().name) for i in range(6)]
    finally:
        pool.shutdown()


def test_thread_count_comes_from_m3ad_threads(monkeypatch):
    monkeypatch.setenv("M3AD_THREADS", "3")
    assert entry.thread_count() == 3
    monkeypatch.setattr(nm, "_POOL", None)
    for bad in ("0", "two", "-1"):
        monkeypatch.setenv("M3AD_THREADS", bad)
        with pytest.raises(ValueError, match="M3AD_THREADS"):
            entry.thread_count()
        with pytest.raises(ConfigError, match="M3AD_THREADS"):
            nm._engine_pool()


# -- backward semantics ------------------------------------------------


def test_backward_accumulates_until_zero_grad(rng):
    p = t64(rng, 3)
    nm.mul(p, 2.0).sum().backward()
    first = p.grad.copy()
    nm.mul(p, 2.0).sum().backward()
    np.testing.assert_array_equal(p.grad, 2.0 * first)
    p.grad = None  # what Module.zero_grad does to each parameter
    nm.mul(p, 2.0).sum().backward()
    np.testing.assert_array_equal(p.grad, first)


def test_backward_requires_scalar_without_seed(rng):
    p = t64(rng, 3)
    with pytest.raises(ContractError):
        nm.mul(p, 2.0).backward()
    with pytest.raises(ShapeError):
        nm.mul(p, 2.0).sum().backward(np.ones(2))


def test_backward_seed_gradient(rng):
    p = t64(rng, 3)
    out = nm.mul(p, 3.0)
    seed = np.array([1.0, 0.0, -2.0])
    out.backward(seed)
    np.testing.assert_allclose(p.grad, 3.0 * seed, atol=1e-12)


def test_broadcast_add_gradients(rng):
    a = t64(rng, 3, 4)
    row = t64(rng, 1, 4)
    nm.add(a, row).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(row.grad, np.full((1, 4), 3.0))


def test_scalar_operand_broadcast(rng):
    p = t64(rng, 2, 2)
    out = nm.div(nm.add(nm.mul(p, -1.0), 1.0), 2.0)  # (1 - p) / 2
    out.sum().backward()
    np.testing.assert_allclose(p.grad, np.full((2, 2), -0.5), atol=1e-12)


def test_diamond_graph_accumulates_through_shared_node(rng):
    p = t64(rng, 3)
    shared = nm.mul(p, 2.0)
    out = nm.add(shared, nm.mul(shared, 3.0)).sum()  # d/dp = 2 + 6
    out.backward()
    np.testing.assert_allclose(p.grad, np.full(3, 8.0), atol=1e-12)


def test_dtype_mismatch_rejected(rng):
    a = Tensor(np.zeros(3, dtype=np.float32))
    b = Tensor(np.zeros(3, dtype=np.float64))
    with pytest.raises(ShapeError):
        nm.add(a, b)
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(np.zeros((2, 3), dtype=np.float32)),
                  Tensor(np.zeros((3, 2), dtype=np.float64)))


def test_integer_input_becomes_float32():
    t = Tensor(np.arange(4))
    assert t.dtype == np.float32


def test_no_grad_blocks_graph(rng):
    p = t64(rng, 3)
    with no_grad():
        out = nm.mul(p, 2.0).sum()
    assert out._vjp is None
    assert not out.requires_grad
    out2 = nm.mul(p, 2.0).sum()
    assert out2._vjp is not None


def test_getitem_copies_and_scatters(rng):
    p = t64(rng, 4, 4)
    view = p[1:3, ::2]
    original = view.data.copy()
    p.data[1, 0] = 99.0
    np.testing.assert_array_equal(view.data, original)
    view.sum().backward()
    expected = np.zeros((4, 4))
    expected[1:3, ::2] = 1.0
    np.testing.assert_array_equal(p.grad, expected)


def test_concat_contracts(rng):
    a, b = t64(rng, 2, 3), t64(rng, 2, 2)
    out = nm.concat([a, b], axis=1)
    np.testing.assert_array_equal(out.data, np.concatenate([a.data, b.data], axis=1))
    out.sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    with pytest.raises(ContractError):
        nm.concat([])
    with pytest.raises(ShapeError):
        nm.concat([a, Tensor(np.zeros((2, 2), dtype=np.float32))], axis=1)


def test_roll_round_trips_gradient(rng):
    p = t64(rng, 2, 4, 4)
    out = nm.roll(p, (1, -2), axis=(1, 2))
    np.testing.assert_array_equal(out.data, np.roll(p.data, (1, -2), axis=(1, 2)))
    seed = rng.standard_normal((2, 4, 4))
    out.backward(seed)
    np.testing.assert_array_equal(p.grad, np.roll(seed, (-1, 2), axis=(1, 2)))


def test_taps3x3_zero_padded_neighbours_and_gradient(rng):
    p = t64(rng, 2, 3, 4, 5)
    out = nm.taps3x3(p)
    assert out.shape == (9, 2, 3, 4, 5)
    padded = np.pad(p.data, ((0, 0), (1, 1), (1, 1), (0, 0)))
    for k in range(9):
        dy, dx = divmod(k, 3)
        np.testing.assert_array_equal(out.data[k], padded[:, dy:dy + 3, dx:dx + 4])
    out.sum().backward()
    # each cell is seen by one tap per neighbour inside the grid
    inside = np.pad(np.ones((3, 4)), 1)
    counts = sum(inside[dy:dy + 3, dx:dx + 4] for dy in range(3) for dx in range(3))
    np.testing.assert_array_equal(p.grad, np.broadcast_to(counts[None, :, :, None], p.shape))
    with pytest.raises(ShapeError):
        nm.taps3x3(t64(rng, 3, 4, 5))


def test_clamp_min_gradient_gate():
    p = Tensor(np.array([-1.0, 0.1, 0.5]), requires_grad=True)
    out = nm.clamp_min(p, 0.1)
    np.testing.assert_array_equal(out.data, [0.1, 0.1, 0.5])
    out.sum().backward()
    # at the threshold the gradient is gated off
    np.testing.assert_array_equal(p.grad, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_masked_l1_rows_and_sign_gradient(rng, dtype):
    """Row sums of weights * |pred - target| against a loop, and the
    gradient g[row] * weights * sign(pred - target) bit for bit, with a
    zero-weight row, zero-weight entries and a zero difference."""
    pred = t64(rng, 3, 2, 4)
    pred.data = pred.data.astype(dtype)
    target = rng.standard_normal((3, 2, 4)).astype(dtype)
    target[0, 0, 0] = pred.data[0, 0, 0]
    weights = (rng.random((3, 2, 4)) * (rng.random((3, 2, 4)) < 0.6)).astype(dtype)
    weights[1] = 0.0
    out = nm.masked_l1(pred, target, weights)
    assert out.shape == (3,) and out.dtype == dtype
    for r in range(3):
        want = sum(w * abs(p - t) for w, p, t in zip(
            weights[r].ravel().tolist(), pred.data[r].ravel().tolist(), target[r].ravel().tolist()))
        np.testing.assert_allclose(out.data[r], want, rtol=1e-6 if dtype == np.float32 else 1e-14)
    assert out.data[1] == 0.0
    seed = np.array([0.5, -2.0, 3.0], dtype=dtype)
    out.backward(seed)
    want = seed[:, None, None] * weights * np.sign(pred.data - target)
    np.testing.assert_array_equal(pred.grad, want)
    assert pred.grad[0, 0, 0] == 0.0 and not pred.grad[1].any()


def test_masked_l1_contracts(rng):
    pred = t64(rng, 2, 3)
    with pytest.raises(ShapeError):
        nm.masked_l1(pred, np.zeros((2, 4)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        nm.masked_l1(pred, np.zeros((2, 3)), np.zeros(3))
    with no_grad():
        assert nm.masked_l1(pred, np.zeros((2, 3)), np.ones((2, 3)))._vjp is None


# -- containers and helpers --------------------------------------------


def test_linear_matches_affine_formula(rng):
    lin = Linear(rng, 4, 3, np.float64)
    x = rng.standard_normal((2, 5, 4))
    out = lin(Tensor(x))
    expected = x @ lin.weight.data + lin.bias.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    nobias = Linear(rng, 4, 3, np.float64, bias=False)
    assert nobias.bias is None
    assert len(nobias.parameters()) == 1


def test_named_parameters_walks_nesting(rng):
    class Inner(Module):
        def __init__(self):
            self.w = Tensor(np.zeros(2), requires_grad=True)

    class Outer(Module):
        def __init__(self):
            self.lin = Linear(rng, 2, 2, np.float64)
            self.items = [Inner(), Inner()]
            self.frozen = Tensor(np.zeros(2))  # requires_grad False

    outer = Outer()
    names = list(outer.named_parameters())
    assert names == ["lin.weight", "lin.bias", "items.0.w", "items.1.w"]
    outer.parameters()[0].grad = np.zeros((2, 2))
    outer.zero_grad()
    assert all(p.grad is None for p in outer.parameters())


def test_layer_norm_module_normalizes(rng):
    ln = LayerNorm(8, np.float64)
    out = ln(Tensor(rng.standard_normal((3, 8))))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_grad_check_accepts_correct_gradient(rng):
    p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    err = grad_check(lambda: nm.mul(nm.sigmoid(p), p).sum(), [p], rng=rng)
    assert err < 1e-6
    assert p.grad is None  # left clean


def test_grad_check_rejects_non_scalar(rng):
    p = Tensor(rng.standard_normal(3), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda: nm.mul(p, 2.0), [p], rng=rng)


def test_m3t_round_trip_is_bit_exact(tmp_path, rng):
    arrays = {"w": rng.standard_normal((5, 7)).astype(np.float32),
              "columns": np.asfortranarray(rng.standard_normal((3, 4))),
              "big_endian": rng.standard_normal(6).astype(">f8"),
              "scalar": np.float32(3.5), "empty": np.zeros((0, 3), np.float64)}
    path = tmp_path / "x.m3t"
    save_m3t(path, arrays, {"stage": "test", "epoch": 2})
    header, back = load_m3t(path)
    assert header == {"stage": "test", "epoch": 2}
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].shape == np.shape(arr) and back[name].dtype.name == arr.dtype.name
        np.testing.assert_array_equal(back[name], arr)
    save_m3t(path, {})
    assert load_m3t(path) == ({}, {})


def test_m3t_stores_only_float_arrays(tmp_path):
    with pytest.raises(ContractError, match="'labels' has dtype int64"):
        save_m3t(tmp_path / "x.m3t", {"labels": np.arange(3)})


def _scan_bytes(tmp_path, rng) -> bytes:
    path = tmp_path / "scan.m3t"
    save_m3t(path, {"image": rng.standard_normal((4, 4)).astype(np.float32)})
    return path.read_bytes()


def test_m3t_corruption_detected(tmp_path, rng):
    blob = _scan_bytes(tmp_path, rng)
    bad = tmp_path / "bad.m3t"
    for damaged, message in [
            (b"M3TD" + blob[4:], "bad magic"),  # the layout of format version 1
            (blob[:4] + struct.pack("<I", 2) + blob[8:], "version 2"),
            (blob[:10], "not a tensor file"),
            (blob[:-4], "CRC mismatch"),
            (blob[:-5] + bytes([blob[-5] ^ 1]) + blob[-4:], "CRC mismatch"),
            (m3t_with_header(blob, []), "header is a list"),
            (m3t_with_header(blob, {"tensors": [{"name": "image", "dtype": "float32",
                                                 "shape": [4, 3]}]}), "the header describes"),
            (m3t_with_header(blob, {"tensors": [{"name": "image", "dtype": "float32",
                                                 "shape": [2**62, 2**62]}]}),
             "the header describes")]:
        bad.write_bytes(damaged)
        with pytest.raises(CheckpointError, match=f"bad.m3t: .*{message}"):
            load_m3t(bad)


@given(st.data())
@settings(max_examples=150)
def test_any_cut_or_byte_flip_of_a_tensor_file_is_rejected(tmp_path_factory, data):
    blob = _scan_bytes(tmp_path_factory.getbasetemp(), np.random.default_rng(7))
    bad = tmp_path_factory.getbasetemp() / "fuzz.m3t"
    for damaged in cut_and_flip(data, blob):
        bad.write_bytes(damaged)
        with pytest.raises(CheckpointError):
            load_m3t(bad)
