"""Engine tests: op values against independent oracles, backward
semantics, and the .m3t container."""

import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import cut_and_flip, m3t_with_header, matmul
from m3ad import entry
from m3ad import numerics as nm
from m3ad.errors import CheckpointError, ConfigError, ContractError, ShapeError
from m3ad.moe import MMoELayer
from m3ad.numerics import (LayerNorm, Linear, Module, Tensor, grad_check,
                           load_m3t, no_grad, save_m3t)


def t64(rng, *shape, grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=grad)


# -- value oracles -----------------------------------------------------

# matmul is the oracle op of conftest that the bit-for-bit chains of
# linear, cosine_attention and conv3x3 are built from


def test_matmul_matches_triple_loop(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    expected = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


def test_batched_matmul_matches_loop(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 5))
    out = matmul(Tensor(a), Tensor(b))
    for i in range(2):
        np.testing.assert_allclose(out.data[i], a[i] @ b[i], atol=1e-12)


def test_matmul_shape_errors(rng):
    with pytest.raises(ShapeError):
        matmul(t64(rng, 3), t64(rng, 3, 2))
    with pytest.raises(ShapeError):
        matmul(t64(rng, 3, 4), t64(rng, 5, 2))
    with pytest.raises(ShapeError):
        matmul(t64(rng, 2, 3, 4), t64(rng, 3, 4, 2))
    with pytest.raises(ShapeError):  # no batch broadcasting of a 2-D operand
        matmul(t64(rng, 2, 3, 4), t64(rng, 4, 2))


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
def test_gelu_slope_is_computed_only_when_recording(rng, dtype, monkeypatch):
    """A recorded GELU keeps Phi, from which the vjp's slope and, on
    request, the GELU itself are rebuilt bit for bit; an unrecorded one
    makes no Phi."""
    x = (rng.standard_normal(1000) * 3).astype(dtype)
    if dtype == np.float32:
        erf, expected_value, expected_slope = _gelu32_reference(x)
        expected_phi = np.float32(0.5) * (np.float32(1) + erf)
    else:
        u = x * np.asarray(0.7071067811865476, dtype=dtype)
        erf = nm._erf(u)
        assert _ulps(erf, special.erf(u)).max() <= _ERF_ULPS
        expected_phi = 0.5 * (1.0 + erf)
        pdf = np.asarray(0.3989422804014327, dtype=dtype) * np.exp(-0.5 * x * x)
        expected_value, expected_slope = x * expected_phi, expected_phi + x * pdf
    value, phi = nm._gelu(x, keep_phi=True)
    assert value.dtype == phi.dtype == dtype
    assert np.array_equal(value, expected_value)
    assert np.array_equal(phi, expected_phi)
    assert np.array_equal(nm._gelu_slope(x, phi.copy()), expected_slope)
    h = x.copy()
    assert np.array_equal(nm._gelu_slope(h, phi, value=True), expected_slope)
    assert np.array_equal(h, expected_value)
    with pytest.raises(ContractError):  # the GELU is rebuilt only in place
        nm._gelu_slope(x[::2], phi[::2], value=True)
    value_only, none = nm._gelu(x, keep_phi=False)
    assert np.array_equal(value_only, value) and none is None
    h = x.copy()
    in_place, phi_again = nm._gelu(h, keep_phi=True, out=h)
    assert in_place is h and np.array_equal(h, value)
    assert np.array_equal(phi_again, expected_phi)
    with pytest.raises(ContractError):
        nm._gelu(x[::2], keep_phi=False, out=h[::2])

    kept = []
    real_gelu = nm._gelu
    monkeypatch.setattr(nm, "_gelu", lambda a, keep_phi, out=None: kept.append(keep_phi) or
                        real_gelu(a, keep_phi, out))
    leaf = Tensor(x, requires_grad=True)
    with no_grad():
        assert nm.gelu(leaf)._vjp is None
    assert nm.gelu(Tensor(x))._vjp is None
    assert kept == [False, False]
    out = nm.gelu(leaf)
    assert kept[-1] is True
    out.backward(np.ones_like(x))
    assert np.array_equal(leaf.grad, expected_slope)


def test_float32_gelu_tolerance_on_a_grid():
    """2M points in [-10, 10]: the kernel is the pinned rational; its erf
    is within 5e-7 of float64 and odd bit for bit, its slope within 1e-6,
    and it saturates exactly (4*sqrt2 / sqrt2 rounds below 4 in float32,
    so the clamp starts just above 4*sqrt2 = 5.657)."""
    x = np.linspace(-10, 10, 2_000_001).astype(np.float32)
    erf, value, slope = _gelu32_reference(x)
    got_value, got_phi = nm._gelu(x, keep_phi=True)
    assert np.array_equal(got_value, value)
    assert np.array_equal(nm._gelu_slope(x, got_phi), slope)
    x64 = x.astype(np.float64)
    erf64 = special.erf(x64 / np.sqrt(2.0))
    assert np.abs(erf - erf64).max() <= 5e-7
    slope64 = 0.5 * (1.0 + erf64) + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
    assert np.abs(slope - slope64).max() <= 1e-6
    assert np.array_equal(_gelu32_reference(-x)[0], -erf)
    far = np.abs(x) >= 5.66
    assert np.array_equal(value[far], np.where(x[far] > 0, x[far], 0))


def test_float32_gelu_keeps_the_bits_of_the_one_plus_erf_form(rng):
    """The kernel adds 0.5 to erf / 2, from a halved numerator, in place
    of halving 1 + erf, and builds Phi in the kept array: value, Phi and
    slope keep the bits of the reference, which takes the old form, at
    +-0, subnormals, the smallest normals, +-inf, around the saturation
    points +-4*sqrt2 and on random draws of every scale."""
    f32 = np.finfo(np.float32)
    tiny = np.array([f32.smallest_subnormal, 3 * f32.smallest_subnormal, 1e-40, 1e-39,
                     np.nextafter(f32.smallest_normal, np.float32(0)), f32.smallest_normal,
                     2 * f32.smallest_normal, 1e-30, 1e-20], np.float32)
    edge = np.float32(4 * np.sqrt(2.0))
    saturation = [edge]
    for _ in range(4):
        saturation = ([np.nextafter(saturation[0], np.float32(0))] + saturation
                      + [np.nextafter(saturation[-1], np.float32(np.inf))])
    special = np.array([0.0, np.inf, 5.66, 1e30, f32.max, *saturation, *tiny], np.float32)
    draws = [rng.standard_normal(100_000).astype(np.float32) * scale
             for scale in (1e-30, 1e-3, 1.0, 3.0, 10.0)]
    x = np.concatenate([special, -special, *draws])
    # -inf * Phi(-inf) is -inf * 0, and the pdf squares the largest x
    with np.errstate(invalid="ignore", over="ignore"):
        erf, value, slope = _gelu32_reference(x)
        phi = np.float32(0.5) * (np.float32(1) + erf)
        got_value, got_phi = nm._gelu(x, keep_phi=True)
        got_slope = nm._gelu_slope(x, got_phi.copy())
        value_only, _ = nm._gelu(x, keep_phi=False)
    for got, want in ((got_value, value), (got_phi, phi), (got_slope, slope),
                      (value_only, value)):
        assert got.tobytes() == want.tobytes()
    assert np.isnan(got_value[special.size + 1])  # the GELU of -inf


def test_float32_gelu_bits_do_not_depend_on_blocking(rng):
    """Across block edges, on contiguous and strided input, each element
    gets the value, Phi and slope it gets when its small slice is
    evaluated alone; the blocked float64 slope too."""
    n = 2 * nm._GELU_BLOCK + 3
    base = (rng.standard_normal(2 * n) * 3).astype(np.float32)
    for x in (base[:n], base[::2], base[:n].astype(np.float64)):
        value, phi = nm._gelu(x, keep_phi=True)
        slope = nm._gelu_slope(x, phi.copy())
        for start in range(0, n, 4093):
            part = x[start:start + 4093]
            part_value, part_phi = nm._gelu(part, keep_phi=True)
            assert np.array_equal(value[start:start + 4093], part_value)
            assert np.array_equal(phi[start:start + 4093], part_phi)
            assert np.array_equal(slope[start:start + 4093], nm._gelu_slope(part, part_phi))


def _ulps(got, ref):
    """|got - ref| in units of the spacing of ref's dtype at ref."""
    spacing = np.spacing(np.abs(ref)).astype(np.float64)
    return np.abs(got.astype(np.float64) - ref.astype(np.float64)) / spacing


# ulp bounds against scipy's expit and erf. A sweep of 46M draws and grid
# points per dtype (normal draws at scales 0.5 to 30, a grid over
# [-120, 120]) reached 4 ulp for the logistic sigmoid in float32 and in
# float64; 67M points for erf (normal draws at scales 0.3 to 4, dense
# grids over [0, 7] around each range's end) reached 7 ulp. Each bound
# adds one ulp of margin.
_EXPIT_ULPS = 5
_ERF_ULPS = 8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_expit_is_within_ulps_of_scipy(dtype):
    """1M draws over the sigmoid's whole range, and its extremes, in the
    input's dtype, without a numpy warning where exp overflows."""
    rng = np.random.default_rng(11)
    x = (rng.standard_normal(1 << 20) * np.repeat([0.5, 2.0, 8.0, 30.0], 1 << 18)).astype(dtype)
    extremes = np.array([0.0, -0.0, 100.0, -100.0, np.inf, -np.inf], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ends = nm._expit(x), nm._expit(extremes)
    assert got.dtype == ends.dtype == dtype
    assert _ulps(got, special.expit(x)).max() <= _EXPIT_ULPS
    assert np.array_equal(ends, special.expit(extremes))
    assert ends[0] == ends[1] == 0.5 and ends[4] == 1 and ends[5] == 0
    assert np.isnan(nm._expit(np.array([np.nan], dtype))).all()


def test_erf_is_within_ulps_of_scipy_and_odd():
    """1M draws across Cody's three ranges, and a grid over each range's
    ends: within the bound, erf(-x) = -erf(x) bit for bit, +-inf maps to
    +-1 and NaN stays NaN, without a numpy warning; the shape and bits do
    not depend on the array's layout."""
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.standard_normal(1 << 20) * np.repeat([0.3, 1.0, 2.0, 4.0], 1 << 18),
                        np.linspace(0.4, 0.5, 10_001), np.linspace(3.9, 6.5, 10_001)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nm._erf(x)
        ends = nm._erf(np.array([np.inf, -np.inf, np.nan, 1e200, -0.0]))
    assert _ulps(got, special.erf(x)).max() <= _ERF_ULPS
    assert np.array_equal(nm._erf(-x).view(np.int64), (-got).view(np.int64))
    assert np.array_equal(ends[:2], [1.0, -1.0]) and np.isnan(ends[2]) and ends[3] == 1.0
    assert ends[4] == 0 and np.signbit(ends[4])
    grid = x[:6 * 7].reshape(6, 7)
    assert nm._erf(grid.T).shape == (7, 6)
    assert np.array_equal(nm._erf(grid.T), nm._erf(np.ascontiguousarray(grid.T)))


def test_loading_a_tensor_file_holds_no_second_copy(tmp_path, rng):
    """Reading 8 MiB of payloads allocates little beyond the arrays it
    returns: no whole-file buffer, no copy out of one."""
    arrays = {"a": rng.standard_normal((1024, 1024)).astype(np.float32),
              "b": rng.standard_normal((256, 1024)),
              "c": rng.standard_normal((512, 1024)).astype(np.float32)}
    payload = sum(arr.nbytes for arr in arrays.values())
    path = tmp_path / "big.m3t"
    save_m3t(path, arrays, {"stage": "test"})
    tracemalloc.start()
    try:
        header, back = load_m3t(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert header == {"stage": "test"}
    assert all(np.array_equal(back[name], arr) for name, arr in arrays.items())
    assert peak <= 1.1 * payload, f"peak {peak} bytes for {payload} bytes of payload"


def test_importing_the_cli_loads_no_scipy():
    """NumPy is the only run-time dependency: scipy is for the tests."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(entry.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                          "import m3ad.cli; print(sorted(m for m in sys.modules "
                          "if m.split('.')[0] == 'scipy'))", src],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_importing_the_entry_module_loads_no_numpy():
    """The console script pins BLAS at one thread in ``entry.cap_threads``,
    which works only before numpy's first import; so neither the import
    nor the call, which sets the allocator through ctypes, loads numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(entry.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                          "import m3ad.entry; print('numpy' in sys.modules); "
                          "m3ad.entry.cap_threads(); print('numpy' in sys.modules)", src],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# Ten 4 MiB float32 arrays filled and freed per cycle, on a pool worker
# thread, as the engine's experts, and on the main thread; prints the
# minor page faults per cycle after 10 warm-up cycles, and how many MiB
# the resident set grew by from numpy's import on. (A child's ru_maxrss
# may start at its parent's resident set, so /proc is read instead.)
_FREED_MEMORY_SCRIPT = """
import importlib.util, os, resource, sys
from concurrent.futures import ThreadPoolExecutor
spec = importlib.util.spec_from_file_location("_m3ad_entry", sys.argv[1])
entry = importlib.util.module_from_spec(spec)
spec.loader.exec_module(entry)
entry.cap_threads()
import numpy as np

def rss_mib():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

rss = rss_mib()

def cycle():
    arrays = [np.empty(1 << 20, np.float32) for _ in range(10)]
    for arr in arrays:
        arr.fill(1.0)

pool = ThreadPoolExecutor(max_workers=1)
def both():
    pool.submit(cycle).result()
    cycle()

for _ in range(10):
    both()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(40):
    both()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40, rss_mib() - rss)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the allocator thresholds are glibc's")
def test_cap_threads_keeps_freed_memory_unless_the_user_set_the_allocator():
    """After ``cap_threads`` a cycle reuses the pages the last one freed,
    and both threads share them: the process keeps one thread's 40 MiB,
    not 40 MiB per thread. The user's own MALLOC_*_THRESHOLD_
    variables or glibc.malloc tunables win over it, and then each cycle
    faults its arrays in again. NumPy's huge-page advice is off, so that
    a fault is one page."""
    path = os.path.abspath(entry.__file__)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"

    def faults_per_cycle_and_growth(**user):
        out = subprocess.run([sys.executable, "-c", _FREED_MEMORY_SCRIPT, path],
                             env={**env, **user}, capture_output=True, text=True,
                             check=True, timeout=120)
        return tuple(map(float, out.stdout.split()))

    faults, growth_mib = faults_per_cycle_and_growth()
    assert faults <= 10 and growth_mib <= 60
    faults, _ = faults_per_cycle_and_growth(MALLOC_TRIM_THRESHOLD_="0",
                                            MALLOC_MMAP_THRESHOLD_="131072")
    assert faults >= 1000
    faults, _ = faults_per_cycle_and_growth(
        GLIBC_TUNABLES="glibc.malloc.trim_threshold=0:glibc.malloc.mmap_threshold=131072")
    assert faults >= 1000


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
    for bad in ("0", "two", "-1", "²"):
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


def test_backward_consumes_its_graph(rng):
    """A graph serves one backward: a second pass over the same root, a
    second loss over a consumed subgraph and a new op on a consumed
    intermediate all raise, and leave the leaf gradient as it was."""
    p = t64(rng, 3)
    shared = nm.mul(p, 2.0)
    loss, other = nm.add(shared, 1.0).sum(), nm.mul(shared, 3.0).sum()
    loss.backward()
    np.testing.assert_array_equal(p.grad, np.full(3, 2.0))
    again = [loss.backward, other.backward, lambda: nm.mul(shared, 5.0).sum().backward()]
    for backward in again:
        with pytest.raises(ContractError, match="consumed by backward"):
            backward()
    np.testing.assert_array_equal(p.grad, np.full(3, 2.0))


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
    out = nm.mul(nm.add(nm.mul(p, -1.0), 1.0), 0.5)  # (1 - p) / 2
    out.sum().backward()
    np.testing.assert_allclose(p.grad, np.full((2, 2), -0.5), atol=1e-12)


def test_diamond_graph_accumulates_through_shared_node(rng):
    p = t64(rng, 3)
    shared = nm.mul(p, 2.0)
    out = nm.add(shared, nm.mul(shared, 3.0)).sum()  # d/dp = 2 + 6
    out.backward()
    np.testing.assert_allclose(p.grad, np.full(3, 8.0), atol=1e-12)


# Graphs whose nodes must not keep an array that no vjp reads. Each
# builder takes its leaves, a list ``keep`` that gets those arrays, and a
# monkeypatch context for spying on arrays made inside an op; it returns
# a scalar loss.


def _spy(patch, owner, name, keep):
    """Wrap ``owner.name`` so every array it makes also goes to ``keep``."""
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        out = fn(*args, **kwargs)
        keep.append(out.data if isinstance(out, Tensor) else out)
        return out

    patch.setattr(owner, name, spy)


def _linear_output(leaves, keep, patch):
    """Linear's output, which neither its node nor the softplus after it
    reads; the node keeps x's rows and the weight instead (see
    ``test_linear_node_keeps_rows_and_weight``)."""
    x, weight, bias = leaves
    lin = Linear(np.random.default_rng(0), 4, 3, np.float64)
    lin.weight, lin.bias = weight, bias
    y = lin(nm.mul(x, 2.0))
    keep.append(y.data.base)  # y.data is a view of the (10, 3) product
    s = nm.softplus(y)
    return nm.mul(s, s).sum()


def _add_operands(leaves, keep, patch):
    a, b = leaves
    left, right = nm.mul(a, 2.0), nm.mul(b, b)
    keep += [left.data, right.data]
    return nm.mul(nm.add(left, right), a).sum()


def _reduced_inputs(leaves, keep, patch):
    """The inputs of tsum and tmean."""
    a, b = leaves
    summed, averaged = nm.mul(a, b), nm.mul(a, 3.0)
    keep += [summed.data, averaged.data]
    s, m = nm.tsum(summed, axis=1), nm.tmean(averaged, axis=0, keepdims=True)
    return nm.add(nm.mul(s, s).sum(), nm.mul(m, m).sum())


def _conv_padding(op, leaves, keep, patch):
    """The zero-padded copy of a convolution's input, dead once the op
    returns, and the input itself; the node keeps the tap stack."""
    a, weight, bias = leaves
    x = nm.mul(a, 2.0)
    keep.append(x.data)
    _spy(patch, np, "zeros", keep)
    y = op(x, weight, bias)
    return nm.mul(y, y).sum()


def _conv3x3_padding(leaves, keep, patch):
    return _conv_padding(nm.conv3x3, leaves, keep, patch)


def _dwconv3x3_padding(leaves, keep, patch):
    return _conv_padding(nm.dwconv3x3, leaves, keep, patch)


def _attention_qkv(leaves, keep, patch):
    """The qkv buffer cosine_attention reads v from."""
    a, tau, table = leaves
    qkv = nm.mul(a, 1.5)
    keep.append(qkv.data)
    out = nm.cosine_attention(qkv, tau, table, np.arange(16) % 7, heads=2, m=2)
    return nm.mul(out, out).sum()


def _gate_logits(leaves, keep, patch):
    """An MMoE task gate's input grid, the outputs of its affine maps,
    its logits and their exp; the node keeps the row means, the sigmoid,
    the task blocks and the softmax instead."""
    a, attn_weight, attn_bias, diagnosis, change = leaves
    layer = MMoELayer(np.random.default_rng(0), 4, 3, 1, 0.7, np.float64)
    layer.feature_attn.weight, layer.feature_attn.bias = attn_weight, attn_bias
    layer.gate_diagnosis.weight, layer.gate_change.weight = diagnosis, change
    x = nm.mul(a, 2.0)
    keep.append(x.data)
    for owner, name in ((nm, "_affine"), (np, "concatenate"), (np, "exp")):
        _spy(patch, owner, name, keep)
    p = layer.gate_weights(x)
    return nm.mul(p, p).sum()


_GRAPH_CASES = [  # builder, leaf shapes
    (_linear_output, [(2, 5, 4), (4, 3), (3,)]),
    (_add_operands, [(3, 4), (1, 4)]),
    (_reduced_inputs, [(3, 4), (3, 4)]),
    (_conv3x3_padding, [(2, 3, 4, 5), (3, 3, 5, 6), (6,)]),
    (_dwconv3x3_padding, [(2, 3, 4, 5), (3, 3, 5), (5,)]),
    (_attention_qkv, [(1, 2, 6, 12), (2,), (7, 2)]),
    (_gate_logits, [(4, 2, 3, 4), (4, 4), (4,), (4, 3), (4, 3)]),
]


@pytest.mark.parametrize("build, shapes", _GRAPH_CASES,
                         ids=[build.__name__[1:] for build, _ in _GRAPH_CASES])
def test_graph_keeps_no_array_that_no_vjp_reads(build, shapes, monkeypatch):
    """Once the caller drops its tensors, an array no vjp reads is freed
    at once, before backward and without a garbage collection; the
    gradients equal those of a graph whose caller keeps every array."""
    rng = np.random.default_rng(8)
    leaves = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    keep = []
    with monkeypatch.context() as patch:
        loss = build(leaves, keep, patch)
    refs = [weakref.ref(arr) for arr in keep]
    assert refs
    del keep
    assert [ref() is None for ref in refs] == [True] * len(refs)
    loss.backward()
    dropped = [p.grad for p in leaves]

    for p in leaves:
        p.grad = None
    keep = []
    with monkeypatch.context() as patch:
        loss = build(leaves, keep, patch)
    loss.backward()
    for p, grad in zip(leaves, dropped):
        assert np.array_equal(p.grad, grad)


def test_dtype_mismatch_rejected(rng):
    a = Tensor(np.zeros(3, dtype=np.float32))
    b = Tensor(np.zeros(3, dtype=np.float64))
    with pytest.raises(ShapeError):
        nm.add(a, b)
    with pytest.raises(ShapeError):
        nm.conv3x3(Tensor(np.zeros((1, 2, 2, 3), dtype=np.float32)),
                   Tensor(np.zeros((3, 3, 3, 2), dtype=np.float64)),
                   Tensor(np.zeros(2, dtype=np.float32)))


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
    # 5 channels in groups of 3 and 2, each rolled along both axes
    p = t64(rng, 2, 4, 4, 5)
    out = nm.roll(p, (1, -2), (1, 2))
    np.testing.assert_array_equal(out.data[..., :3], np.roll(p.data[..., :3], 1, axis=(1, 2)))
    np.testing.assert_array_equal(out.data[..., 3:], np.roll(p.data[..., 3:], -2, axis=(1, 2)))
    seed = rng.standard_normal((2, 4, 4, 5))
    out.backward(seed)
    np.testing.assert_array_equal(p.grad[..., :3], np.roll(seed[..., :3], -1, axis=(1, 2)))
    np.testing.assert_array_equal(p.grad[..., 3:], np.roll(seed[..., 3:], 2, axis=(1, 2)))


def test_taps3x3_zero_padded_neighbours_and_gradient(rng):
    """The convolutions' private tap stack and its vjp."""
    x = rng.standard_normal((2, 3, 4, 5))
    taps = nm._taps(x)
    assert taps.shape == (9, 2, 3, 4, 5)
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    for k in range(9):
        dy, dx = divmod(k, 3)
        np.testing.assert_array_equal(taps[k], padded[:, dy:dy + 3, dx:dx + 4])
    grad = nm._taps_vjp(np.ones_like(taps))
    # each cell is seen by one tap per neighbour inside the grid
    inside = np.pad(np.ones((3, 4)), 1)
    counts = sum(inside[dy:dy + 3, dx:dx + 4] for dy in range(3) for dx in range(3))
    np.testing.assert_array_equal(grad, np.broadcast_to(counts[None, :, :, None], x.shape))


@pytest.mark.parametrize("op, x, weight, bias", [
    ("conv3x3", (4, 4, 3), (3, 3, 3, 2), (2,)),  # x not a grid
    ("conv3x3", (1, 4, 4, 3), (3, 3, 2, 2), (2,)),  # Cin differs
    ("conv3x3", (1, 4, 4, 3), (3, 3, 3), (3,)),  # a depthwise weight
    ("conv3x3", (1, 4, 4, 3), (2, 2, 3, 2), (2,)),  # a 2x2 kernel
    ("conv3x3", (1, 4, 4, 3), (3, 3, 3, 2), (3,)),  # bias of Cin
    ("dwconv3x3", (4, 4, 3), (3, 3, 3), (3,)),
    ("dwconv3x3", (1, 4, 4, 3), (3, 3, 3, 3), (3,)),  # a full weight
    ("dwconv3x3", (1, 4, 4, 3), (3, 3, 2), (3,)),
    ("dwconv3x3", (1, 4, 4, 3), (3, 3, 3), (1,)),
])
def test_convolutions_reject_misfit_operands(op, x, weight, bias):
    operands = [Tensor(np.zeros(shape)) for shape in (x, weight, bias)]
    with pytest.raises(ShapeError):
        getattr(nm, op)(*operands)


@pytest.mark.parametrize("op, weight", [("conv3x3", (3, 3, 3, 2)), ("dwconv3x3", (3, 3, 3))])
@pytest.mark.parametrize("odd", range(3))
def test_convolutions_reject_mixed_dtypes(op, weight, odd):
    shapes = ((1, 4, 4, 3), weight, weight[-1:])
    operands = [Tensor(np.zeros(shape, dtype=np.float32 if i == odd else np.float64))
                for i, shape in enumerate(shapes)]
    with pytest.raises(ShapeError):
        getattr(nm, op)(*operands)


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


def _linear_chain(x, weight, bias):
    """Linear as reshape -> matmul -> add -> reshape, four graph nodes."""
    flat = nm.reshape(x, (-1, x.shape[-1])) if x.ndim != 2 else x
    y = matmul(flat, weight)
    if bias is not None:
        y = nm.add(y, bias)
    return nm.reshape(y, x.shape[:-1] + (weight.shape[1],)) if x.ndim != 2 else y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("shape", [(6, 4), (2, 3, 4), (2, 2, 3, 4)])
def test_linear_is_one_node_with_the_chains_bits(shape, bias, dtype):
    """A Linear call is one ``linear`` node straight over its input and
    parameters; its value and every gradient are those of the four-node
    chain, bit for bit."""
    rng = np.random.default_rng(12)
    lin = Linear(rng, 4, 3, dtype, bias=bias)
    for p in lin.parameters():
        p.data[...] = rng.standard_normal(p.shape)
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    w = rng.standard_normal(shape[:-1] + (3,)).astype(dtype)
    leaves = [x] + lin.parameters()
    out = lin(x)
    assert out._vjp.__qualname__.split(".")[0] == "linear"
    assert out._parents == tuple(leaves)
    chain = _linear_chain(x, lin.weight, lin.bias)
    assert np.array_equal(out.data, chain.data) and out.dtype == dtype
    grads = []
    for y in (out, chain):
        for p in leaves:
            p.grad = None
        nm.mul(y, w).sum().backward()
        grads.append([p.grad for p in leaves])
    for got, want in zip(*grads):
        assert got.dtype == dtype and np.array_equal(got, want)


def test_linear_node_keeps_rows_and_weight(rng):
    """With x and the weight op outputs whose Tensors the caller drops,
    the node still holds their arrays, which its vjp reads, but not its
    own output."""
    x, weight = nm.mul(t64(rng, 2, 5, 4), 2.0), nm.mul(t64(rng, 4, 3), 0.5)
    y = nm.linear(x, weight, t64(rng, 3))
    refs = [weakref.ref(a) for a in (x.data, weight.data, y.data.base)]
    loss = nm.softplus(y).sum()
    del x, weight, y
    assert [ref() is None for ref in refs] == [False, False, True]
    loss.backward()


def test_linear_rejects_misfit_operands(rng):
    with pytest.raises(ShapeError, match="do not fit"):
        nm.linear(t64(rng, 2, 4), t64(rng, 3, 2), None)
    with pytest.raises(ShapeError, match="do not fit"):
        nm.linear(t64(rng, 2, 4), t64(rng, 4, 2), t64(rng, 3))
    x32 = Tensor(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="float32.*float64"):
        nm.linear(x32, t64(rng, 4, 2), None)
    with pytest.raises(ShapeError, match="float32.*float32.*float64"):
        nm.linear(x32, Tensor(np.zeros((4, 2), dtype=np.float32)), t64(rng, 2))


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
    err = grad_check(lambda: nm.mul(nm.softplus(p), p).sum(), [p], rng=rng)
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
