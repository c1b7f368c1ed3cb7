"""Backbone geometry: stage schedule, windowing, cosine attention, and
the one (B, H, W, C) activation layout between layers."""

import numpy as np
import pytest

from m3ad import numerics as nm
from m3ad import backbone
from m3ad.backbone import (M3ADBlock, PatchEmbed, PatchMerge, WindowAttention,
                           effective_window, relative_position_index)
from m3ad.errors import ShapeError
from m3ad.heads_losses import TaskHeads
from m3ad.model import M3ADNet
from m3ad.moe import MMoELayer, Routing
from m3ad.numerics import Tensor
from m3ad.priors import Fusion

from conftest import div, matmul, one_step_each, stage_trace, tiny_model_config


def _stage_trace(model, hw):
    return stage_trace(model, np.zeros((1, *hw)), Routing())


def test_stage_plan_schedule_64_and_128():
    """Each stage's mixer kind, channels and token grid in the network."""
    model = M3ADNet(tiny_model_config(), seed=0)  # one block per stage
    assert [type(blk.mixer).__name__ for blk in model.blocks] == [
        "WindowAttention", "WindowAttention", "TokMLPBlock", "TokMLPBlock"]
    for size in (64, 128):
        trace = _stage_trace(model, (size, size))
        assert [channels for _, _, channels in trace] == [8, 16, 32, 64]
        assert [hw for _, hw, _ in trace] == [(size // (4 << s),) * 2 for s in range(4)]


def test_stage_plan_accepts_rectangles_and_rejects_odd_sizes():
    model = M3ADNet(tiny_model_config(), seed=0)
    assert _stage_trace(model, (64, 96))[3][1] == (2, 3)
    with pytest.raises(ShapeError):
        _stage_trace(model, (48, 64))  # stage 2's 3x4 grid cannot merge


def test_effective_window_always_tiles():
    assert effective_window(16, 16, 8) == 8
    assert effective_window(12, 12, 8) == 4
    assert effective_window(6, 4, 8) == 2
    assert effective_window(3, 3, 8) == 1
    assert effective_window(8, 4, 8) == 4
    for h in (2, 4, 6, 8, 12, 16, 24):
        for w in (2, 4, 6, 8, 12, 16, 24):
            m = effective_window(h, w, 8)
            assert h % m == 0 and w % m == 0 and m <= 8


# -- windows as a chain of engine ops, the oracle of the attention op's
# partition and its reverse


def _window_partition(x, m):
    """(B, H, W, C) -> (B*nH*nW, m*m, C), windows and tokens in raster order."""
    b, h, w, c = x.shape
    x = nm.reshape(x, (b, h // m, m, w // m, m, c))
    x = nm.transpose(x, (0, 1, 3, 2, 4, 5))
    return nm.reshape(x, (b * (h // m) * (w // m), m * m, c))


def _window_reverse(windows, m, b, h, w):
    """Inverse of :func:`_window_partition`."""
    c = windows.shape[-1]
    x = nm.reshape(windows, (b, h // m, w // m, m, m, c))
    x = nm.transpose(x, (0, 1, 3, 2, 4, 5))
    return nm.reshape(x, (b, h, w, c))


def test_window_partition_reverse_inverse(rng):
    x = Tensor(rng.standard_normal((2, 8, 12, 3)))
    for m in (1, 2, 4):
        back = _window_reverse(_window_partition(x, m), m, 2, 8, 12)
        np.testing.assert_array_equal(back.data, x.data)


def test_window_partition_block_contents(rng):
    x = rng.standard_normal((1, 4, 4, 1))
    wins = _window_partition(Tensor(x), 2).data  # (4, 4, 1)
    np.testing.assert_array_equal(wins[0, :, 0], x[0, 0:2, 0:2, 0].reshape(-1))
    np.testing.assert_array_equal(wins[1, :, 0], x[0, 0:2, 2:4, 0].reshape(-1))
    np.testing.assert_array_equal(wins[2, :, 0], x[0, 2:4, 0:2, 0].reshape(-1))
    np.testing.assert_array_equal(wins[3, :, 0], x[0, 2:4, 2:4, 0].reshape(-1))


def test_relative_position_index_hand_case():
    # 2x2 window, table for window 2: index = (dy + 1) * 3 + (dx + 1)
    idx = relative_position_index(2, 2)
    coords = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for q, (qy, qx) in enumerate(coords):
        for k, (ky, kx) in enumerate(coords):
            assert idx[q, k] == (qy - ky + 1) * 3 + (qx - kx + 1)


def test_relative_position_index_sub_block_of_larger_table():
    idx = relative_position_index(2, 4)  # 2x2 window over a table laid out for 4
    coords = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for q, (qy, qx) in enumerate(coords):
        for k, (ky, kx) in enumerate(coords):
            assert idx[q, k] == (qy - ky + 3) * 7 + (qx - kx + 3)
    assert idx.max() < (2 * 4 - 1) ** 2
    with pytest.raises(ShapeError):
        relative_position_index(5, 4)


def test_patch_embed_locality(rng):
    embed = PatchEmbed(rng, 4, 8, np.float64)
    img = rng.standard_normal((1, 16, 16))
    base = embed(Tensor(img)).data
    bumped = img.copy()
    bumped[0, 5, 9] += 1.0  # inside patch (1, 2) only
    out = embed(Tensor(bumped)).data
    changed = np.any(out != base, axis=-1)[0]
    expected = np.zeros((4, 4), dtype=bool)
    expected[1, 2] = True
    np.testing.assert_array_equal(changed, expected)
    with pytest.raises(ShapeError):
        embed(Tensor(rng.standard_normal((1, 15, 16))))


def test_patch_merge_quad_order(rng):
    merge = PatchMerge(rng, 1, np.float64)
    # selection matrices: output channel j picks quad j in order 00, 10, 01, 11
    merge.reduce.weight.data = np.eye(4, 2)
    x = rng.standard_normal((1, 4, 4, 1))
    out = merge(Tensor(x)).data
    np.testing.assert_array_equal(out[0, :, :, 0], x[0, 0::2, 0::2, 0])
    np.testing.assert_array_equal(out[0, :, :, 1], x[0, 1::2, 0::2, 0])
    merge.reduce.weight.data = np.eye(4)[:, 2:]
    out = merge(Tensor(x)).data
    np.testing.assert_array_equal(out[0, :, :, 0], x[0, 0::2, 1::2, 0])
    np.testing.assert_array_equal(out[0, :, :, 1], x[0, 1::2, 1::2, 0])
    with pytest.raises(ShapeError):
        merge(Tensor(rng.standard_normal((1, 3, 4, 1))))


def test_attention_single_token_window_is_projected_value(rng):
    attn = WindowAttention(rng, 6, 2, 4, np.float64, shifted=True)
    x = rng.standard_normal((3, 1, 6))
    out = attn(Tensor(x.reshape(3, 1, 1, 6))).data.reshape(3, 1, 6)  # 1x1 maps
    qkv = x @ attn.qkv.weight.data + attn.qkv.bias.data
    v = qkv[:, :, 12:]
    expected = v @ attn.proj.weight.data + attn.proj.bias.data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_attention_identical_keys_average_values(rng):
    attn = WindowAttention(rng, 4, 1, 2, np.float64, shifted=False)
    # zero the k columns of the qkv map and give them a constant bias so
    # every key is identical: attention must become uniform
    attn.qkv.weight.data[:, 4:8] = 0.0
    attn.qkv.bias.data[4:8] = 1.0
    x = rng.standard_normal((2, 4, 4))
    out = attn(Tensor(x.reshape(2, 2, 2, 4))).data.reshape(2, 4, 4)  # one window per map
    qkv = x @ attn.qkv.weight.data + attn.qkv.bias.data
    v = qkv[:, :, 8:]
    expected = np.repeat(v.mean(axis=1, keepdims=True), 4, axis=1)
    expected = expected @ attn.proj.weight.data + attn.proj.bias.data
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_attention_temperature_floor():
    rng = np.random.default_rng(0)
    attn = WindowAttention(rng, 4, 2, 4, np.float64, shifted=False)

    def tau():
        return attn._temperature().data

    np.testing.assert_allclose(tau(), 1.0, atol=1e-6)  # softplus(raw) = 0.99
    attn.tau_raw.data[:] = -200.0
    assert (tau() > 0.01).all()
    attn.tau_raw.data[:] = 100.0
    np.testing.assert_allclose(tau(), 100.01, atol=1e-6)


def test_attention_heads_must_divide_channels(rng):
    with pytest.raises(ShapeError):
        WindowAttention(rng, 6, 4, 4, np.float64, shifted=False)  # 6 % 4 != 0


def _block(rng, shifted):
    mixer = WindowAttention(rng, 8, 2, 4, np.float64, shifted=shifted)
    moe = MMoELayer(rng, 8, 8, 2, 1.0, np.float64)
    return M3ADBlock(mixer, moe, 8, np.float64)


def test_block_preserves_grid_shape(rng):
    block = _block(rng, shifted=True)
    x = Tensor(rng.standard_normal((2, 8, 8, 8)))
    out = block(x, Routing())
    assert out.shape == (2, 8, 8, 8)


def test_shift_disabled_when_map_equals_window(rng):
    shifted = _block(rng, shifted=True)
    plain = _block(rng, shifted=False)
    # same weights in both blocks
    for (_, a), (_, b) in zip(shifted.named_parameters().items(),
                              plain.named_parameters().items()):
        b.data = a.data.copy()
    x = Tensor(rng.standard_normal((2, 4, 4, 8)))
    routing = Routing()
    np.testing.assert_array_equal(shifted(x, routing).data, plain(x, routing).data)


def test_shifted_block_differs_on_larger_maps(rng):
    shifted = _block(rng, shifted=True)
    plain = _block(rng, shifted=False)
    for (_, a), (_, b) in zip(shifted.named_parameters().items(),
                              plain.named_parameters().items()):
        b.data = a.data.copy()
    x = Tensor(rng.standard_normal((2, 8, 8, 8)))
    routing = Routing()
    assert np.abs(shifted(x, routing).data - plain(x, routing).data).max() > 1e-8


# -- the fused attention op against the composite it replaced ------------


def _sqrt(a):
    data = np.sqrt(a.data)
    return nm._wrap(data, (a,), lambda g: (g * (0.5 / data),))


def _take(a, index):
    """Rows of ``a`` at ``index``; duplicate rows add their gradients."""
    def vjp(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        np.add.at(full, index, g)
        return (full,)

    return nm._wrap(np.take(a.data, index, axis=0), (a,), vjp)


def _composite_attention(qkv, tau, bias_table, index, heads):
    """Window attention as a chain of engine ops on a (windows, t, 3C)
    stack, the oracle of ``nm.cosine_attention``: 26 graph nodes where the
    op makes one."""
    bw, t, c3 = qkv.shape
    c = c3 // 3
    x = nm.transpose(nm.reshape(qkv, (bw, t, 3, heads, c // heads)), (2, 0, 3, 1, 4))
    q, k, v = x[0], x[1], x[2]
    qn = div(q, nm.clamp_min(_sqrt(nm.tsum(nm.mul(q, q), axis=-1, keepdims=True)), 1e-12))
    kn = div(k, nm.clamp_min(_sqrt(nm.tsum(nm.mul(k, k), axis=-1, keepdims=True)), 1e-12))
    cossim = matmul(qn, nm.transpose(kn, (0, 1, 3, 2)))
    scores = div(cossim, nm.reshape(tau, (1, heads, 1, 1)))
    bias = nm.transpose(nm.reshape(_take(bias_table, index), (t, t, heads)), (2, 0, 1))
    out = matmul(nm.softmax(nm.add(scores, bias), axis=-1), v)
    return nm.reshape(nm.transpose(out, (0, 2, 1, 3)), (bw, t, c))


def _composite_on_grid(qkv, tau, bias_table, index, heads, m):
    """The composite on the m x m windows of a (B, H, W, 3C) grid,
    partitioned and reversed by the oracle chain: the op's signature."""
    b, h, w, _ = qkv.shape
    out = _composite_attention(_window_partition(qkv, m), tau, bias_table, index, heads)
    return _window_reverse(out, m, b, h, w)


def _window_chain(qkv, tau, bias_table, index, heads, m):
    """Attention in the windows of a grid as the layers did it before the
    op took the grid: partition into a window stack, attend, reverse. The
    op runs on the stack as a batch of one-window maps, which is attention
    over a stack of windows."""
    b, h, w, c3 = qkv.shape
    windows = nm.reshape(_window_partition(qkv, m), (-1, m, m, c3))
    out = nm.cosine_attention(windows, tau, bias_table, index, heads, m)
    return _window_reverse(nm.reshape(out, (-1, m * m, c3 // 3)), m, b, h, w)


def _attention_case(dtype, case, seed):
    b, h, w, m, window, heads, hd, tau = case
    rng = np.random.default_rng(seed)
    c = heads * hd
    qkv = rng.standard_normal((b, h, w, 3 * c))
    tau = rng.uniform(0.05, 1.5, heads) if tau is None else np.full(heads, tau)
    table = 0.5 * rng.standard_normal(((2 * window - 1) ** 2, heads))
    seed_grad = rng.standard_normal((b, h, w, c)).astype(dtype)
    return [qkv, tau, table], relative_position_index(m, window).reshape(-1), seed_grad


def _run_attention(fn, arrays, index, heads, m, seed_grad):
    leaves = [Tensor(a.astype(seed_grad.dtype), requires_grad=True) for a in arrays]
    out = fn(*leaves, index, heads, m)
    out.backward(seed_grad)
    return [out.data] + [leaf.grad for leaf in leaves]


def _rel_err(got, want):
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale if scale else np.abs(got).max()


_TAU_FLOOR = float(np.nextafter(0.01, np.inf))

# (batch, H, W, m, table window, heads, head channels, tau): m = the
# table's window with four windows per map, m < window (a sub-block of the
# bias table), m = the whole map with tau at the floor (scores up to 100),
# one-token windows, and a rectangular grid
_ATTENTION_CASES = [(2, 8, 8, 4, 4, 2, 3, None), (1, 8, 8, 4, 8, 2, 4, None),
                    (3, 2, 2, 2, 4, 2, 4, _TAU_FLOOR), (1, 2, 3, 1, 4, 3, 2, None),
                    (1, 8, 12, 4, 4, 2, 3, None)]
# Bounds on the error relative to the largest magnitude of the output
# and of each gradient (qkv, tau, bias table). The op sums in another
# order (it reduces a score matrix along its other axis). Over 200 seeds
# of these cases the float64 errors stayed below 5e-15, and 9e-13 for
# the tau gradient: each softmax row of dS sums to zero, so the sum that
# makes dtau cancels. float32 stayed below 1e-6, and 1e-4 for dtau.
_BOUNDS = {np.float64: (1e-12, 1e-12, 1e-12, 1e-12), np.float32: (1e-5, 1e-5, 5e-4, 1e-5)}
_NAMES = ("out", "qkv", "tau", "bias_table")


@pytest.mark.parametrize("case", _ATTENTION_CASES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cosine_attention_matches_composite(case, dtype):
    arrays, index, g = _attention_case(dtype, case, seed=case[3])
    fused = _run_attention(nm.cosine_attention, arrays, index, case[5], case[3], g)
    oracle = _run_attention(_composite_on_grid, arrays, index, case[5], case[3], g)
    for name, got, want, bound in zip(_NAMES, fused, oracle, _BOUNDS[dtype]):
        assert got.dtype == dtype and got.shape == want.shape
        assert _rel_err(got, want) <= bound, name


@pytest.mark.parametrize("case", _ATTENTION_CASES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cosine_attention_on_grid_is_the_window_chain(case, dtype):
    """The op on the grid gives the bits of partition -> attention over
    the window stack -> reverse: output and every gradient."""
    arrays, index, g = _attention_case(dtype, case, seed=7)
    fused = _run_attention(nm.cosine_attention, arrays, index, case[5], case[3], g)
    chain = _run_attention(_window_chain, arrays, index, case[5], case[3], g)
    for name, got, want in zip(_NAMES, fused, chain):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want), name


def test_cosine_attention_rejects_untiled_grid():
    arrays, _, _ = _attention_case(np.float64, (1, 4, 6, 2, 4, 2, 2, None), seed=0)
    qkv, tau, table = (Tensor(a) for a in arrays)
    for m in (4, 3):
        index = relative_position_index(m, 4).reshape(-1)
        with pytest.raises(ShapeError, match=rf"qkv \(1, 4, 6, 12\).* {m}x{m} windows tiling"):
            nm.cosine_attention(qkv, tau, table, index, 2, m)
    with pytest.raises(ShapeError, match=r"index \(1,\)"):  # an index for another window
        nm.cosine_attention(qkv, tau, table, relative_position_index(1, 4).reshape(-1), 2, 2)
    with pytest.raises(ShapeError, match=r"not a \(B, H, W, 3C\) grid"):  # a window stack
        nm.cosine_attention(Tensor(arrays[0].reshape(6, 4, 12)), tau, table,
                            relative_position_index(2, 4).reshape(-1), 2, 2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cosine_attention_norm_clamp(dtype):
    """A q row and a k row with norms below the 1e-12 clamp: both are
    divided by the clamp, and no gradient flows through their norms. An
    exactly zero q row gives the composite's output and gradients, except
    in its own gradient, which is finite where the composite's sqrt vjp
    makes 0 * inf."""
    arrays, index, g = _attention_case(dtype, (1, 2, 6, 2, 4, 2, 3, None), seed=5)
    qkv = arrays[0]
    qkv[0, 0, 1, 0:3] = 1e-14  # window 0, token 1, head 0: q
    qkv[0, 0, 4, 9:12] = -3e-14  # window 2, token 0, head 1: k
    fused = _run_attention(nm.cosine_attention, arrays, index, 2, 2, g)
    oracle = _run_attention(_composite_on_grid, arrays, index, 2, 2, g)
    for got, want, bound in zip(fused, oracle, _BOUNDS[dtype]):
        assert _rel_err(got, want) <= bound
    qkv[0, 0, 1, 0:3] = 0.0
    fused = _run_attention(nm.cosine_attention, arrays, index, 2, 2, g)
    with np.errstate(invalid="ignore", divide="ignore"):
        oracle = _run_attention(_composite_on_grid, arrays, index, 2, 2, g)
    zero_row = (0, 0, 1, slice(0, 3))
    assert np.isnan(oracle[1][zero_row]).all() and np.isfinite(fused[1]).all()
    fused[1][zero_row] = oracle[1][zero_row] = 0.0
    for got, want, bound in zip(fused, oracle, _BOUNDS[dtype]):
        assert _rel_err(got, want) <= bound


def test_shifted_block_matches_composite_attention(monkeypatch):
    """A shifted attention block, its output and every parameter gradient,
    with the op and with the composite in its place."""
    rng = np.random.default_rng(8)
    block = _block(np.random.default_rng(9), shifted=True)
    x = Tensor(rng.standard_normal((2, 8, 8, 8)))
    seed = rng.standard_normal((2, 8, 8, 8))

    def run():
        block.zero_grad()
        out = block(x, Routing())
        out.backward(seed)
        return out.data, {name: p.grad for name, p in block.named_parameters().items()}

    fused, fused_grads = run()
    monkeypatch.setattr(nm, "cosine_attention", _composite_on_grid)
    oracle, oracle_grads = run()
    assert _rel_err(fused, oracle) <= 1e-12
    assert block.mixer.bias_table.grad is not None
    for name, grad in oracle_grads.items():
        if grad is None:  # the change gate
            assert fused_grads[name] is None
        else:
            assert _rel_err(fused_grads[name], grad) <= 1e-12, name


def _op_nodes(out):
    """Names of the ops of every graph node behind ``out``."""
    names, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._vjp is None:
            continue
        seen.add(id(node))
        names.append(node._vjp.__qualname__.split(".")[0])
        stack.extend(node._parents)
    return names


def test_window_attention_is_one_node(rng):
    attn = WindowAttention(rng, 8, 2, 4, np.float32, shifted=False)
    grid = Tensor(rng.standard_normal((3, 4, 4, 8)).astype(np.float32), requires_grad=True)
    ops = _op_nodes(attn(grid))
    assert ops.count("cosine_attention") == 1
    assert not {"softmax", "div", "_take", "getitem", "roll", "reshape", "transpose"} & set(ops)
    assert len(ops) == 6  # 1 per linear, 3 for tau, the op


def test_shifted_window_attention_rolls_once_each_way(rng):
    attn = WindowAttention(rng, 8, 2, 4, np.float32, shifted=True)
    grid = Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32), requires_grad=True)
    ops = _op_nodes(attn(grid))
    assert ops.count("roll") == 2
    assert len(ops) == 8


def test_patch_merge_slices_nothing(rng):
    merge = PatchMerge(rng, 4, np.float32)
    grid = Tensor(rng.standard_normal((2, 4, 4, 4)).astype(np.float32), requires_grad=True)
    ops = _op_nodes(merge(grid))
    assert not {"getitem", "concat"} & set(ops)


# -- one activation layout: the (B, H, W, C) grid ------------------------


def _grads_of(run, leaves):
    """``run()``'s outputs and the gradients of ``leaves`` after a
    backward of a fixed weighted sum of the outputs."""
    for leaf in leaves:
        leaf.grad = None
    outs = run()
    outs = outs if isinstance(outs, tuple) else (outs,)
    weights = np.random.default_rng(0)
    loss = None
    for out in outs:
        term = nm.mul(out, weights.standard_normal(out.shape).astype(out.dtype)).sum()
        loss = term if loss is None else nm.add(loss, term)
    loss.backward()
    return [out.data for out in outs], [leaf.grad for leaf in leaves]


def _block_on_tokens(block, x, routing):
    """An M3ADBlock with its MMoE layer on the flattened (B, L, C) tokens."""
    y = nm.add(block.mixer(block.norm1(x)), x)
    b, h, w, c = y.shape
    tokens = nm.reshape(block.norm2(y), (b, h * w, c))
    return nm.add(nm.reshape(block.moe(tokens, routing), (b, h, w, c)), y)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layers_on_the_grid_reshape_nothing(dtype, monkeypatch):
    """M3ADBlock (task gates and fixed weights), Fusion of each kind and
    TaskHeads take the (B, H, W, C) grid and build no reshape or transpose
    node over it; Fusion reshapes only its (B, C) prior and (B,) stream
    weights. Values and every gradient are the bits of the same layers on
    the flattened (B, L, C) tokens."""
    rng = np.random.default_rng(3)
    b, h, w, c = 4, 4, 6, 8
    grid = Tensor(rng.standard_normal((b, h, w, c)).astype(dtype), requires_grad=True)
    clinical = Tensor(rng.standard_normal((b, c)).astype(dtype), requires_grad=True)

    def flat(x):
        return nm.reshape(x, (b, h * w, c))

    def unflat(x):
        return nm.reshape(x, (b, h, w, c))

    block = M3ADBlock(WindowAttention(rng, c, 2, 4, dtype, shifted=True),
                      MMoELayer(rng, c, 8, 2, 1.0, dtype), c, dtype)
    fixed = Routing(weights=np.abs(rng.standard_normal((b, 8))).astype(dtype))
    heads = TaskHeads(rng, c, 3, dtype)
    cases = [(block, lambda r=r: block(grid, r), lambda r=r: _block_on_tokens(block, grid, r))
             for r in (Routing(), fixed)]
    for kind in ("adaptive", "concat", "add", "hadamard"):
        fus = Fusion(np.random.default_rng(5), kind, c, dtype)
        cases.append((fus, lambda fus=fus: fus(grid, clinical),
                      lambda fus=fus: unflat(fus(flat(grid), clinical))))
    cases.append((heads, lambda: heads(grid), lambda: heads(flat(grid))))
    for module, on_grid, on_tokens in cases:
        name = type(module).__name__
        leaves = [grid, clinical] + module.parameters()
        shapes = []
        with monkeypatch.context() as patch:
            for op_name in ("reshape", "transpose"):
                def spy(a, arg, op=getattr(nm, op_name)):
                    shapes.append(a.shape)
                    return op(a, arg)
                patch.setattr(nm, op_name, spy)
            got, got_grads = _grads_of(on_grid, leaves)
        assert all(len(shape) < 3 for shape in shapes), (name, shapes)
        want, want_grads = _grads_of(on_tokens, leaves)
        assert all(np.array_equal(g, t) for g, t in zip(got, want)), name
        assert got_grads[0] is not None
        for k, (g, t) in enumerate(zip(got_grads, want_grads)):
            assert (g is None) == (t is None) and (g is None or np.array_equal(g, t)), (name, k)


def _window_stack_attention(self, x):
    """WindowAttention as it ran before the op took the grid: roll,
    partition, qkv over the window stack, attention, proj, reverse, roll."""
    b, h, w, _ = x.shape
    m = effective_window(h, w, self.window)
    shift = m // 2 if self.shifted and (h > m or w > m) else 0
    if shift:
        x = nm.roll(x, (-shift,), (1, 2))
    qkv = self.qkv(_window_partition(x, m))
    out = nm.cosine_attention(nm.reshape(qkv, (-1, m, m, qkv.shape[-1])), self._temperature(),
                              self.bias_table, backbone._flat_index(m, self.window), self.heads, m)
    out = _window_reverse(self.proj(nm.reshape(out, (-1, m * m, out.shape[-1]))), m, b, h, w)
    return nm.roll(out, (shift,), (1, 2)) if shift else out


# bound on |difference| / largest |entry| of a stage-0 qkv or proj gradient
_ROW_ORDER_BOUND = {"float32": 1e-5, "float64": 1e-13}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_model_steps_match_window_stack_layout(dtype, monkeypatch):
    """One pretrain and one fine-tune step of a small model whose stage-0
    map holds four windows give the window-stack layout's losses, batch-1
    logits and gradients bit for bit, except the weight and bias gradients
    of the stage-0 qkv and proj linears. Those sum over the rows of the
    grid in raster order, where the window stack summed them window by
    window; the rounding that differs must stay within
    ``_ROW_ORDER_BOUND`` of the gradient's largest entry. Stage 1 holds
    one window per map, so the two orders agree there."""
    model = M3ADNet(tiny_model_config(depths=(2, 1, 1, 1), dtype=dtype), seed=1)
    assert [blk.mixer.window for blk in model.blocks[:2]] == [4, 4]  # 8x8 map at 32x32
    got = one_step_each(model, np.random.default_rng(7))
    monkeypatch.setattr(WindowAttention, "__call__", _window_stack_attention)
    want = one_step_each(model, np.random.default_rng(7))
    assert got.keys() == want.keys()
    reordered = {f"{stage}.blocks.{blk}.mixer.{lin}.{p}" for stage in ("pretrain", "finetune")
                 for blk in (0, 1) for lin in ("qkv", "proj") for p in ("weight", "bias")}
    assert reordered <= want.keys()
    for key in want:
        if key in reordered:
            scale = np.abs(want[key]).max()
            assert np.abs(got[key] - want[key]).max() <= _ROW_ORDER_BOUND[dtype] * scale, key
        else:
            assert np.array_equal(got[key], want[key]), key
