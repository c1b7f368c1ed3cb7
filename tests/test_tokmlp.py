"""Tokenized-MLP mixer: channel-group shifts and convolution oracles."""

from collections import Counter

import numpy as np
import pytest

from m3ad.model import M3ADNet
from m3ad.numerics import Tensor, conv3x3, dwconv3x3
from m3ad.tokmlp import SHIFT_OFFSETS, TokMLPBlock
from m3ad import numerics as nm

from conftest import matmul, one_step_each, tiny_model_config
from test_backbone import _op_nodes


def _conv_oracle(x, w, b):
    """Sliding-window reference: explicit loops, zero padding 1."""
    bsz, h, wid, cin = x.shape
    cout = w.shape[-1]
    xp = np.zeros((bsz, h + 2, wid + 2, cin))
    xp[:, 1:-1, 1:-1, :] = x
    out = np.zeros((bsz, h, wid, cout))
    for n in range(bsz):
        for i in range(h):
            for j in range(wid):
                for dy in range(3):
                    for dx in range(3):
                        for ci in range(cin):
                            out[n, i, j] += xp[n, i + dy, j + dx, ci] * w[dy, dx, ci]
    return out + b


def _dwconv_oracle(x, w, b):
    bsz, h, wid, c = x.shape
    xp = np.zeros((bsz, h + 2, wid + 2, c))
    xp[:, 1:-1, 1:-1, :] = x
    out = np.zeros((bsz, h, wid, c))
    for dy in range(3):
        for dx in range(3):
            out += xp[:, dy:dy + h, dx:dx + wid, :] * w[dy, dx]
    return out + b


def test_conv3x3_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 5, 4, 3))
    w = rng.standard_normal((3, 3, 3, 2))
    b = rng.standard_normal(2)
    out = conv3x3(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, _conv_oracle(x, w, b), atol=1e-12)


def test_dwconv3x3_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 4, 5, 3))
    w = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal(3)
    out = dwconv3x3(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, _dwconv_oracle(x, w, b), atol=1e-12)


# the block's axis shifts: one nm.roll over SHIFT_OFFSETS channel groups


def test_axis_shift_one_channel_per_offset(rng):
    x = rng.standard_normal((1, 6, 6, 5))
    out = nm.roll(Tensor(x), SHIFT_OFFSETS, (2,)).data
    for ch, off in enumerate(SHIFT_OFFSETS):
        np.testing.assert_array_equal(out[..., ch], np.roll(x[..., ch], off, axis=2))


def test_axis_shift_uneven_groups(rng):
    # 7 channels over 5 offsets split 2,2,1,1,1 (leading groups larger);
    # 3 channels over 5 offsets leave the last two groups empty
    for c, groups in ((7, [(0, 1), (2, 3), (4,), (5,), (6,)]), (3, [(0,), (1,), (2,), (), ()])):
        x = rng.standard_normal((1, 4, 4, c))
        out = nm.roll(Tensor(x), SHIFT_OFFSETS, (1,)).data
        for off, chans in zip(SHIFT_OFFSETS, groups):
            for ch in chans:
                np.testing.assert_array_equal(out[..., ch], np.roll(x[..., ch], off, axis=1))


def test_axis_shift_zero_offset_passthrough(rng):
    x = Tensor(rng.standard_normal((1, 3, 3, 4)), requires_grad=True)
    out = nm.roll(x, (0,), (1,))
    np.testing.assert_array_equal(out.data, x.data)
    seed = rng.standard_normal((1, 3, 3, 4))
    out.backward(seed)
    np.testing.assert_array_equal(x.grad, seed)


def test_tokmlp_block_shape_and_determinism(rng):
    block = TokMLPBlock(np.random.default_rng(5), 8, np.float64)
    x = rng.standard_normal((2, 6, 6, 8))
    out1 = block(Tensor(x))
    out2 = block(Tensor(x))
    assert out1.shape == (2, 6, 6, 8)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_tokmlp_height_path_zeroed_reduces_to_width_tokens(rng):
    block = TokMLPBlock(np.random.default_rng(5), 8, np.float64)
    block.mlp_h.weight.data[:] = 0.0
    block.mlp_h.bias.data[:] = 0.0
    x = Tensor(rng.standard_normal((1, 4, 4, 8)))
    width_tokens = block.tokenize(nm.roll(x, SHIFT_OFFSETS, (2,)))
    expected = nm.gelu(block.norm(width_tokens))
    np.testing.assert_array_equal(block(x).data, expected.data)


def test_block_shifts_are_two_roll_nodes(rng):
    """A block is 12 graph nodes, one per layer: each shift one roll and
    each convolution one node, no chain of generic ops."""
    block = TokMLPBlock(np.random.default_rng(5), 10, np.float32)
    x = Tensor(rng.standard_normal((2, 4, 4, 10)).astype(np.float32), requires_grad=True)
    ops = _op_nodes(block(x))
    assert Counter(ops) == {"roll": 2, "conv3x3": 2, "dwconv3x3": 1, "linear": 2, "gelu": 3,
                            "add": 1, "layer_norm": 1}


def test_width_and_height_shifts_differ(rng):
    # a block on non-symmetric input must not treat the two axes alike
    block = TokMLPBlock(np.random.default_rng(5), 8, np.float64)
    x = rng.standard_normal((1, 4, 4, 8))
    out = block(Tensor(x)).data
    out_t = block(Tensor(np.swapaxes(x, 1, 2))).data
    assert np.abs(out - np.swapaxes(out_t, 1, 2)).max() > 1e-8


# -- nine-tap references built from engine ops -------------------------


def _pad1(x):
    """Zero-pad a (B, H, W, C) grid by one cell on each side with concat."""
    b, h, w, c = x.shape
    col = Tensor(np.zeros((b, h, 1, c), dtype=x.dtype))
    x = nm.concat([col, x, col], axis=2)
    row = Tensor(np.zeros((b, 1, w + 2, c), dtype=x.dtype))
    return nm.concat([row, x, row], axis=1)


def _ref_conv3x3(x, weight, bias):
    """Nine shifted matmuls added in (dy, dx) row-major order."""
    b, h, w, cin = x.shape
    xp = _pad1(x)
    out = None
    for dy in range(3):
        for dx in range(3):
            patch = nm.reshape(xp[:, dy:dy + h, dx:dx + w, :], (-1, cin))
            term = matmul(patch, weight[dy, dx])
            out = term if out is None else nm.add(out, term)
    return nm.reshape(nm.add(out, bias), (b, h, w, weight.shape[-1]))


def _ref_dwconv3x3(x, weight, bias):
    h, w = x.shape[1], x.shape[2]
    xp = _pad1(x)
    out = None
    for dy in range(3):
        for dx in range(3):
            term = nm.mul(xp[:, dy:dy + h, dx:dx + w, :], weight[dy, dx])
            out = term if out is None else nm.add(out, term)
    return nm.add(out, bias)


def _out_and_grads(f, leaves):
    """Output of ``f`` and the leaves' gradients for a fixed random seed."""
    for leaf in leaves:
        leaf.grad = None
    out = f()
    out.backward(np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype))
    return [out.data] + [leaf.grad for leaf in leaves]


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)


_CASES = [(dt, shape) for dt in (np.float32, np.float64)
          for shape in ((1, 4, 4, 16), (16, 4, 4, 8), (16, 2, 2, 16))]


# the convolutions also run on one grid cell, on channel counts that tile
# no SIMD width, and on the calib model's last two stages at batch 32
_CONV_CASES = _CASES + [(dt, shape) for dt in (np.float32, np.float64)
                        for shape in ((1, 1, 1, 3), (2, 5, 3, 7), (32, 4, 4, 64), (32, 2, 2, 128))]


def _assert_one_node(out, op, leaves):
    assert _op_nodes(out) == [op]
    assert out._parents == tuple(leaves)


@pytest.mark.parametrize("dtype,shape", _CONV_CASES)
def test_conv3x3_bit_identical_to_nine_tap_reference(dtype, shape):
    """One engine node straight over x, the weight and the bias, whose
    value and three gradients are the nine-tap reference's bit for bit."""
    rng = np.random.default_rng(4)
    c = shape[-1]
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, c, c + 3)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(c + 3).astype(dtype), requires_grad=True)
    _assert_one_node(conv3x3(x, w, b), "conv3x3", [x, w, b])
    _assert_all_equal(_out_and_grads(lambda: conv3x3(x, w, b), [x, w, b]),
                      _out_and_grads(lambda: _ref_conv3x3(x, w, b), [x, w, b]))


@pytest.mark.parametrize("dtype,shape", _CONV_CASES)
def test_dwconv3x3_bit_identical_to_nine_tap_reference(dtype, shape):
    """As the full convolution, per channel."""
    rng = np.random.default_rng(4)
    c = shape[-1]
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, c)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(c).astype(dtype), requires_grad=True)
    _assert_one_node(dwconv3x3(x, w, b), "dwconv3x3", [x, w, b])
    _assert_all_equal(_out_and_grads(lambda: dwconv3x3(x, w, b), [x, w, b]),
                      _out_and_grads(lambda: _ref_dwconv3x3(x, w, b), [x, w, b]))


def _use_reference_convs(monkeypatch):
    """Run every tokenized-MLP block on the nine-tap references."""
    monkeypatch.setattr(nm, "conv3x3", _ref_conv3x3)
    monkeypatch.setattr(nm, "dwconv3x3", _ref_dwconv3x3)


@pytest.mark.parametrize("dtype,shape", _CASES)
def test_tokmlp_block_bit_identical_to_nine_tap_reference(dtype, shape, monkeypatch):
    block = TokMLPBlock(np.random.default_rng(5), shape[-1], dtype)
    x = Tensor(np.random.default_rng(4).standard_normal(shape).astype(dtype), requires_grad=True)
    leaves = [x] + block.parameters()
    got = _out_and_grads(lambda: block(x), leaves)
    _use_reference_convs(monkeypatch)
    _assert_all_equal(got, _out_and_grads(lambda: block(x), leaves))


def test_model_steps_match_nine_tap_reference(monkeypatch):
    """One pretrain and one fine-tune step of a small float32 model give
    the reference's losses, logits and gradients bit for bit, except the
    tokenizer weight's gradient. The tokenizer is shared by the two
    convolutions of a block, and each pass reaches it again, so its
    gradient sums three or more contributions; the reference hands the
    engine one (3, 3, Cin, Cout) term per tap and this code one per call,
    so the engine adds them in another order. That gradient must match to
    within 1e-6 of its largest entry."""
    model = M3ADNet(tiny_model_config(dtype="float32"), seed=1)
    got = one_step_each(model, np.random.default_rng(7))
    _use_reference_convs(monkeypatch)
    want = one_step_each(model, np.random.default_rng(7))
    assert got.keys() == want.keys()
    tok = [key for key in want if key.endswith("mixer.tok_weight")]
    assert len(tok) == 4  # two tokenized-MLP blocks, in each training stage
    for key in want:
        if key in tok:
            scale = np.abs(want[key]).max()
            assert np.abs(got[key] - want[key]).max() <= 1e-6 * scale, key
        else:
            assert np.array_equal(got[key], want[key]), key
