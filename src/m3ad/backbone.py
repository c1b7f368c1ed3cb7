"""Hierarchical vision backbone.

Four stages connected by 2x2 patch merging, so channels run C, 2C, 4C, 8C
while the token grid runs /4, /8, /16, /32 of the input. Stages 0 and 1
mix tokens with shifted-window scaled-cosine attention; stages 2 and 3
use the tokenized-MLP mixer from :mod:`m3ad.tokmlp`. Every block is
pre-norm residual with a mixture-of-experts layer in place of the usual
feed-forward:

    z1 = Mixer(LN(z)) + z
    z2 = MMoE(LN(z1)) + z1

The (B, H, W, C) grid is the one activation layout between layers: the
mixers, norms and MMoE layer all take it. :class:`WindowAttention` owns
its window and shift; its attention is one engine op,
:func:`m3ad.numerics.cosine_attention`, on the qkv grid, and windows
exist only inside it. A block may split copies of its rows inside its
MMoE layer: the model runs its first block's mixer, second norm, gate
summary and experts once per scan, and the copies split where that layer
mixes the experts by each copy's weights (see
:meth:`m3ad.model.M3ADNet.encode`).

Attention windows adapt to the map: the effective window is
gcd(H, W, window), which always tiles the grid, collapses to the whole
map when the map is small, and keeps lookups inside the one relative
position bias table sized for the configured window. Shift alternates
between 0 and half the effective window on consecutive blocks and is
one cyclic :func:`m3ad.numerics.roll` node each way (no attention
masking).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numerics as nm
from .errors import ShapeError
from .numerics import LayerNorm, Linear, Module, Tensor

ATTENTION_STAGES = (0, 1)

# raw value whose softplus is 0.99, so temperatures start at 1.0
_TAU_RAW_INIT = math.log(math.expm1(0.99))


def effective_window(h: int, w: int, window: int) -> int:
    """Largest window that tiles an h x w grid without exceeding ``window``."""
    return math.gcd(math.gcd(h, w), window)


def relative_position_index(m: int, table_window: int) -> np.ndarray:
    """Flat bias-table row index for every (query, key) pair in an m x m
    window. The table is laid out for ``table_window``; any m up to that
    size indexes a centered sub-block of it."""
    if m > table_window:
        raise ShapeError(f"window {m} exceeds bias table extent {table_window}")
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"), axis=0)
    coords = coords.reshape(2, -1)
    rel = coords[:, :, None] - coords[:, None, :]  # (2, m*m, m*m), each in [-(m-1), m-1]
    rel = rel + (table_window - 1)
    return rel[0] * (2 * table_window - 1) + rel[1]


@functools.lru_cache(maxsize=None)
def _flat_index(m: int, table_window: int) -> np.ndarray:
    """:func:`relative_position_index` flattened, made once per (m,
    table_window) and read-only, since every module shares it."""
    index = relative_position_index(m, table_window).reshape(-1)
    index.flags.writeable = False
    return index


class PatchEmbed(Module):
    """Non-overlapping patch projection plus layer norm."""

    def __init__(self, rng: np.random.Generator, patch: int, embed_dim: int, dtype):
        self.proj = Linear(rng, patch * patch, embed_dim, dtype)
        self.norm = LayerNorm(embed_dim, dtype)
        self.patch = patch

    def __call__(self, images: Tensor) -> Tensor:
        b, h, w = images.shape
        p = self.patch
        if h % p or w % p:
            raise ShapeError(f"image extents {h}x{w} not divisible by patch {p}")
        x = nm.reshape(images, (b, h // p, p, w // p, p))
        x = nm.transpose(x, (0, 1, 3, 2, 4))
        x = nm.reshape(x, (b, h // p, w // p, p * p))
        return self.norm(self.proj(x))


class PatchMerge(Module):
    """2x2 neighborhood concat followed by a bias-free channel reduction."""

    def __init__(self, rng: np.random.Generator, dim: int, dtype):
        self.reduce = Linear(rng, 4 * dim, 2 * dim, dtype, bias=False)

    def __call__(self, x: Tensor) -> Tensor:
        h, w = x.shape[1], x.shape[2]
        if h % 2 or w % 2:
            raise ShapeError(f"grid {h}x{w} not divisible by 2 for merging")
        b, c = x.shape[0], x.shape[3]
        # (b, h/2, dy, w/2, dx, c) -> (b, h/2, w/2, dx, dy, c): quads in
        # the channel order (dy, dx) = (0, 0), (1, 0), (0, 1), (1, 1)
        x = nm.transpose(nm.reshape(x, (b, h // 2, 2, w // 2, 2, c)), (0, 1, 3, 4, 2, 5))
        return self.reduce(nm.reshape(x, (b, h // 2, w // 2, 4 * c)))


class WindowAttention(Module):
    """Scaled cosine attention inside (shifted) windows of a grid.

    Takes and returns the (B, H, W, C) grid: roll, qkv, attention, proj,
    roll back. The module owns the effective window and the shift (half
    that window when ``shifted`` and the window does not cover the whole
    map). Scores are cos(q, k) / tau + B with a learnable per-head
    temperature tau = 0.01 + softplus(raw), floored strictly above 0.01,
    and a relative position bias B looked up from a zero-initialized
    table. The softmax-weighted values of all windows and heads come from
    one :func:`m3ad.numerics.cosine_attention` node.
    """

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, window: int, dtype,
                 shifted: bool):
        if dim % heads:
            raise ShapeError(f"dim {dim} not divisible by {heads} heads")
        self.qkv = Linear(rng, dim, 3 * dim, dtype)
        self.proj = Linear(rng, dim, dim, dtype)
        self.tau_raw = nm.full_param((heads,), _TAU_RAW_INIT, dtype)
        self.bias_table = nm.zeros_param(((2 * window - 1) ** 2, heads), dtype)
        self.heads = heads
        self.window = window
        self.shifted = shifted

    def _temperature(self) -> Tensor:
        """0.01 + softplus(raw), clamped at the next float above 0.01: the
        sum rounds to exactly 0.01 once softplus(raw) drops below half an
        ulp, and every value above the floor passes through unchanged."""
        floor = np.nextafter(np.asarray(0.01, dtype=self.tau_raw.dtype), np.inf)
        return nm.clamp_min(nm.add(nm.softplus(self.tau_raw), 0.01), floor)

    def __call__(self, x: Tensor) -> Tensor:
        h, w = x.shape[1:3]
        m = effective_window(h, w, self.window)
        shift = m // 2 if self.shifted and (h > m or w > m) else 0
        if shift:
            x = nm.roll(x, (-shift,), (1, 2))
        out = self.proj(nm.cosine_attention(self.qkv(x), self._temperature(), self.bias_table,
                                            _flat_index(m, self.window), self.heads, m))
        return nm.roll(out, (shift,), (1, 2)) if shift else out


class M3ADBlock(Module):
    """Pre-norm residual block: token mixer then mixture-of-experts. The
    mixer, attention or tokenized MLP, maps the (B, H, W, C) grid to a
    grid of the same shape. A block that splits copies of its rows runs
    everything once per row up to the MMoE layer's mix of its experts,
    which returns the stacked copies; only the residual is tiled."""

    def __init__(self, mixer: Module, moe: Module, dim: int, dtype):
        self.norm1 = LayerNorm(dim, dtype)
        self.mixer = mixer
        self.norm2 = LayerNorm(dim, dtype)
        self.moe = moe

    def __call__(self, x: Tensor, routing, copies: int = 1) -> Tensor:
        """``copies`` > 1 splits that many copies of the rows at the MMoE
        layer: its norm, gate and experts run once per row of x, and it
        returns the stacked copies that its routing covers, to which the
        residual adds, tiled on the batch axis."""
        x = nm.add(self.mixer(self.norm1(x)), x)
        y = self.moe(self.norm2(x), routing, copies=copies)
        return nm.add(y, nm.concat([x] * copies) if copies > 1 else x)
