"""Tokenized-MLP mixer used by the two deepest backbone stages.

The block shifts channel groups along one spatial axis, tokenizes with a
3x3 convolution, and mixes through small per-token MLPs and a depthwise
convolution. Width and height passes share a single tokenizer:

    T_W = Tokenize(Shift_W(X))
    Y   = f(DWConv(MLP(T_W)))
    T_H = Tokenize(Shift_H(Y))
    Z   = f(LN(T_W + MLP(f(T_H))))        with f = GELU

Channels split into one group per shift offset; the offsets (-2..2)
give five groups, split as evenly as the channel count allows. Each
shift is one :func:`m3ad.numerics.roll` node, a cyclic roll per group,
so no positions are lost at the borders. The tokenizer and the depthwise
convolution are the engine's fused :func:`m3ad.numerics.conv3x3` and
:func:`m3ad.numerics.dwconv3x3`, one node each, so a block records 12
graph nodes.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import LayerNorm, Linear, Module, Tensor, parameter, zeros_param

SHIFT_OFFSETS = (-2, -1, 0, 1, 2)


class TokMLPBlock(Module):
    """Shift, tokenize and mix one (B, H, W, C) feature grid."""

    def __init__(self, rng: np.random.Generator, dim: int, dtype):
        self.tok_weight = parameter(rng, (3, 3, dim, dim), dtype)
        self.tok_bias = zeros_param((dim,), dtype)
        self.mlp_w = Linear(rng, dim, dim, dtype)
        self.dw_weight = parameter(rng, (3, 3, dim), dtype)
        self.dw_bias = zeros_param((dim,), dtype)
        self.mlp_h = Linear(rng, dim, dim, dtype)
        self.norm = LayerNorm(dim, dtype)

    def tokenize(self, x: Tensor) -> Tensor:
        return nm.conv3x3(x, self.tok_weight, self.tok_bias)

    def __call__(self, x: Tensor) -> Tensor:
        tw = self.tokenize(nm.roll(x, SHIFT_OFFSETS, (2,)))
        y = nm.gelu(nm.dwconv3x3(self.mlp_w(tw), self.dw_weight, self.dw_bias))
        th = self.tokenize(nm.roll(y, SHIFT_OFFSETS, (1,)))
        return nm.gelu(self.norm(nm.add(tw, self.mlp_h(nm.gelu(th)))))
