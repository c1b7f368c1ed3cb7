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
so no positions are lost at the borders.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import LayerNorm, Linear, Module, Tensor, parameter, zeros_param

SHIFT_OFFSETS = (-2, -1, 0, 1, 2)


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution with zero padding 1 on a (B, H, W, Cin) grid.

    ``weight`` is (3, 3, Cin, Cout). One batched matmul applies each tap's
    (Cin, Cout) slice to its neighbours; the nine products are summed.
    """
    b, h, w, cin = x.shape
    cout = weight.shape[-1]
    taps = nm.reshape(nm.taps3x3(x), (9, b * h * w, cin))
    out = nm.tsum(nm.matmul(taps, nm.reshape(weight, (9, cin, cout))), axis=0)
    return nm.reshape(nm.add(out, bias), (b, h, w, cout))


def dwconv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Depthwise 3x3 convolution, zero padding 1; ``weight`` is (3, 3, C)
    and scales each tap per channel before the nine are summed."""
    scale = nm.reshape(weight, (9, 1, 1, 1, x.shape[-1]))
    return nm.add(nm.tsum(nm.mul(nm.taps3x3(x), scale), axis=0), bias)


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
        return conv3x3(x, self.tok_weight, self.tok_bias)

    def __call__(self, x: Tensor) -> Tensor:
        tw = self.tokenize(nm.roll(x, SHIFT_OFFSETS, (2,)))
        y = nm.gelu(dwconv3x3(self.mlp_w(tw), self.dw_weight, self.dw_bias))
        th = self.tokenize(nm.roll(y, SHIFT_OFFSETS, (1,)))
        return nm.gelu(self.norm(nm.add(tw, self.mlp_h(nm.gelu(th)))))
