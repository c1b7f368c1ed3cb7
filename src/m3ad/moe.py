"""Multi-gate mixture of experts over (rows, ..., C) features, in the
network the (rows, H, W, C) grid. Experts act on the last axis.

Each layer owns a bank of expert MLPs with fixed roles: the first
``num_shared`` experts serve every sample, the rest split evenly into
per-diagnosis-class groups (NC, MCI, AD in that order). Expert outputs are
combined under one of two routing modes:

* fixed weights — a constant simplex row per sample, used during masked
  pretraining (label-guided mixing; at shared weight 0 each sample runs
  through its class's experts alone, for the specialization loss; one
  pass may stack rows of both). Each expert runs only on the rows that
  give it weight, and an expert no row uses stays out of the graph, so
  it receives no gradient at all.
* task gates — one learned softmax gate per task over a feature-level
  attention summary of each row, used during fine-tuning. The rows are
  a diagnosis copy stacked on a change copy of the batch; the diagnosis
  gate routes the first half, the change gate the second. Gate
  parameters are independent between the two tasks.

Either way the experts run inside one graph node, :func:`expert_mix`.
Under task gates both gates are one more node, so an MMoE layer is two
nodes: the gate and ``expert_mix``. A layer may take each scan once and
return the stacked copies itself, as the network's first one does: its
experts run once per scan, whatever the number of copies, as in MMoE
(Ma et al., KDD 2018), its gate summarises each scan once, and the copies
split where ``expert_mix`` adds each copy's weighted terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .config import DIAG_NAMES
from .errors import ContractError, ShapeError
from .numerics import Linear, Module, Tensor

TASKS = ("diagnosis", "change")


def expert_groups(num_experts: int, num_shared: int) -> tuple[tuple[int, ...], ...]:
    """Per-class expert index groups, ordered NC, MCI, AD."""
    per_class = (num_experts - num_shared) // len(DIAG_NAMES)
    return tuple(
        tuple(range(num_shared + k * per_class, num_shared + (k + 1) * per_class))
        for k in range(len(DIAG_NAMES)))


def label_guided_weights(labels: np.ndarray, num_experts: int, num_shared: int,
                         shared_weight: float, dtype) -> np.ndarray:
    """Fixed routing for masked pretraining: shared experts split
    ``shared_weight`` evenly, the sample's class pair splits the rest,
    all other experts get exactly zero. At ``shared_weight`` 0 each
    sample runs through its class's experts alone."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= len(DIAG_NAMES)):
        raise ContractError(f"diagnosis labels must lie in 0..{len(DIAG_NAMES) - 1}")
    groups = expert_groups(num_experts, num_shared)
    w = np.zeros((labels.size, num_experts), dtype=dtype)
    w[:, :num_shared] = shared_weight / num_shared
    group_arr = np.asarray(groups)  # (classes, per_class)
    rows = np.arange(labels.size)[:, None]
    w[rows, group_arr[labels]] = (1.0 - shared_weight) / group_arr.shape[1]
    return w


@dataclass
class Routing:
    """How an MMoE layer combines its experts for the current pass.

    ``weights`` (rows, E), rows on the simplex, fix the routing. Without
    them the rows are a diagnosis copy stacked on a change copy of the
    batch, each half routed by its own task's gate; ``sink`` is an
    optional list to which every layer then appends its (rows, E) gate
    weights, in encounter order, for inspection. The rows count the
    copies even where a layer takes each scan once: the network's first
    MMoE layer gets the B scans and returns the copies, later layers get
    the stacked copies.
    """

    weights: np.ndarray | None = None
    sink: list | None = None

    @property
    def kind(self) -> str:
        return "task" if self.weights is None else "fixed"

    def copies(self, batch: int) -> int:
        """How many stacked copies of a ``batch`` of scans the rows cover:
        one per task, or the weight rows over the batch."""
        if self.weights is None:
            return len(TASKS)
        rows = len(self.weights)
        if not batch or not rows or rows % batch:
            raise ShapeError(f"{rows} routing rows are no whole number of copies "
                             f"of {batch} scans")
        return rows // batch


def task_blocks(x: Tensor) -> tuple[Tensor, Tensor]:
    """The (diagnosis, change) halves of the rows of ``x``."""
    rows = x.shape[0]
    if rows % len(TASKS):
        raise ShapeError(f"{rows} rows do not split into {len(TASKS)} task halves")
    n = rows // len(TASKS)
    return x[:n], x[n:]


class ExpertMLP(Module):
    """Two-layer GELU MLP, the unit every expert in a bank is made of."""

    def __init__(self, rng: np.random.Generator, dim: int, hidden: int, dtype):
        self.fc1 = Linear(rng, dim, hidden, dtype)
        self.fc2 = Linear(rng, hidden, dim, dtype)


def expert_mix(x: Tensor, w, experts: Sequence[ExpertMLP]) -> Tensor:
    """``sum_k w[:, k] * experts[k](x)`` as one graph node, once for each
    stacked copy of x's rows that the rows of ``w`` cover.

    ``x`` is (n, ..., dim) and ``w`` a (copies * n, len(experts)) Tensor
    or array. Rows c * n to (c + 1) * n of the output are copy c: x's rows
    mixed by w's rows of that block. Each expert runs once per row of x,
    however many copies weight it, as in MMoE (Ma et al., 2018), where
    the experts are shared and only the weights that mix them differ.
    Each expert computes fc2(gelu(fc1(x))) by the one affine kernel,
    ``numerics._affine``, as its Linear layers would. Constant weights
    dispatch: an expert no row gives weight stays out of the node's parents,
    so it receives no gradient at all (all-zero weights raise
    ContractError), and each other expert runs only on the rows of x that
    some copy gives it weight, its term scatter-added into the block of
    each copy that weights it (a zero weight on such a row adds an exact
    zero). Weights that are a graph node keep every expert, row and copy,
    since their gradient needs each expert's output on each row. Terms are
    summed in list order, each expert's copies in order, and the
    per-expert work runs on the engine's pool when it is large enough, so
    the value is the same whatever the thread count. The vjp adds the
    copies' weighted output gradients before an expert's fc2 and fc1
    products, and returns gradients for ``x``, ``w`` and the parameters of
    the experts it ran.

    A recorded node keeps, per expert, its rows of ``x`` (a view of x's
    array when it runs on every row, else a gathered copy; the node keeps
    only x's shape), its weights, Phi of its hidden layer (the costly part
    of the GELU) and, for graph weights only, its output: each for the
    rows of x, not for every copy. The hidden GELU and its slope, each as
    large as Phi, are cheap to rebuild: the vjp recomputes fc1 with the
    forward's ``_affine`` call, then the GELU and slope from it and Phi by
    the forward's element-wise ops, so every gradient keeps its bits.
    """
    if not experts:
        raise ContractError("expert_mix() needs at least one expert")
    wt = w if isinstance(w, Tensor) else Tensor(np.asarray(w, dtype=x.dtype))
    n = x.shape[0] if x.ndim >= 2 else 0
    if not n or wt.ndim != 2 or wt.shape[1] != len(experts) or not wt.shape[0] or wt.shape[0] % n:
        raise ShapeError(f"expert weights {wt.shape} are no whole number of copies of the rows "
                         f"of input {x.shape} for {len(experts)} experts")
    if wt.dtype != x.dtype:
        raise ShapeError(f"operand dtypes differ: {x.dtype} vs {wt.dtype}")
    if not wt._is_node():
        used = np.flatnonzero(np.any(wt.data, axis=0))
        if used.size == 0:
            raise ContractError("expert weights are all zero; no expert selected")
        experts = [experts[k] for k in used]
        wt = Tensor(wt.data[:, used])
    parents = (x, wt) + tuple(p for e in experts
                              for p in (e.fc1.weight, e.fc1.bias, e.fc2.weight, e.fc2.bias))
    record = nm._records(parents)
    keep_y = record and wt._is_node()
    copies = wt.shape[0] // n
    blocks = wt.data.reshape(copies, n, len(experts))
    weighted = np.ones(blocks.shape, bool) if wt._is_node() else blocks != 0
    union = weighted.any(axis=0)
    # a slice keeps every row as a view; an index array gathers the rows
    rows = [slice(None) if col.all() else np.flatnonzero(col) for col in union.T]
    # per expert, (copy, its weights on the expert's rows) for each copy that weights it
    mix = [[(c, blocks[c, r, k]) for c in range(copies) if weighted[c, :, k].any()]
           for k, r in enumerate(rows)]
    shape, x_node = x.shape, x._is_node()  # what the vjp reads of x
    dim = shape[-1]
    bcast = (-1,) + (1,) * (x.ndim - 1)
    work = int(union.sum()) * math.prod(x.shape[1:-1]) * experts[0].fc1.weight.shape[1]

    def forward(k):
        e, r = experts[k], rows[k]
        xk = x.data[r]
        z = nm._affine(xk.reshape(-1, dim), e.fc1.weight.data, e.fc1.bias.data)
        z, phi = nm._gelu(z, record, out=z)
        y = nm._affine(z, e.fc2.weight.data, e.fc2.bias.data).reshape(xk.shape)
        terms = [y * wk.reshape(bcast) for _, wk in mix[k]]
        return terms, (xk.reshape(-1, dim), mix[k], phi, y if keep_y else None)

    results = nm._parallel_map(forward, range(len(experts)), work)
    out = np.zeros((copies,) + shape, dtype=x.dtype)
    for (terms, _), r, pairs in zip(results, rows, mix):  # scatter-add: experts, then copies
        for (c, _), term in zip(pairs, terms):
            out[c][r] += term
    saved = [kept for _, kept in results]

    def vjp(g):
        g = g.reshape((copies,) + shape)

        def backward(k):
            e, r = experts[k], rows[k]
            xk, pairs, phi, y = saved[k]
            gy = None
            for c, wk in pairs:  # the copies' gradients, added in copy order
                term = g[c][r] * wk.reshape(bcast)
                gy = term if gy is None else np.add(gy, term, out=gy)
            gy = gy.reshape(-1, dim)
            gz = gy @ e.fc2.weight.data.T
            z = nm._affine(xk, e.fc1.weight.data, e.fc1.bias.data)
            gz *= nm._gelu_slope(z, phi, value=True)
            gx = (gz @ e.fc1.weight.data.T).reshape((-1,) + shape[1:]) if x_node else None
            gw = None if y is None else np.concatenate(
                [(gc * y).sum(axis=tuple(range(1, len(shape)))) for gc in g])
            return gx, gw, (xk.T @ gz, gz.sum(axis=0), z.T @ gy, gy.sum(axis=0))

        parts = nm._parallel_map(backward, range(len(experts)), work)
        gx = None
        if x_node:
            gx = np.zeros(shape, dtype=g.dtype)
            for part, r in zip(parts, rows):
                gx[r] += part[0]
        gw = np.stack([part[1] for part in parts], axis=1) if keep_y else None
        return (gx, gw) + tuple(grad for part in parts for grad in part[2])

    return nm._wrap(out.reshape((-1,) + shape[1:]), parents, vjp)


def _task_gate(x: Tensor, attn: Linear, gates: Sequence[Linear], temp: float,
               copies: int) -> Tensor:
    """(copies * rows, E) task gate weights of ``x`` (rows, ..., C), one
    graph node.

    Each row's mean over its positions, x_bar, is reweighted by the
    feature attention, f = sigmoid(x_bar @ W_a + b_a) * x_bar, once per
    row of x. The output rows, ``copies`` stacked copies of x's rows,
    split into one equal block per gate, in order, each of them a span of
    x's rows: with one copy the gates split x's rows between them, with a
    copy per gate each gate maps all of x's rows. Each block's rows of f
    are mapped by its gate's bias-free weight; the logits, divided by
    ``temp``, go through the softmax kernel :func:`numerics._softmax`.
    The forward and the vjp make the numpy calls of the chain tmean,
    linear, sigmoid, mul, getitem per block, linear per block, concat,
    div, softmax, in its order, so value and gradients keep its bits; the
    vjp adds the gradients of blocks that map the same rows of f before
    the sigmoid and the mean. The node keeps x_bar, the sigmoid, the row
    blocks, the softmax and the weights; not x, f, the logits or their
    exp.
    """
    weights = [gate.weight for gate in gates]
    operands = (x, attn.weight, attn.bias, *weights)
    b = x.shape[0] if x.ndim else 0
    n = copies * b // len(gates)
    if (x.ndim < 3 or not n or copies * b % len(gates) or b % n
            or any(t.dtype != x.dtype for t in operands)):
        raise ShapeError(f"task gate: {[(t.shape, str(t.dtype)) for t in operands]} do not fit "
                         f"{len(gates)} equal blocks of {copies} copies of the rows")
    shape, dtype = x.shape, x.dtype
    positions = tuple(range(1, x.ndim - 1))
    count = math.prod(shape[1:-1])
    wa, ba = attn.weight.data, attn.bias.data
    ws = [w.data for w in weights]
    # (output rows, rows of x) of each gate's block
    spans = [(slice(i * n, (i + 1) * n), slice(i * n % b, i * n % b + n))
             for i in range(len(gates))]
    xbar = x.data.mean(axis=positions)
    s = nm._expit(nm._affine(xbar, wa, ba))
    f = s * xbar
    blocks = [f[rows].copy() for _, rows in spans]
    t = np.asarray(temp, dtype)
    logits = np.concatenate([nm._affine(block, w, None) for block, w in zip(blocks, ws)])
    p = nm._softmax(logits / t, -1)

    def vjp(g):
        gl = nm._softmax_vjp(g, p, -1) / t
        gf = np.zeros(s.shape, dtype)
        gws = []
        for (out_rows, rows), block, w in zip(spans, blocks, ws):
            gf[rows] += gl[out_rows] @ w.T
            gws.append(block.T @ gl[out_rows])
        gs = gf * xbar * s * (1.0 - s)  # through the mul, then the sigmoid
        gxbar = gf * s + gs @ wa.T
        gx = np.broadcast_to(np.expand_dims(gxbar, positions), shape).astype(dtype, copy=False)
        return (gx / count, xbar.T @ gs, gs.sum(axis=0), *gws)

    return nm._wrap(p, operands, vjp)


class MMoELayer(Module):
    """Expert bank plus the dual task gates: under task routing two graph
    nodes, the gate and :func:`expert_mix`.

    Gate path: each row's features are mean-pooled, reweighted by a sigmoid
    feature-level attention (shared between tasks), then each task's
    bias-free linear map produces expert logits that are divided by the
    gate temperature before the softmax.
    """

    def __init__(self, rng: np.random.Generator, dim: int, num_experts: int,
                 hidden_ratio: int, gate_temp: float, dtype):
        self.experts = [ExpertMLP(rng, dim, hidden_ratio * dim, dtype)
                        for _ in range(num_experts)]
        self.feature_attn = Linear(rng, dim, dim, dtype)
        self.gate_diagnosis = Linear(rng, dim, num_experts, dtype, bias=False)
        self.gate_change = Linear(rng, dim, num_experts, dtype, bias=False)
        self.gate_temp = float(gate_temp)

    def gate_weights(self, x: Tensor, *, copies: int = 1) -> Tensor:
        """(copies * rows, E) gate weights, one graph node: the diagnosis
        gate over the first half of the output rows and the change gate
        over the second. With one copy per task, x holds each scan once
        and each gate maps all of its rows."""
        return _task_gate(x, self.feature_attn, (self.gate_diagnosis, self.gate_change),
                          self.gate_temp, copies)

    def __call__(self, x: Tensor, routing: Routing, *, copies: int = 1) -> Tensor:
        """The mixed experts of ``x`` (rows, ..., C) for ``copies`` stacked
        copies of its rows, which the routing's rows cover: the experts
        and the gate's row summary run once per row of x."""
        if x.ndim < 3:
            raise ShapeError(f"MMoE expects (rows, ..., channels), got {x.shape}")
        w = routing.weights
        if w is None:
            w = self.gate_weights(x, copies=copies)
            if routing.sink is not None:
                routing.sink.append(w.data.copy())
        elif len(w) != copies * x.shape[0]:
            raise ShapeError(f"{len(w)} routing rows are not {copies} copies of {x.shape[0]} rows")
        return expert_mix(x, w, self.experts)
