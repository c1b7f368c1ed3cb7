"""Multi-gate mixture of experts over token features.

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
  attention summary of the tokens, used during fine-tuning. The rows are
  a diagnosis copy stacked on a change copy of the batch; the diagnosis
  gate routes the first half, the change gate the second. Gate
  parameters are independent between the two tasks.

Either way the experts run inside one graph node, :func:`expert_mix`.
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
    weights, in encounter order, for inspection.
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
    """``sum_k w[:, k] * experts[k](x)`` as one graph node.

    ``x`` is (rows, ..., dim) and ``w`` a (rows, len(experts)) Tensor or
    array. Each expert computes fc2(gelu(fc1(x))) with the same numpy and
    BLAS calls as its layers would. Constant weights dispatch: an expert
    no row gives weight stays out of the node's parents, so it receives
    no gradient at all (all-zero weights raise ContractError), and each
    other expert runs only on the rows that give it non-zero weight, its
    term scatter-added into the output. Weights that are a graph node
    keep every expert and row, since their gradient needs each expert's
    output on each row. Terms are summed in list order and the
    per-expert work runs on the engine's pool when it is large enough,
    so the value is the same whatever the thread count. The vjp returns
    gradients for ``x``, ``w`` and the parameters of the experts it ran.
    """
    if not experts:
        raise ContractError("expert_mix() needs at least one expert")
    wt = w if isinstance(w, Tensor) else Tensor(np.asarray(w, dtype=x.dtype))
    if x.ndim < 2 or wt.shape != (x.shape[0], len(experts)):
        raise ShapeError(f"expert weights {wt.shape} do not match input {x.shape} "
                         f"and {len(experts)} experts")
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
    n = x.shape[0]
    counts = np.full(len(experts), n) if wt._is_node() else np.count_nonzero(wt.data, axis=0)
    # a slice keeps every row as a view; an index array gathers the rows
    rows = [slice(None) if c == n else np.flatnonzero(wt.data[:, k])
            for k, c in enumerate(counts)]
    dim = x.shape[-1]
    bcast = (-1,) + (1,) * (x.ndim - 1)
    work = int(counts.sum()) * math.prod(x.shape[1:-1]) * experts[0].fc1.weight.shape[1]

    def forward(k):
        e, r = experts[k], rows[k]
        xk, wk = x.data[r], wt.data[r, k]
        z, slope = nm._gelu(xk.reshape(-1, dim) @ e.fc1.weight.data + e.fc1.bias.data, record)
        y = (z @ e.fc2.weight.data + e.fc2.bias.data).reshape(xk.shape)
        return y * wk.reshape(bcast), (xk.reshape(-1, dim), wk, z, slope, y if keep_y else None)

    results = nm._parallel_map(forward, range(len(experts)), work)
    out = np.zeros(x.shape, dtype=x.dtype)
    for (term, _), r in zip(results, rows):  # scatter-add in expert order
        out[r] += term
    saved = [kept for _, kept in results]

    def vjp(g):
        def backward(k):
            e, r = experts[k], rows[k]
            xk, wk, z, slope, y = saved[k]
            gy = (g[r] * wk.reshape(bcast)).reshape(-1, dim)
            gz = gy @ e.fc2.weight.data.T
            gz *= slope
            gx = (gz @ e.fc1.weight.data.T).reshape((-1,) + x.shape[1:]) if x._is_node() else None
            gw = None if y is None else (g * y).sum(axis=tuple(range(1, x.ndim)))
            return gx, gw, (xk.T @ gz, gz.sum(axis=0), z.T @ gy, gy.sum(axis=0))

        parts = nm._parallel_map(backward, range(len(experts)), work)
        gx = None
        if x._is_node():
            gx = np.zeros(x.shape, dtype=x.dtype)
            for part, r in zip(parts, rows):
                gx[r] += part[0]
        gw = np.stack([part[1] for part in parts], axis=1) if keep_y else None
        return (gx, gw) + tuple(grad for part in parts for grad in part[2])

    return nm._wrap(out, parents, vjp)


class MMoELayer(Module):
    """Expert bank plus the dual task gates.

    Gate path: tokens are mean-pooled, reweighted by a sigmoid
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

    def feature_summary(self, x: Tensor) -> Tensor:
        """sigmoid(W_a x_bar + b_a) ⊙ x_bar for token mean x_bar."""
        xbar = x.mean(axis=1)
        return nm.mul(nm.sigmoid(self.feature_attn(xbar)), xbar)

    def gate_weights(self, x: Tensor) -> Tensor:
        """(rows, E) gate weights: the feature summary of every row, then
        the diagnosis gate over the first half of the rows and the change
        gate over the second."""
        diagnosis, change = task_blocks(self.feature_summary(x))
        logits = nm.concat([self.gate_diagnosis(diagnosis), self.gate_change(change)])
        return nm.softmax(nm.div(logits, self.gate_temp), axis=-1)

    def __call__(self, x: Tensor, routing: Routing) -> Tensor:
        if x.ndim != 3:
            raise ShapeError(f"MMoE expects (batch, tokens, channels), got {x.shape}")
        w = routing.weights
        if w is None:
            w = self.gate_weights(x)
            if routing.sink is not None:
                routing.sink.append(w.data.copy())
        return expert_mix(x, w, self.experts)
