"""Dense tensors with reverse-mode automatic differentiation.

All model math runs through :class:`Tensor` and the op functions below.
Forward values are plain numpy arrays; each differentiable op records a
graph node so :meth:`Tensor.backward` can fill gradients of the leaves it
reached. A node holds its vector-Jacobian closure and its parents' nodes,
never a value: an op's output array lives while the caller holds its
Tensor or a vjp reads it, and a vjp keeps only what it reads. A graph is
single-use: backward frees each node's saved arrays as it goes, so a
step's memory is released by its own backward pass. The engine is
deliberately small: only the ops the model needs exist, and each one is
written so its gradient can be checked against central finite
differences (see :func:`grad_check`). What an op saves for its vjp is
what is costly to compute; what is cheap to compute but large to store,
the vjp rebuilds with the forward's own calls. Linear layers and the
expert bank share one affine kernel, :func:`_affine`; :func:`softmax`
and the MMoE task gate share one softmax kernel, :func:`_softmax`, and
its vjp.

Each layer is one graph node. The fused layers are :func:`linear`,
:func:`softmax`, :func:`cosine_attention`, :func:`layer_norm`, the two
3x3 convolutions :func:`conv3x3` and :func:`dwconv3x3`, and the losses
:func:`cross_entropy` and :func:`masked_l1`. The convolutions share the
(9, B, H, W, C) tap stack of :func:`_taps`, a layout private to this
module.

Also hosted here because they sit at the same level of the stack:
the :class:`Module` parameter container, the ``no_grad`` context, the
engine's worker pool, and the one on-disk tensor format
(:func:`save_m3t`, :func:`load_m3t`): named arrays under a JSON header,
sealed by a CRC-32. Scans and checkpoints are both such files.

Thread policy: the engine owns the cores. Ops whose work splits into
independent parts (the experts of an MMoE layer) run those parts on a
private thread pool of ``M3AD_THREADS`` workers (default: the CPUs the
process may use), made on first use, and only when the work is large
enough to pay for the hand-off. Results are combined in a fixed order,
so every value is the same whatever the thread count. BLAS is meant to
run one thread per call: :func:`m3ad.entry.cap_threads` pins it before
numpy loads. An explicitly set backend variable still wins, but a
multi-threaded BLAS under the pool oversubscribes the cores.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from .entry import thread_count as _thread_count
from .errors import CheckpointError, ConfigError, ContractError, ShapeError

_GRAD_ENABLED = True

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

# float32 erf of Eigen and XLA: erf(u) ~ u * P(u^2) / Q(u^2) on [-4, 4],
# coefficients from the highest power down. P is kept halved, which is
# exact, so that u * P / Q is erf / 2 and Phi takes one add. The float32
# GELU's constants are 0-d arrays: ufuncs take them faster than Python or
# numpy scalars, which counts on the small arrays of batch-1 scoring.
_ERF32_HALF_P = tuple(np.array(c / 2, np.float32) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_Q = tuple(np.array(c, np.float32) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))
_GELU_CONSTANTS = (("inv_sqrt2", _INV_SQRT2), ("inv_sqrt_2pi", _INV_SQRT_2PI),
                   ("clamp", 4.0), ("-clamp", -4.0), ("half", 0.5),
                   ("-half", -0.5))
_GELU32 = {name: np.array(c, np.float32) for name, c in _GELU_CONSTANTS}
# elements per block of the float32 GELU: its scratch rows stay in cache
# (at two threads 8,192 was slower than a whole-array float32 erf, 32,768
# even, 65,536 best)
_GELU_BLOCK = 65_536

# float64 erf of W. J. Cody, "Rational Chebyshev approximations for the
# error function", Math. Comp. 23 (1969), on his three ranges of |x|. Per
# range, the (numerator, denominator) coefficient pairs from the highest
# power down, as (2, 1) columns for :func:`_rational`; the denominators
# are monic.
_ERF64_SMALL = np.array([  # |x| <= 0.46875: erf = x * P(x^2) / Q(x^2)
    (1.85777706184603153e-1, 1.0), (3.16112374387056560e00, 2.36012909523441209e01),
    (1.13864154151050156e02, 2.44024637934444173e02),
    (3.77485237685302021e02, 1.28261652607737228e03),
    (3.20937758913846947e03, 2.84423683343917062e03)])[:, :, None]
_ERF64_MID = np.array([  # |x| <= 4: erfc = exp(-x^2) * P(|x|) / Q(|x|)
    (2.15311535474403846e-8, 1.0), (5.64188496988670089e-1, 1.57449261107098347e01),
    (8.88314979438837594e00, 1.17693950891312499e02),
    (6.61191906371416295e01, 5.37181101862009858e02),
    (2.98635138197400131e02, 1.62138957456669019e03),
    (8.81952221241769090e02, 3.29079923573345963e03),
    (1.71204761263407058e03, 4.36261909014324716e03),
    (2.05107837782607147e03, 3.43936767414372164e03),
    (1.23033935479799725e03, 1.23033935480374942e03)])[:, :, None]
_ERF64_LARGE = np.array([  # erfc = exp(-x^2) * (1/sqrt(pi) - z P(z) / Q(z)) / |x|, z = 1/x^2
    (1.63153871373020978e-2, 1.0), (3.05326634961232344e-1, 2.56852019228982242e00),
    (3.60344899949804439e-1, 1.87295284992346725e00),
    (1.25781726111229246e-1, 5.27905102951428412e-1),
    (1.60837851487422766e-2, 6.05183413124413191e-2),
    (6.58749161529837803e-4, 2.33520497626869185e-3)])[:, :, None]
_ERF64_SMALL_SQ = 0.2197265625  # 0.46875^2, exact
_ERF64_ONE = 6.0  # erfc(6) < 2^-55, so erf rounds to 1 from here on
_INV_SQRT_PI = 0.5641895835477563


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block. Ops still compute values."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation.

    Parameters
    ----------
    data : array-like
        Floating-point payload. Integer, boolean and float16 input is
        cast to float32; labels, index arrays and masks are passed to
        ops as raw numpy arrays instead.
    requires_grad : bool
        Leaves with ``requires_grad=True`` receive ``.grad`` after a
        ``backward`` call that reaches them. A graph serves one backward
        call, but a leaf outlives it: backward calls on fresh graphs
        accumulate into ``.grad`` until it is reset to ``None``, as
        :meth:`Module.zero_grad` does.

    The output of a recorded op links to its graph node, which holds the
    op's vjp and its parents' nodes, never a value. So the array of an op
    output lives while the caller holds this Tensor or a vjp reads it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating) or arr.dtype == np.float16:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- graph plumbing ------------------------------------------------

    def _is_node(self) -> bool:
        return self.requires_grad or self._node is not None

    @property
    def _vjp(self) -> Callable[[np.ndarray], Sequence[np.ndarray | None]] | None:
        """The vjp of the op that made this tensor; None for a leaf."""
        return None if self._node is None else self._node._vjp

    @property
    def _parents(self) -> tuple:
        """The graph entries of the op's inputs: an op output's node, a
        leaf or a constant itself. Empty for a leaf."""
        return () if self._node is None else self._node._parents

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor to every reachable leaf.

        Without an explicit ``grad`` the tensor must be scalar. The pass
        walks the graph nodes from this tensor's; they hold vjps and
        parent links but no values, so the arrays it touches are those
        the vjps saved. It consumes the graph: each node drops its
        parents and what its vjp saved once processed, so a second
        backward through any of its nodes raises ContractError. Leaf
        gradients accumulate across the backward passes of fresh graphs;
        intermediate gradients are discarded once consumed.
        """
        if grad is None:
            if self.data.size != 1:
                raise ContractError(
                    f"backward() without a seed gradient needs a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        root = self if self._node is None else self._node
        topo: list[_Node | Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent._is_node():
                    stack.append((parent, False))

        # a processed node leaves topo and gives up its vjp, and with it
        # what the vjp saved, so the graph is freed as it is walked
        grads: dict[int, np.ndarray] = {id(root): grad}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if isinstance(node, Tensor):  # a leaf
                if node.requires_grad and g is not None:
                    if node.grad is None:
                        node.grad = g.copy()
                    else:
                        node.grad = node.grad + g
                continue
            if g is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not parent._is_node():
                        continue
                    acc = grads.get(id(parent))
                    grads[id(parent)] = pg if acc is None else acc + pg
            node._parents, node._vjp = (), _consumed_vjp

    # -- indexing and reductions ---------------------------------------

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` is recorded in the graph."""
    return _GRAD_ENABLED and any(p._is_node() for p in parents)


def _consumed_vjp(g: np.ndarray):
    """The vjp of a node whose graph a backward pass has already freed."""
    raise ContractError("graph already consumed by backward; rebuild it with a new forward")


class _Node:
    """The graph record of one op: its vjp and, per input, the input's
    node if it is an op output, else the leaf or constant Tensor itself
    (whose value lives anyway). It holds no op output's value."""

    __slots__ = ("_parents", "_vjp")

    def __init__(self, parents: tuple, vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self._parents = parents
        self._vjp = vjp

    def _is_node(self) -> bool:
        return True


def _wrap(node_data: np.ndarray, parents: tuple[Tensor, ...],
          vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    out = Tensor(node_data)
    if _records(parents):
        out._node = _Node(tuple(p if p._node is None else p._node for p in parents), vjp)
    return out


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.dtype != like.dtype:
            raise ShapeError(f"operand dtypes differ: {like.dtype} vs {x.dtype}")
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic --------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data + b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _wrap(data, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _wrap(data, (a, b), vjp)


def _affine(rows: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """rows @ weight + bias: one BLAS call, then the bias added in place."""
    out = rows @ weight
    if bias is not None:
        out += bias
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """``x @ weight + bias`` on the last axis of any-rank ``x``, one graph
    node (``bias`` may be None), computed by the one affine kernel
    :func:`_affine` on x's rows. The node keeps the rows and the weight."""
    operands = (x, weight) if bias is None else (x, weight, bias)
    if (weight.ndim != 2 or x.shape[-1:] != weight.shape[:1]
            or (bias is not None and bias.shape != weight.shape[1:])
            or any(t.dtype != x.dtype for t in operands)):
        raise ShapeError(f"linear: {[(t.shape, str(t.dtype)) for t in operands]} do not fit")
    shape, w, b = x.shape, weight.data, None if bias is None else bias.data
    rows = x.data.reshape(-1, shape[-1])

    def vjp(g):
        g = g.reshape(-1, w.shape[1])
        grads = (g @ w.T).reshape(shape), rows.T @ g
        return grads if b is None else grads + (g.sum(axis=0),)

    return _wrap(_affine(rows, w, b).reshape(shape[:-1] + w.shape[1:]), operands, vjp)


# -- elementwise nonlinearities ---------------------------------------


def clamp_min(a: Tensor, low: float) -> Tensor:
    """max(a, low); gradient passes only where a > low."""
    data = np.maximum(a.data, np.asarray(low, dtype=a.dtype))
    mask = (a.data > low).astype(a.dtype)
    return _wrap(data, (a,), lambda g: (g * mask,))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(a)), computed without overflow."""
    data = np.logaddexp(np.asarray(0, dtype=a.dtype), a.data)
    sig = _expit(a.data)
    return _wrap(data, (a,), lambda g: (g * sig,))


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)) of a float32 or float64
    array, a new array of its dtype. float32 takes exp in float64,
    rounded to float32, then the float32 quotient: within a few ulp of
    the C library's expf, which numpy's float32 exp is not. An exp that
    overflows gives 0, without a warning."""
    with np.errstate(over="ignore"):
        if x.dtype == np.float32:
            e = np.exp(np.negative(x, dtype=np.float64)).astype(np.float32)
        else:
            e = np.exp(np.negative(x))
    one = np.asarray(1, e.dtype)
    return np.divide(one, np.add(e, one, out=e))


def _rational(z: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The numerator and denominator of a rational function of the 1-D
    array ``z``, as rows of a (2, n) array: one Horner loop over
    ``table``'s (2, 1) coefficient columns, the highest power first."""
    acc = np.multiply(z, table[0])
    acc += table[1]
    for coef in table[2:]:
        acc *= z
        acc += coef
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float64 array, by Cody's rational approximations on his
    three ranges of |x| (see ``_ERF64_SMALL``), within a few ulp of the
    C library's erf. Odd bit for bit; +-inf maps to +-1, NaN stays NaN.

    The small range's x * P(x^2) / Q(x^2) runs over the whole array, with
    x^2 capped at the range's end, so that no element overflows there. The
    other two ranges, rare in a network's activations, run only on the
    elements that need them, gathered by index: erfc from exp(-x^2) and
    a rational function, then 1 - erfc with x's sign.
    """
    flat = x.reshape(-1)
    with np.errstate(over="ignore"):  # a square beyond the range is not used
        z = np.multiply(flat, flat)
    rest = np.flatnonzero(z > _ERF64_SMALL_SQ)
    np.minimum(z, _ERF64_SMALL_SQ, out=z)
    num, den = _rational(z, _ERF64_SMALL)
    out = np.multiply(flat, num)
    out /= den
    if rest.size:
        xr = flat[rest]
        y = np.abs(xr)
        np.minimum(y, _ERF64_ONE, out=y)
        num, den = _rational(y, _ERF64_MID)
        erfc = num / den
        large = np.flatnonzero(y > 4.0)
        if large.size:
            yl = y[large]
            z = 1.0 / (yl * yl)
            num, den = _rational(z, _ERF64_LARGE)
            erfc[large] = (_INV_SQRT_PI - z * num / den) / yl
        erfc *= np.exp(-(y * y))
        out[rest] = np.copysign(1.0 - erfc, xr)
    return out.reshape(x.shape)


def _gelu(x: np.ndarray, keep_phi: bool,
          out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU x * Phi(x) of an array and, if ``keep_phi`` is set, Phi(x)
    itself, the part of the derivative that is costly to compute;
    otherwise None. :func:`_gelu_slope` rebuilds the rest from it. The
    GELU goes to ``out`` if given, a C-ordered array of x's shape and
    dtype that may be x itself.

    Phi = 0.5 * (1 + erf(x / sqrt(2))). float64 takes Cody's erf,
    :func:`_erf`. float32 takes the clamped odd
    rational erf of Eigen and XLA, u * P(u^2) / Q(u^2) with
    u = clip(x / sqrt(2), -4, 4): at most 5e-7 from the float64 erf, odd
    bit for bit, and saturating to exactly x or 0 for |x| >= 5.66. It
    runs in blocks of ``_GELU_BLOCK`` elements on scratch rows that stay
    in cache, Phi built in its own block of the kept array when kept;
    every step is element-wise, so the bits do not depend on the
    blocking. Phi and, without ``out``, the GELU are new arrays.
    """
    if out is not None and not out.flags.c_contiguous:
        raise ContractError("_gelu writes the GELU only to a C-ordered array")
    if x.dtype != np.float32:
        phi = 0.5 * (1.0 + _erf(x * np.asarray(_INV_SQRT2, dtype=x.dtype)))
        return np.multiply(x, phi, out=out), phi if keep_phi else None
    k = _GELU32
    flat = x.reshape(-1)
    value = np.empty(flat.size, np.float32) if out is None else out.reshape(-1)
    phi = np.empty(flat.size, np.float32) if keep_phi else None
    u, t, p, q = np.empty((4, min(flat.size, _GELU_BLOCK)), np.float32)
    for start in range(0, flat.size, _GELU_BLOCK):
        end = start + _GELU_BLOCK
        xb = flat[start:end]
        ub, tb, qb = u[:xb.size], t[:xb.size], q[:xb.size]
        pb = p[:xb.size] if phi is None else phi[start:end]
        np.multiply(xb, k["inv_sqrt2"], out=ub)
        np.minimum(ub, k["clamp"], out=ub)  # clip, in two cheaper calls
        np.maximum(ub, k["-clamp"], out=ub)
        np.multiply(ub, ub, out=tb)
        for row, coef in ((pb, _ERF32_HALF_P), (qb, _ERF32_Q)):  # Horner in t
            np.multiply(tb, coef[0], out=row)
            np.add(row, coef[1], out=row)
            for c in coef[2:]:
                np.multiply(row, tb, out=row)
                np.add(row, c, out=row)
        np.multiply(ub, pb, out=pb)
        np.divide(pb, qb, out=pb)  # erf(x / sqrt(2)) / 2
        np.add(pb, k["half"], out=pb)  # Phi
        np.multiply(xb, pb, out=value[start:end])
    return (value.reshape(x.shape) if out is None else out,
            None if phi is None else phi.reshape(x.shape))


def _gelu_slope(x: np.ndarray, phi: np.ndarray, value: bool = False) -> np.ndarray:
    """The GELU derivative Phi(x) + x * pdf(x), built in place over
    ``phi``, :func:`_gelu`'s Phi(x) of ``x``. With ``value`` set, ``x``
    (C-ordered) is also turned in place into the GELU x * Phi(x).

    The old contents are lost, which a vjp may allow since a graph
    serves one backward. The pdf takes the same ufuncs in the same order
    as the whole-array formula, in blocks of ``_GELU_BLOCK`` elements on
    a scratch row, so each element gets the same bits.
    """
    if value and not x.flags.c_contiguous:
        raise ContractError("_gelu_slope can rebuild the GELU only over a C-ordered array")
    if x.dtype == np.float32:
        k = _GELU32
    else:
        k = {name: np.asarray(c, x.dtype) for name, c in _GELU_CONSTANTS}
    flat, slope = x.reshape(-1), phi.reshape(-1)
    t = np.empty(min(flat.size, _GELU_BLOCK), x.dtype)
    for start in range(0, flat.size, _GELU_BLOCK):
        xb, sb = flat[start:start + _GELU_BLOCK], slope[start:start + _GELU_BLOCK]
        tb = t[:xb.size]
        np.multiply(xb, k["-half"], out=tb)
        np.multiply(tb, xb, out=tb)
        np.exp(tb, out=tb)
        np.multiply(tb, k["inv_sqrt_2pi"], out=tb)  # pdf
        np.multiply(xb, tb, out=tb)
        if value:
            np.multiply(xb, sb, out=xb)
        np.add(sb, tb, out=sb)
    return slope.reshape(phi.shape)


def gelu(a: Tensor) -> Tensor:
    """Gaussian-CDF form x * Phi(x), never the tanh form: Cody's erf in
    float64, within a few ulp of the exact erf, and in float32 a rational
    erf within 5e-7 of it (see :func:`_gelu`). The node keeps Phi; its
    vjp rebuilds the slope."""
    data, phi = _gelu(a.data, _records((a,)))
    return _wrap(data, (a,), lambda g: (g * _gelu_slope(a.data, phi),))


# -- reductions --------------------------------------------------------


def _ones_shape(shape, axis, keepdims):
    if axis is None:
        return (1,) * len(shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if keepdims:
        return None  # grad already has the right rank
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        gshape = _ones_shape(shape, axis, keepdims)
        if gshape is not None:
            g = g.reshape(gshape)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

    return _wrap(data, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    shape, dtype = a.shape, a.dtype
    count = a.data.size if axis is None else int(np.prod(
        [shape[ax % len(shape)] for ax in ((axis,) if isinstance(axis, int) else axis)]))

    def vjp(g):
        gshape = _ones_shape(shape, axis, keepdims)
        if gshape is not None:
            g = g.reshape(gshape)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False) / count,)

    return _wrap(data, (a,), vjp)


# -- shape ops ---------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    orig = a.shape
    return _wrap(data, (a,), lambda g: (g.reshape(orig),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))
    return _wrap(data, (a,), lambda g: (g.transpose(inv),))


def getitem(a: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing. Copies so later writes cannot alias."""
    data = a.data[key].copy()
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[key] = g
        return (full,)

    return _wrap(data, (a,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat() of an empty sequence")
    if any(t.dtype != tensors[0].dtype for t in tensors):
        raise ShapeError("concat() operands must share a dtype")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(np.moveaxis(moved[offsets[i]:offsets[i + 1]], 0, axis)
                     for i in range(len(sizes)))

    return _wrap(data, tuple(tensors), vjp)


def _roll_groups(x: np.ndarray, offsets: tuple[int, ...], axes: tuple[int, ...],
                 sign: int) -> np.ndarray:
    out = np.empty(x.shape, dtype=x.dtype)
    for src, dst, off in zip(np.array_split(x, len(offsets), axis=-1),
                             np.array_split(out, len(offsets), axis=-1), offsets):
        dst[...] = np.roll(src, sign * off, axis=axes) if off else src
    return out


def roll(a: Tensor, offsets, axes) -> Tensor:
    """Cyclic shift of channel groups, one graph node.

    The last axis splits into ``len(offsets)`` contiguous groups, as
    ``np.array_split`` splits it (leading groups one larger when the
    split is uneven), and group i rolls by ``offsets[i]`` along every
    axis in ``axes``. One offset rolls the whole tensor. The vjp rolls
    the gradient back; it keeps no array."""
    offsets, axes = tuple(offsets), tuple(axes)
    return _wrap(_roll_groups(a.data, offsets, axes, 1), (a,),
                 lambda g: (_roll_groups(g, offsets, axes, -1),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.broadcast_to(a.data, shape).copy()
    orig = a.shape
    return _wrap(data, (a,), lambda g: (_unbroadcast(g, orig),))


# -- fused layers ------------------------------------------------------


def _softmax(a: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of an array along ``axis``, its maximum subtracted first."""
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of :func:`_softmax`'s input from that of its output ``p``."""
    inner = (g * p).sum(axis=axis, keepdims=True)
    return p * (g - inner)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    data = _softmax(a.data, axis)
    return _wrap(data, (a,), lambda g: (_softmax_vjp(g, data, axis),))


_NORM_FLOOR = 1e-12


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / max(||x||, 1e-12) along the last axis, as a new C-ordered array, and that divisor."""
    den = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    np.maximum(den, _NORM_FLOOR, out=den)
    return np.divide(x, den, out=np.empty(x.shape, dtype=x.dtype)), den


def _unit_rows_vjp(g: np.ndarray, unit: np.ndarray, den: np.ndarray) -> None:
    """Turn ``g``, the gradient of :func:`_unit_rows`'s output, in place
    into the gradient of its input. A row whose norm is at the floor
    divides by the floor alone: no gradient flows through its norm."""
    inner = (g * unit).sum(axis=-1, keepdims=True)
    inner *= den > _NORM_FLOOR
    g -= unit * inner
    g /= den


def cosine_attention(qkv: Tensor, tau: Tensor, bias_table: Tensor, index: np.ndarray,
                     heads: int, m: int) -> Tensor:
    """Swin V2 scaled cosine attention in the m x m windows of a grid, one
    graph node.

    ``qkv`` is (B, H, W, 3C), a qkv linear's output: each token's query,
    key and value, each of ``heads`` heads of C / heads channels. The op
    partitions the grid into windows of m x m tokens (m must tile H and
    W); per window and head the result is softmax(cos(q, k) / tau + B) @ v,
    with ``tau`` (heads,) and the relative position bias
    B = bias_table[index], ``index`` being the (m^4,) flat table row of
    each (query, key) pair, both in raster order inside the window. The
    norms of q and k are clamped at 1e-12. Returns the (B, H, W, C) grid,
    the heads side by side: windows exist only inside the op, which
    normalizes q and k straight from a strided view of the grid and
    copies only v, the output and the gradients between the layouts.

    The node keeps the unit q and k, their norms, v and the attention P,
    not the qkv buffer nor cos(q, k): the vjp rebuilds cos with the
    forward's own matmul, for dtau alone, so its bits are the same. The
    vjp takes the softmax backward dS = P * (dP - rowsum(dP * P))
    (FlashAttention, untiled) and the l2-normalize vjp. It writes the q,
    k and v gradients into one buffer, reduces dtau once and scatters
    dbias once into the table.
    """
    if qkv.ndim != 4:
        raise ShapeError(f"cosine_attention: qkv {qkv.shape} is not a (B, H, W, 3C) grid")
    b, h, w, c3 = qkv.shape
    c, t = c3 // 3, m * m
    if (m < 1 or h % m or w % m or c3 % 3 or c % heads or tau.shape != (heads,)
            or bias_table.ndim != 2 or bias_table.shape[1] != heads
            or np.shape(index) != (t * t,)):
        raise ShapeError(f"cosine_attention: qkv {qkv.shape}, tau {tau.shape}, bias table "
                         f"{bias_table.shape} and index {np.shape(index)} do not fit "
                         f"{heads} heads in {m}x{m} windows tiling the grid")
    if tau.dtype != qkv.dtype or bias_table.dtype != qkv.dtype:
        raise ShapeError(f"operand dtypes differ: {qkv.dtype}, {tau.dtype}, {bias_table.dtype}")
    bw, hd = b * (h // m) * (w // m), c // heads
    win = (b, h // m, w // m, heads, m, m, hd)  # (bw, heads, t, hd) arrays reshape to this

    def windows(grid, parts):  # (parts,) + win view of a (B, H, W, parts * C) grid
        grid = grid.reshape(b, h // m, m, w // m, m, parts, heads, hd)
        return grid.transpose(5, 0, 1, 3, 6, 2, 4, 7)

    q, k, v = windows(qkv.data, 3)
    qn, qden = (a.reshape(bw, heads, t, -1) for a in _unit_rows(q))
    kn, kden = (a.reshape(bw, heads, t, -1) for a in _unit_rows(k))
    v = v.copy().reshape(bw, heads, t, hd)  # a view would keep the whole qkv buffer
    # scores key by query, (bw, heads, t, t): numpy reduces the
    # second-to-last axis about 3x faster than the last
    rows = index.reshape(t, t).T
    tau_b = tau.data.reshape(heads, 1, 1)
    p = kn @ qn.swapaxes(-1, -2)  # cos, turned into the scores in place
    p /= tau_b
    p += bias_table.data[rows].transpose(2, 0, 1)
    p -= p.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-2, keepdims=True)
    out = np.empty((b, h, w, c), dtype=qkv.dtype)
    windows(out, 1)[0] = (p.swapaxes(-1, -2) @ v).reshape(win)

    def vjp(g):
        go = windows(g, 1).reshape(bw, heads, t, hd)
        grad = np.empty((b, h, w, c3), dtype=g.dtype)
        gq, gk, gv = windows(grad, 3)
        gv[...] = (p @ go).reshape(win)
        ds = v @ go.swapaxes(-1, -2)  # dP
        ds -= np.einsum("bhji,bhji->bhi", ds, p)[:, :, None, :]
        ds *= p  # dS
        gbias = np.zeros_like(bias_table.data)
        np.add.at(gbias, rows.reshape(-1), ds.sum(axis=0).reshape(heads, t * t).T)
        # one dot product of dS and cos per window and head, cos rebuilt
        # by the forward's matmul
        cos = kn @ qn.swapaxes(-1, -2)
        gtau = (ds.reshape(bw, heads, 1, t * t) @ cos.reshape(bw, heads, t * t, 1)).sum(axis=0)
        gtau = gtau.reshape(heads) / -(tau.data * tau.data)
        ds /= tau_b  # d cos
        dqk = ds.swapaxes(-1, -2) @ kn  # dq, then dk in the same buffer
        _unit_rows_vjp(dqk, qn, qden)
        gq[...] = dqk.reshape(win)
        _unit_rows_vjp(np.matmul(ds, qn, out=dqk), kn, kden)
        gk[...] = dqk.reshape(win)
        return grad, gtau, gbias

    return _wrap(out, (qkv, tau, bias_table), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis (eps 1e-5), then scale and shift."""
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match feature dim {n}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    data = gamma.data * xhat + beta.data

    def vjp(g):
        gbeta = g.reshape(-1, n).sum(axis=0)
        ggamma = (g * xhat).reshape(-1, n).sum(axis=0)
        gx_hat = g * gamma.data
        gx = inv * (gx_hat - gx_hat.mean(axis=-1, keepdims=True)
                    - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True))
        return gx, ggamma, gbeta

    return _wrap(data, (x, gamma, beta), vjp)


def _taps(x: np.ndarray) -> np.ndarray:
    """(9, B, H, W, C) zero-padded 3x3 neighbours of a (B, H, W, C) grid:
    tap 3 * dy + dx holds the cell at offset (dy - 1, dx - 1). The padded
    copy dies on return; only the stack lives."""
    b, h, w, c = x.shape
    padded = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
    padded[:, 1:-1, 1:-1] = x
    return np.stack([padded[:, dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)])


def _taps_vjp(g: np.ndarray) -> np.ndarray:
    """The gradient of :func:`_taps`' input from that of its stack: the
    taps added back into a padded grid in tap order."""
    _, b, h, w, c = g.shape
    full = np.zeros((b, h + 2, w + 2, c), dtype=g.dtype)
    for k in range(9):
        dy, dx = divmod(k, 3)
        full[:, dy:dy + h, dx:dx + w] += g[k]
    return full[:, 1:-1, 1:-1]


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution with zero padding 1 on a (B, H, W, Cin) grid, one
    graph node; ``weight`` is (3, 3, Cin, Cout), ``bias`` (Cout,).

    One batched matmul applies each tap's (Cin, Cout) slice to its
    neighbours in the :func:`_taps` stack; the nine products are summed in
    tap order, then the bias is added. The node keeps the tap stack and
    the (9, Cin, Cout) weight view. Its vjp makes the calls of the vjps of
    the chain taps, matmul, sum, add: the bias sum, the gradient broadcast
    over the taps, the two batched products, the taps added back."""
    operands = (x, weight, bias)
    if (x.ndim != 4 or weight.ndim != 4 or weight.shape[:3] != (3, 3, x.shape[-1])
            or bias.shape != weight.shape[3:] or any(t.dtype != x.dtype for t in operands)):
        raise ShapeError(f"conv3x3: {[(t.shape, str(t.dtype)) for t in operands]} do not fit")
    b, h, w, cin = x.shape
    cout = weight.shape[-1]
    taps = _taps(x.data).reshape(9, b * h * w, cin)
    kernel = weight.data.reshape(9, cin, cout)
    data = ((taps @ kernel).sum(axis=0) + bias.data).reshape(b, h, w, cout)

    def vjp(g):
        g = g.reshape(b * h * w, cout)
        gbias = _unbroadcast(g, (cout,))
        g = np.broadcast_to(g, (9, b * h * w, cout))
        gtaps = g @ np.swapaxes(kernel, -1, -2)
        gweight = np.swapaxes(taps, -1, -2) @ g
        return _taps_vjp(gtaps.reshape(9, b, h, w, cin)), gweight.reshape(3, 3, cin, cout), gbias

    return _wrap(data, operands, vjp)


def dwconv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Depthwise 3x3 convolution with zero padding 1 on a (B, H, W, C)
    grid, one graph node; ``weight`` is (3, 3, C), ``bias`` (C,).

    Each tap of the :func:`_taps` stack is scaled per channel, the nine
    are summed in tap order, then the bias is added. The node keeps the
    tap stack and the (9, 1, 1, 1, C) weight view. Its vjp makes the calls
    of the vjps of the chain taps, mul, sum, add: the bias sum, the
    gradient broadcast over the taps, the two products, the taps added
    back."""
    operands = (x, weight, bias)
    if (x.ndim != 4 or weight.shape != (3, 3, x.shape[-1]) or bias.shape != x.shape[-1:]
            or any(t.dtype != x.dtype for t in operands)):
        raise ShapeError(f"dwconv3x3: {[(t.shape, str(t.dtype)) for t in operands]} do not fit")
    c = x.shape[-1]
    taps = _taps(x.data)
    scale = weight.data.reshape(9, 1, 1, 1, c)
    data = (taps * scale).sum(axis=0) + bias.data

    def vjp(g):
        gbias = _unbroadcast(g, (c,))
        g = np.broadcast_to(g, taps.shape)
        gscale = _unbroadcast(g * taps, scale.shape)
        return _taps_vjp(g * scale), gscale.reshape(3, 3, c), gbias

    return _wrap(data, operands, vjp)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of integer labels against (B, C) logits."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ContractError(
            f"label index out of range for {c} classes: min={labels.min()}, max={labels.max()}")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    data = np.asarray((lse - z[np.arange(b), labels]).mean(), dtype=logits.dtype)
    probs = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        gl = probs.copy()
        gl[np.arange(b), labels] -= 1.0
        return (gl * (g / b),)

    return _wrap(data, (logits,), vjp)


def masked_l1(pred: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """Per-row sums of ``weights * |pred - target|`` over every axis but
    the first: a (rows,) tensor. ``weights`` holds each element's share
    of the score and is 0 where it does not count; ``target`` and
    ``weights`` take ``pred``'s shape and dtype. The gradient of row r is
    g[r] * weights * sign(pred - target)."""
    target = np.asarray(target, dtype=pred.dtype)
    weights = np.asarray(weights, dtype=pred.dtype)
    if target.shape != pred.shape or weights.shape != pred.shape:
        raise ShapeError(f"masked_l1: pred {pred.shape}, target {target.shape} and weights "
                         f"{weights.shape} must share one shape")
    diff = pred.data - target
    rows = (-1,) + (1,) * (pred.ndim - 1)
    data = (weights * np.abs(diff)).reshape(len(diff), -1).sum(axis=1)
    return _wrap(data, (pred,), lambda g: (g.reshape(rows) * weights * np.sign(diff),))


# -- worker pool -------------------------------------------------------

# Work (rows x hidden units x parts) from which a thread hand-off pays.
# On 2 cores an 8-expert MMoE layer runs 1.4-1.9x faster on the pool from
# 2^18 up, and slower at 2^16 and below. The threshold sits one step
# higher so that batch-1 inference of the calib model, whose dual-gate
# pass stacks 2 rows (at most 2^18), stays inline, off the pool's wake-up
# latency and without the workers' extra memory.
_PARALLEL_MIN_WORK = 1 << 19

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _engine_pool() -> ThreadPoolExecutor | None:
    """The engine's worker pool, made on first use; None with one thread."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            try:
                n = _thread_count()
            except ValueError as err:
                raise ConfigError(str(err)) from None
            if n > 1:
                _POOL = ThreadPoolExecutor(max_workers=n, thread_name_prefix="m3ad")
        return _POOL


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _parallel_map(fn: Callable, items: Sequence, work: int) -> list:
    """``[fn(item) for item in items]``, run on the engine's pool when
    ``work`` reaches the hand-off threshold. Results keep item order."""
    pool = _engine_pool() if work >= _PARALLEL_MIN_WORK and len(items) > 1 else None
    if pool is None:
        return [fn(item) for item in items]
    return list(pool.map(fn, items))


# -- parameter containers ----------------------------------------------


class Module:
    """Base class for anything that owns parameters.

    Parameters are discovered by walking instance attributes: tensors with
    ``requires_grad``, nested modules, and lists or tuples of modules. Attribute
    definition order fixes the traversal order, which checkpoints and the
    optimizer both rely on.
    """

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Tensor) and value.requires_grad:
                out[name] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(prefix=f"{name}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(prefix=f"{name}.{i}."))
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def parameter(rng: np.random.Generator, shape, dtype) -> Tensor:
    """Trainable tensor drawn from a Gaussian of standard deviation 0.02."""
    data = (rng.standard_normal(shape) * 0.02).astype(dtype)
    return Tensor(data, requires_grad=True)


def zeros_param(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def full_param(shape, value: float, dtype) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=True)


class Linear(Module):
    """Affine map y = x @ W + b on the last axis, W (in, out): one :func:`linear` node."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int,
                 dtype, bias: bool = True):
        self.weight = parameter(rng, (in_dim, out_dim), dtype)
        self.bias = zeros_param((out_dim,), dtype) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, dtype):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = zeros_param((dim,), dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


# -- gradient checking -------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], coords_per_tensor: int = 6,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must rebuild its graph on every call (a closure over ``params``)
    and return a scalar. A sample of coordinates from each parameter is
    perturbed in place by +-1e-4; relative error uses
    |a - n| / (|a| + |n| + 1e-8).
    """
    eps = 1e-4
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    out = f()
    if out.size != 1:
        raise ContractError(f"grad_check target must be scalar, got shape {out.shape}")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, ana in zip(params, analytic):
            flat = p.data.reshape(-1)
            ana_flat = ana.reshape(-1)
            k = min(coords_per_tensor, flat.size)
            picks = rng.choice(flat.size, size=k, replace=False)
            for i in picks:
                keep = flat[i]
                flat[i] = keep + eps
                hi = float(f().data)
                flat[i] = keep - eps
                lo = float(f().data)
                flat[i] = keep
                numeric = (hi - lo) / (2.0 * eps)
                a = float(ana_flat[i])
                err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-8)
                if err > worst:
                    worst = err
    for p in params:
        p.grad = None
    return worst


# -- .m3t tensor files -------------------------------------------------

_M3T_MAGIC = b"M3CK"
_M3T_VERSION = 3
_M3T_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
_M3T_PREFIX = 16  # magic, u32 version, u64 header length


def save_m3t(path, arrays: dict[str, np.ndarray], header: dict | None = None) -> None:
    """Write named float32/float64 arrays and a JSON header to one file.

    Layout: magic, u32 version, u64 header length, the UTF-8 JSON header,
    the little-endian row-major payloads in the order of the header's
    ``tensors`` list (each array's name, dtype and shape; it replaces a
    ``tensors`` key of ``header``), then the u32 CRC-32 of every byte
    before it, computed while writing.
    """
    arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
    # the scalar type's name is dtype.name without its Python-level getter
    entries = [{"name": name, "dtype": arr.dtype.type.__name__, "shape": list(arr.shape)}
               for name, arr in arrays.items()]
    bad = [e for e in entries if e["dtype"] not in _M3T_DTYPES]
    if bad:
        raise ContractError(f"tensor {bad[0]['name']!r} has dtype {bad[0]['dtype']}, "
                            f"not one of {tuple(_M3T_DTYPES)}")
    head = json.dumps({**(header or {}), "tensors": entries}).encode("utf-8")
    head = _M3T_MAGIC + struct.pack("<IQ", _M3T_VERSION, len(head)) + head
    crc = zlib.crc32(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for entry, arr in zip(entries, arrays.values()):
            # astype, not np.ascontiguousarray, which promotes 0-d arrays to (1,)
            arr = arr.astype(_M3T_DTYPES[entry["dtype"]], order="C", copy=False)
            fh.write(arr)
            crc = zlib.crc32(arr, crc)
        fh.write(struct.pack("<I", crc))


def load_m3t(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by :func:`save_m3t`: its header (without the
    tensor list) and its arrays by name. Raises CheckpointError naming
    the file for a bad magic or version, a CRC mismatch, a header that
    does not describe the payloads or repeats a name, or a length other
    than it implies.

    Each payload is read straight into the array returned, and the CRC
    is summed as the bytes go by, so no copy of the file is held. A
    header that fails its checks is reported only after the CRC of the
    whole file, so a damaged file reads as a CRC mismatch.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_M3T_PREFIX)
        if size < _M3T_PREFIX + 4 or prefix[:4] != _M3T_MAGIC:
            raise CheckpointError(f"{path}: not a tensor file (bad magic or truncated)")
        version, head_len = struct.unpack_from("<IQ", prefix, 4)
        if version != _M3T_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        head = fh.read(min(head_len, size - _M3T_PREFIX - 4))
        crc = zlib.crc32(head, zlib.crc32(prefix))
        try:
            header, entries = _m3t_header(path, head, _M3T_PREFIX + head_len, size)
        except CheckpointError:
            while chunk := fh.read(min(1 << 20, size - 4 - fh.tell())):
                crc = zlib.crc32(chunk, crc)
            _check_crc(path, fh, crc)
            raise
        arrays = {}
        for name, dtype, shape in entries:
            arr = np.empty(shape, dtype)
            raw = arr.reshape(-1).view(np.uint8)
            fh.readinto(raw)
            crc = zlib.crc32(raw, crc)
            arrays[name] = arr
        _check_crc(path, fh, crc)
    return header, arrays


def _m3t_header(path, head: bytes, offset: int, size: int) -> tuple[dict, list]:
    """A tensor file's JSON header without its tensor list, and that
    list as (name, dtype, shape) in payload order, checked against the
    file's ``size``, the payloads starting at ``offset``."""
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: corrupt header: {err}") from None
    _check_fields(path, "header", header, {"tensors": list})
    entries = header.pop("tensors")
    for e in entries:
        _check_fields(path, "tensor entry", e, {"name": str, "dtype": str, "shape": list})
        if e["dtype"] not in _M3T_DTYPES or not all(type(n) is int and n >= 0 for n in e["shape"]):
            raise CheckpointError(f"{path}: tensor {e['name']!r} has dtype {e['dtype']!r} and "
                                  f"shape {e['shape']}; dtypes are {tuple(_M3T_DTYPES)}")
    dtypes = [_M3T_DTYPES[e["dtype"]] for e in entries]
    described = offset + sum(math.prod(e["shape"]) * dt.itemsize
                             for e, dt in zip(entries, dtypes)) + 4
    if described != size:
        raise CheckpointError(f"{path}: the header describes {described} bytes, the file holds "
                              f"{size}")
    names = set()
    for e in entries:
        if e["name"] in names:
            raise CheckpointError(f"{path}: tensor {e['name']!r} is listed twice")
        names.add(e["name"])
    return header, [(e["name"], dt, e["shape"]) for e, dt in zip(entries, dtypes)]


def _check_crc(path, fh, crc: int) -> None:
    """Compare ``crc``, summed over every byte before the last four, with
    the CRC those four hold; ``fh`` stands just before them, unless the
    file shrank while it was read."""
    tail = fh.read(4)
    if len(tail) != 4 or crc != struct.unpack("<I", tail)[0]:
        raise CheckpointError(f"{path}: CRC mismatch (corrupt or truncated file)")


def _check_fields(path, where: str, raw, schema: dict) -> None:
    """Raise CheckpointError unless ``raw`` is a dict holding every key of
    ``schema`` with a value of the listed type (a bool is not a number)."""
    if not isinstance(raw, dict):
        raise CheckpointError(f"{path}: {where} is a {type(raw).__name__}, not an object")
    for key, kind in schema.items():
        if key not in raw:
            raise CheckpointError(f"{path}: {where} lacks field {key!r}")
        if isinstance(raw[key], bool) or not isinstance(raw[key], kind):
            raise CheckpointError(f"{path}: {where} field {key!r} holds a "
                                  f"{type(raw[key]).__name__}")
