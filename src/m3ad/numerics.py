"""Dense tensors with reverse-mode automatic differentiation.

All model math runs through :class:`Tensor` and the op functions below.
Forward values are plain numpy arrays; each differentiable op records a
vector-Jacobian closure so :meth:`Tensor.backward` can fill gradients of
the leaves it reached. The engine is deliberately small: only the ops the
model needs exist, and each one is written so its gradient can be checked
against central finite differences (see :func:`grad_check`).

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
from scipy import special

from .entry import thread_count as _thread_count
from .errors import CheckpointError, ConfigError, ContractError, ShapeError

_GRAD_ENABLED = True

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

# float32 erf of Eigen and XLA: erf(u) ~ u * P(u^2) / Q(u^2) on [-4, 4],
# coefficients from the highest power down. The float32 GELU's constants
# are 0-d arrays: ufuncs take them faster than Python or numpy scalars,
# which counts on the small arrays of batch-1 scoring.
_ERF32_P = tuple(np.array(c, np.float32) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_Q = tuple(np.array(c, np.float32) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))
_GELU32 = {name: np.array(c, np.float32) for name, c in (
    ("inv_sqrt2", _INV_SQRT2), ("inv_sqrt_2pi", _INV_SQRT_2PI),
    ("clamp", 4.0), ("-clamp", -4.0), ("one", 1.0), ("half", 0.5), ("-half", -0.5))}
# elements per block of the float32 GELU: its scratch rows stay in cache
# (at two threads 8,192 was slower than scipy's erf, 32,768 even, 65,536 best)
_GELU_BLOCK = 65_536


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
        ``backward`` call that reaches them. Repeated backward calls
        accumulate into ``.grad`` until it is reset to ``None``, as
        :meth:`Module.zero_grad` does.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating) or arr.dtype == np.float16:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

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
        return self.requires_grad or self._vjp is not None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor to every reachable leaf.

        Without an explicit ``grad`` the tensor must be scalar. Leaf
        gradients accumulate across calls; intermediate gradients are
        discarded once consumed.
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

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = g.copy()
                    else:
                        node.grad = node.grad + g
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent._is_node():
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

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


def _wrap(node_data: np.ndarray, parents: tuple[Tensor, ...],
          vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    out = Tensor(node_data)
    if _records(parents):
        out._parents = parents
        out._vjp = vjp
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

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _wrap(data, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _wrap(data, (a, b), vjp)


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _wrap(data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D operands or stacked operands whose leading
    (batch) dimensions match exactly; no batch broadcasting."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions differ: {a.shape} @ {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"operand dtypes differ: {a.dtype} vs {b.dtype}")
    data = a.data @ b.data

    def vjp(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _wrap(data, (a, b), vjp)


# -- elementwise nonlinearities ---------------------------------------


def clamp_min(a: Tensor, low: float) -> Tensor:
    """max(a, low); gradient passes only where a > low."""
    data = np.maximum(a.data, np.asarray(low, dtype=a.dtype))
    mask = (a.data > low).astype(a.dtype)
    return _wrap(data, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    data = special.expit(a.data)
    return _wrap(data, (a,), lambda g: (g * data * (1.0 - data),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(a)), computed without overflow."""
    data = np.logaddexp(np.asarray(0, dtype=a.dtype), a.data)
    sig = special.expit(a.data)
    return _wrap(data, (a,), lambda g: (g * sig,))


def _gelu(x: np.ndarray, slope: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU x * Phi(x) of an array and, if ``slope`` is set, its
    derivative Phi(x) + x * pdf(x) from the same Phi; otherwise None.

    Phi = 0.5 * (1 + erf(x / sqrt(2))). float64 (and any dtype but
    float32) takes ``scipy.special.erf``. float32 takes the clamped odd
    rational erf of Eigen and XLA, u * P(u^2) / Q(u^2) with
    u = clip(x / sqrt(2), -4, 4): at most 5e-7 from the float64 erf, odd
    bit for bit, and saturating to exactly x or 0 for |x| >= 5.66. It
    runs in blocks of ``_GELU_BLOCK`` elements on scratch rows that stay
    in cache; every step is element-wise, so the bits do not depend on
    the blocking. The result is a new C-ordered array.
    """
    if x.dtype != np.float32:
        phi = 0.5 * (1.0 + special.erf(x * np.asarray(_INV_SQRT2, dtype=x.dtype)))
        if not slope:
            return x * phi, None
        pdf = np.asarray(_INV_SQRT_2PI, dtype=x.dtype) * np.exp(-0.5 * x * x)
        return x * phi, phi + x * pdf
    k = _GELU32
    flat = x.reshape(-1)
    value = np.empty(flat.size, np.float32)
    grad = np.empty(flat.size, np.float32) if slope else None
    u, t, p, q = np.empty((4, min(flat.size, _GELU_BLOCK)), np.float32)
    for start in range(0, flat.size, _GELU_BLOCK):
        end = start + _GELU_BLOCK
        xb = flat[start:end]
        ub, tb, pb, qb = u[:xb.size], t[:xb.size], p[:xb.size], q[:xb.size]
        np.multiply(xb, k["inv_sqrt2"], out=ub)
        np.minimum(ub, k["clamp"], out=ub)  # clip, in two cheaper calls
        np.maximum(ub, k["-clamp"], out=ub)
        np.multiply(ub, ub, out=tb)
        for row, coef in ((pb, _ERF32_P), (qb, _ERF32_Q)):  # Horner in t
            np.multiply(tb, coef[0], out=row)
            np.add(row, coef[1], out=row)
            for c in coef[2:]:
                np.multiply(row, tb, out=row)
                np.add(row, c, out=row)
        np.multiply(ub, pb, out=pb)
        np.divide(pb, qb, out=pb)  # erf(x / sqrt(2))
        np.add(pb, k["one"], out=pb)
        np.multiply(pb, k["half"], out=pb)  # Phi
        np.multiply(xb, pb, out=value[start:end])
        if slope:
            np.multiply(xb, k["-half"], out=tb)
            np.multiply(tb, xb, out=tb)
            np.exp(tb, out=tb)
            np.multiply(tb, k["inv_sqrt_2pi"], out=tb)  # pdf
            np.multiply(xb, tb, out=tb)
            np.add(pb, tb, out=grad[start:end])
    return value.reshape(x.shape), None if grad is None else grad.reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """Gaussian-CDF form x * Phi(x), never the tanh form: exact erf in
    float64, and in float32 a rational erf within 5e-7 of it (see
    :func:`_gelu`)."""
    data, slope = _gelu(a.data, _records((a,)))
    return _wrap(data, (a,), lambda g: (g * slope,))


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
    shape = a.shape

    def vjp(g):
        gshape = _ones_shape(shape, axis, keepdims)
        if gshape is not None:
            g = g.reshape(gshape)
        return (np.broadcast_to(g, shape).astype(a.dtype, copy=False),)

    return _wrap(data, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    count = a.data.size if axis is None else int(np.prod(
        [shape[ax % len(shape)] for ax in ((axis,) if isinstance(axis, int) else axis)]))

    def vjp(g):
        gshape = _ones_shape(shape, axis, keepdims)
        if gshape is not None:
            g = g.reshape(gshape)
        return (np.broadcast_to(g, shape).astype(a.dtype, copy=False) / count,)

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


def roll(a: Tensor, shift, axis) -> Tensor:
    data = np.roll(a.data, shift, axis=axis)
    neg_shift = tuple(-s for s in shift) if isinstance(shift, tuple) else -shift
    return _wrap(data, (a,), lambda g: (np.roll(g, neg_shift, axis=axis),))


def taps3x3(a: Tensor) -> Tensor:
    """(9, B, H, W, C) zero-padded 3x3 neighbours of a (B, H, W, C) grid:
    tap 3 * dy + dx holds the cell at offset (dy - 1, dx - 1). The
    gradient adds the taps back in that order."""
    if a.ndim != 4:
        raise ShapeError(f"taps3x3 expects (B, H, W, C), got {a.shape}")
    b, h, w, c = a.shape
    padded = np.zeros((b, h + 2, w + 2, c), dtype=a.dtype)
    padded[:, 1:-1, 1:-1] = a.data
    data = np.stack([padded[:, dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)])

    def vjp(g):
        full = np.zeros_like(padded)
        for k in range(9):
            dy, dx = divmod(k, 3)
            full[:, dy:dy + h, dx:dx + w] += g[k]
        return (full[:, 1:-1, 1:-1],)

    return _wrap(data, (a,), vjp)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.broadcast_to(a.data, shape).copy()
    orig = a.shape
    return _wrap(data, (a,), lambda g: (_unbroadcast(g, orig),))


# -- fused layers ------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _wrap(data, (a,), vjp)


_NORM_FLOOR = 1e-12


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / max(||x||, 1e-12) along the last axis, and that divisor."""
    den = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    np.maximum(den, _NORM_FLOOR, out=den)
    return x / den, den


def _unit_rows_vjp(g: np.ndarray, unit: np.ndarray, den: np.ndarray) -> None:
    """Turn ``g``, the gradient of :func:`_unit_rows`'s output, in place
    into the gradient of its input. A row whose norm is at the floor
    divides by the floor alone: no gradient flows through its norm."""
    inner = (g * unit).sum(axis=-1, keepdims=True)
    inner *= den > _NORM_FLOOR
    g -= unit * inner
    g /= den


def cosine_attention(qkv: Tensor, tau: Tensor, bias_table: Tensor, index: np.ndarray,
                     heads: int) -> Tensor:
    """Swin V2 scaled cosine attention of a stack of windows, one graph node.

    ``qkv`` is (windows, t, 3C), a qkv linear's output: each token's
    query, key and value, each of ``heads`` heads of C / heads channels.
    Per window and head the result is softmax(cos(q, k) / tau + B) @ v,
    with ``tau`` (heads,) and the relative position bias
    B = bias_table[index], ``index`` being the (t * t,) flat table row of
    each (query, key) pair. The norms of q and k are clamped at 1e-12.
    Returns (windows, t, C), the heads side by side.

    The vjp takes the softmax backward dS = P * (dP - rowsum(dP * P))
    (FlashAttention, untiled) and the l2-normalize vjp. It writes the q,
    k and v gradients into one buffer, reduces dtau once and scatters
    dbias once into the table.
    """
    bw, t, c3 = qkv.shape
    c = c3 // 3
    if (c3 % 3 or c % heads or tau.shape != (heads,) or bias_table.ndim != 2
            or bias_table.shape[1] != heads or np.shape(index) != (t * t,)):
        raise ShapeError(f"cosine_attention: qkv {qkv.shape}, tau {tau.shape}, bias table "
                         f"{bias_table.shape} and index {np.shape(index)} do not fit "
                         f"{heads} heads")
    if tau.dtype != qkv.dtype or bias_table.dtype != qkv.dtype:
        raise ShapeError(f"operand dtypes differ: {qkv.dtype}, {tau.dtype}, {bias_table.dtype}")
    hd = c // heads
    q, k, v = qkv.data.reshape(bw, t, 3, heads, hd).transpose(2, 0, 3, 1, 4)
    qn, qden = _unit_rows(q)
    kn, kden = _unit_rows(k)
    # scores key by query, (bw, heads, t, t): numpy reduces the
    # second-to-last axis about 3x faster than the last
    rows = index.reshape(t, t).T
    cos = kn @ qn.swapaxes(-1, -2)
    tau_b = tau.data.reshape(heads, 1, 1)
    p = cos / tau_b
    p += bias_table.data[rows].transpose(2, 0, 1)
    p -= p.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-2, keepdims=True)
    out = (p.swapaxes(-1, -2) @ v).transpose(0, 2, 1, 3).reshape(bw, t, c)

    def vjp(g):
        go = g.reshape(bw, t, heads, hd).transpose(0, 2, 1, 3)
        grad = np.empty((bw, t, 3, heads, hd), dtype=qkv.dtype)
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        np.matmul(p, go, out=gv)
        ds = v @ go.swapaxes(-1, -2)  # dP
        ds -= np.einsum("bhji,bhji->bhi", ds, p)[:, :, None, :]
        ds *= p  # dS
        gbias = np.zeros_like(bias_table.data)
        np.add.at(gbias, rows.reshape(-1), ds.sum(axis=0).reshape(heads, t * t).T)
        # one dot product of dS and cos per window and head
        gtau = (ds.reshape(bw, heads, 1, t * t) @ cos.reshape(bw, heads, t * t, 1)).sum(axis=0)
        gtau = gtau.reshape(heads) / -(tau.data * tau.data)
        ds /= tau_b  # d cos
        np.matmul(ds.swapaxes(-1, -2), kn, out=gq)
        np.matmul(ds, qn, out=gk)
        _unit_rows_vjp(gq, qn, qden)
        _unit_rows_vjp(gk, kn, kden)
        return grad.reshape(bw, t, c3), gtau, gbias

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
    """Affine map on the last axis: y = x @ W + b with W of shape (in, out)."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int,
                 dtype, bias: bool = True):
        self.weight = parameter(rng, (in_dim, out_dim), dtype)
        self.bias = zeros_param((out_dim,), dtype) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        lead = x.shape[:-1]
        flat = reshape(x, (-1, x.shape[-1])) if x.ndim != 2 else x
        y = matmul(flat, self.weight)
        if self.bias is not None:
            y = add(y, self.bias)
        if x.ndim != 2:
            y = reshape(y, lead + (self.weight.shape[1],))
        return y


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
    does not describe the payloads, or a length other than it implies."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _M3T_PREFIX + 4 or blob[:4] != _M3T_MAGIC:
        raise CheckpointError(f"{path}: not a tensor file (bad magic or truncated)")
    version, head_len = struct.unpack_from("<IQ", blob, 4)
    if version != _M3T_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if zlib.crc32(memoryview(blob)[:-4]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
        raise CheckpointError(f"{path}: CRC mismatch (corrupt or truncated file)")
    try:
        header = json.loads(blob[_M3T_PREFIX:_M3T_PREFIX + head_len].decode("utf-8"))
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
    counts = [math.prod(e["shape"]) for e in entries]
    offset = _M3T_PREFIX + head_len
    size = offset + sum(n * dt.itemsize for n, dt in zip(counts, dtypes)) + 4
    if size != len(blob):
        raise CheckpointError(f"{path}: the header describes {size} bytes, the file holds "
                              f"{len(blob)}")
    arrays = {}
    for e, dtype, count in zip(entries, dtypes, counts):
        arrays[e["name"]] = np.frombuffer(blob, dtype, count, offset).reshape(e["shape"]).copy()
        offset += count * dtype.itemsize
    return header, arrays


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
