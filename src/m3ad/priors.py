"""Clinical prior vector: normalization, encoding, and fusion into the
backbone's feature grid.

The prior is (age, gender, eTIV). Age and eTIV are z-scored with training
split statistics; gender is already in {0, 1} and passes through. The
encoder lifts the 3-vector through two hidden layers to the channel width
of the chosen fusion point, after stage s's merge (s < 3) or after the
last stage (s = 3):

    C_fusion = ModelConfig.stage_dim(min(s + 1, 3)) = embed * 2^min(s+1, 3)

The encoded vector is broadcast across every position of the (B, H, W,
C) grid and combined with the image features by one of four fusion rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .config import FUSION_TYPES
from .errors import ContractError, ShapeError
from .numerics import LayerNorm, Linear, Module, Tensor, full_param

PRIOR_DIM = 3
_HIDDEN = (128, 256)


@dataclass(frozen=True)
class PriorStats:
    """Training-split statistics used to normalize continuous priors."""

    age_mean: float
    age_std: float
    etiv_mean: float
    etiv_std: float


def compute_prior_stats(age: np.ndarray, etiv: np.ndarray) -> PriorStats:
    age = np.asarray(age, dtype=np.float64)
    etiv = np.asarray(etiv, dtype=np.float64)
    if age.size < 2:
        raise ContractError("need at least 2 samples to compute prior statistics")
    stats = PriorStats(age_mean=float(age.mean()), age_std=float(age.std()),
                       etiv_mean=float(etiv.mean()), etiv_std=float(etiv.std()))
    if stats.age_std < 1e-8 or stats.etiv_std < 1e-8:
        raise ContractError(
            f"degenerate prior statistics: age_std={stats.age_std:.3g}, "
            f"etiv_std={stats.etiv_std:.3g}")
    return stats


def normalize_priors(age: np.ndarray, gender: np.ndarray, etiv: np.ndarray,
                     stats: PriorStats, dtype) -> np.ndarray:
    """Stack normalized (age, gender, eTIV) into a (B, 3) array."""
    if stats.age_std < 1e-8 or stats.etiv_std < 1e-8:
        raise ContractError("degenerate prior statistics (zero spread)")
    age_z = (np.asarray(age, dtype=np.float64) - stats.age_mean) / stats.age_std
    etiv_z = (np.asarray(etiv, dtype=np.float64) - stats.etiv_mean) / stats.etiv_std
    out = np.stack([age_z, np.asarray(gender, dtype=np.float64), etiv_z], axis=-1)
    return out.astype(dtype)


class PriorEncoder(Module):
    """3 -> 128 -> 256 -> C_fusion with ReLU(LN(.)) hidden layers and a
    layer-normalized linear output."""

    def __init__(self, rng: np.random.Generator, out_dim: int, dtype):
        self.fc1 = Linear(rng, PRIOR_DIM, _HIDDEN[0], dtype)
        self.norm1 = LayerNorm(_HIDDEN[0], dtype)
        self.fc2 = Linear(rng, _HIDDEN[0], _HIDDEN[1], dtype)
        self.norm2 = LayerNorm(_HIDDEN[1], dtype)
        self.fc3 = Linear(rng, _HIDDEN[1], out_dim, dtype)
        self.norm3 = LayerNorm(out_dim, dtype)

    def __call__(self, priors: Tensor) -> Tensor:
        if priors.ndim != 2 or priors.shape[-1] != PRIOR_DIM:
            raise ShapeError(f"priors must be (batch, {PRIOR_DIM}), got {priors.shape}")
        h = nm.clamp_min(self.norm1(self.fc1(priors)), 0.0)
        h = nm.clamp_min(self.norm2(self.fc2(h)), 0.0)
        return self.norm3(self.fc3(h))


class Fusion(Module):
    """Combine image features (B, ..., C) with an encoded prior (B, C).

    adaptive : softmax-weighted sum of the two streams, then projection
    concat   : channel concat, then projection back to C
    add      : learnable scalars, alpha_image * X + alpha_clinical * Xc
    hadamard : X + W_proj(X ⊙ Xc), projection without bias
    """

    def __init__(self, rng: np.random.Generator, kind: str, dim: int, dtype):
        if kind not in FUSION_TYPES:
            raise ContractError(f"fusion kind must be one of {FUSION_TYPES}, got {kind!r}")
        self.kind = kind
        if kind == "adaptive":
            self.gate = Linear(rng, 2 * dim, 2, dtype)
            self.proj = Linear(rng, dim, dim, dtype)
        elif kind == "concat":
            self.proj = Linear(rng, 2 * dim, dim, dtype)
        elif kind == "add":
            self.alpha_image = full_param((), 1.0, dtype)
            self.alpha_clinical = full_param((), 0.1, dtype)
        else:  # hadamard
            self.proj = Linear(rng, dim, dim, dtype, bias=False)

    def __call__(self, x: Tensor, clinical: Tensor) -> Tensor:
        xc = self._spread(x, clinical)
        if self.kind == "adaptive":
            pooled = nm.concat([x, xc], axis=-1).mean(axis=tuple(range(1, x.ndim - 1)))
            w = nm.softmax(self.gate(pooled), axis=-1)  # (B, 2)
            column = (x.shape[0],) + (1,) * (x.ndim - 1)
            w0, w1 = nm.reshape(w[:, 0], column), nm.reshape(w[:, 1], column)
            return self.proj(nm.add(nm.mul(w0, x), nm.mul(w1, xc)))
        if self.kind == "concat":
            return self.proj(nm.concat([x, xc], axis=-1))
        if self.kind == "add":
            return nm.add(nm.mul(x, self.alpha_image), nm.mul(xc, self.alpha_clinical))
        return nm.add(x, self.proj(nm.mul(x, xc)))

    @staticmethod
    def _spread(x: Tensor, clinical: Tensor) -> Tensor:
        """Broadcast the (B, C) prior over every position of (B, ..., C) features."""
        if x.ndim < 3:
            raise ShapeError(f"fusion expects features (B, ..., C), got {x.shape}")
        b, c = x.shape[0], x.shape[-1]
        if clinical.shape != (b, c):
            raise ShapeError(
                f"encoded prior shape {clinical.shape} does not match features {x.shape}")
        return nm.broadcast_to(nm.reshape(clinical, (b,) + (1,) * (x.ndim - 2) + (c,)), x.shape)
