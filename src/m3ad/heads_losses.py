"""Task heads, reconstruction decoder, masking, and the two training
objectives.

Pretraining reconstructs masked pixels (L1 over masked units only) while
routing experts by the known diagnosis label, plus an expert
specialization term that reconstructs each sample through its class's
experts alone; both come from one pass over the label-guided rows
stacked on the class-only rows. Fine-tuning is dual-gate: one pass over
a diagnosis block and a change block of rows, a shared pooling head per
task, and a weighted sum of the two cross-entropies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .moe import task_blocks
from .numerics import LayerNorm, Linear, Module, Tensor


@dataclass(frozen=True)
class MaskSpec:
    """One image's mask: which unit-sized squares are hidden."""

    unit: int
    image_hw: tuple[int, int]
    indices: np.ndarray  # sorted unique flat unit indices

    def __post_init__(self):
        # an empty list would otherwise arrive as float64 and fail as an
        # IndexError before the empty-mask ContractError
        object.__setattr__(self, "indices", np.asarray(self.indices).astype(np.intp, copy=False))

    @property
    def unit_grid(self) -> tuple[int, int]:
        return self.image_hw[0] // self.unit, self.image_hw[1] // self.unit

    def unit_mask(self) -> np.ndarray:
        uh, uw = self.unit_grid
        flat = np.zeros(uh * uw, dtype=bool)
        flat[self.indices] = True
        return flat.reshape(uh, uw)

    def pixel_mask(self) -> np.ndarray:
        return np.kron(self.unit_mask(), np.ones((self.unit, self.unit), dtype=bool))

    def pixel_indices(self) -> np.ndarray:
        """Flat (row-major) indices of all masked pixels."""
        return np.flatnonzero(self.pixel_mask().reshape(-1))

    def token_mask(self, patch: int) -> np.ndarray:
        """Float {0,1} mask over the patch-token grid."""
        if self.unit % patch:
            raise ContractError(
                f"mask unit {self.unit} is not a multiple of patch size {patch}")
        rep = self.unit // patch
        return np.kron(self.unit_mask(), np.ones((rep, rep))).astype(np.float64)


def sample_mask(rng: np.random.Generator, image_hw: tuple[int, int], unit: int,
                ratio: float) -> MaskSpec:
    """Uniformly choose round(ratio * units) units without replacement."""
    h, w = image_hw
    if not 0.0 < ratio < 1.0:
        raise ContractError(f"mask ratio must lie in (0, 1), got {ratio}")
    if h % unit or w % unit:
        raise ContractError(f"image extents {h}x{w} not divisible by mask unit {unit}")
    units = (h // unit) * (w // unit)
    count = int(round(ratio * units))
    idx = np.sort(rng.choice(units, size=count, replace=False))
    return MaskSpec(unit=unit, image_hw=(h, w), indices=idx)


def apply_mask(tokens: Tensor, specs: list[MaskSpec], mask_token: Tensor,
               patch: int) -> Tensor:
    """Replace patch embeddings inside masked units with the mask token.

    ``tokens`` is the (B, h, w, C) patch-embedding grid. Empty masks
    return the input unchanged (and build no graph nodes).
    """
    b, h, w, c = tokens.shape
    if len(specs) != b:
        raise ContractError(f"{len(specs)} mask specs for batch of {b}")
    if all(spec.indices.size == 0 for spec in specs):
        return tokens
    w_np = np.stack([spec.token_mask(patch) for spec in specs])
    if w_np.shape != (b, h, w):
        raise ShapeError(
            f"mask token grid {w_np.shape[1:]} does not match embedding grid {(h, w)}")
    w_np = w_np[..., None].astype(tokens.dtype.type)
    token_b = nm.reshape(mask_token, (1, 1, 1, c))
    return nm.add(nm.mul(tokens, 1.0 - w_np), nm.mul(nm.broadcast_to(token_b, tokens.shape), w_np))


class ReconDecoder(Module):
    """One linear map per final-stage position predicting its pixel block."""

    def __init__(self, rng: np.random.Generator, final_dim: int, stride: int, dtype):
        self.proj = Linear(rng, final_dim, stride * stride, dtype)
        self.stride = stride

    def __call__(self, grid: Tensor) -> Tensor:
        b, h, w, _ = grid.shape
        s = self.stride
        out = self.proj(grid)  # (B, h, w, s*s)
        out = nm.reshape(out, (b, h, w, s, s))
        out = nm.transpose(out, (0, 1, 3, 2, 4))
        return nm.reshape(out, (b, h * s, w * s))


class TaskHeads(Module):
    """Global average pool -> layer norm -> one linear head per task."""

    def __init__(self, rng: np.random.Generator, dim: int, num_change: int, dtype):
        self.norm = LayerNorm(dim, dtype)
        self.diagnosis = Linear(rng, dim, 3, dtype)
        self.change = Linear(rng, dim, num_change, dtype)

    def __call__(self, tokens: Tensor, *tasks: str) -> tuple[Tensor, ...]:
        """Pool every row of the (rows, L, C) tokens, then apply each
        task's head to that task's equal, contiguous block of rows."""
        if tokens.ndim != 3:
            raise ShapeError(f"heads expect (B, L, C) tokens, got {tokens.shape}")
        blocks = task_blocks(self.norm(tokens.mean(axis=1)), tasks)
        return tuple(self._head(task)(block) for task, block in zip(tasks, blocks))

    def _head(self, task: str) -> Linear:
        if task == "diagnosis":
            return self.diagnosis
        if task == "change":
            return self.change
        raise ContractError(f"unknown task {task!r}")


def _gather_masked(pred: Tensor, target: np.ndarray, specs: list[MaskSpec]):
    """Masked pixels of prediction and target as flat aligned vectors."""
    b, h, w = pred.shape
    per_image = h * w
    idx_parts = [spec.pixel_indices() + i * per_image for i, spec in enumerate(specs)]
    idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=int)
    if idx.size == 0:
        raise ContractError("empty mask: reconstruction loss is undefined")
    pred_sel = nm.take(nm.reshape(pred, (b * per_image,)), idx)
    target_sel = np.asarray(target, dtype=pred.dtype.type).reshape(-1)[idx]
    return pred_sel, target_sel, idx_parts


def recon_loss(pred: Tensor, target: np.ndarray, specs: list[MaskSpec]) -> Tensor:
    """Mean absolute error over masked pixels only.

    Pixels outside the mask never enter the computation, so perturbing
    them changes neither the value (bitwise) nor any gradient.
    """
    if pred.shape != np.asarray(target).shape:
        raise ShapeError(
            f"prediction shape {pred.shape} != target shape {np.asarray(target).shape}")
    pred_sel, target_sel, _ = _gather_masked(pred, target, specs)
    return nm.absolute(nm.sub(pred_sel, target_sel)).mean()


def masked_l1_per_sample(pred: np.ndarray, target: np.ndarray,
                         specs: list[MaskSpec]) -> np.ndarray:
    """Per-sample masked mean L1 on plain arrays (evaluation helper)."""
    out = np.empty(len(specs), dtype=np.float64)
    for i, spec in enumerate(specs):
        idx = spec.pixel_indices()
        diff = pred[i].reshape(-1)[idx] - target[i].reshape(-1)[idx]
        out[i] = np.abs(diff).mean()
    return out


def expert_specialization_loss(pred: Tensor, images: np.ndarray, labels: np.ndarray,
                               specs: list[MaskSpec]) -> Tensor:
    """Masked L1 of the class-only reconstructions ``pred``.

    Each sample's error is averaged over its mask, then over the samples
    of its class, and the class terms sum (absent classes add nothing):
    one weighted sum over masked pixels, each pixel weighted by
    1 / (its mask size * its class count).
    """
    pred_sel, target_sel, idx_parts = _gather_masked(pred, images, specs)
    counts = np.bincount(labels)
    weights = np.concatenate([np.full(part.size, 1.0 / (part.size * counts[label]))
                              for part, label in zip(idx_parts, labels)])
    diff = nm.absolute(nm.sub(pred_sel, target_sel))
    return nm.mul(diff, weights.astype(pred.dtype.type)).sum()


def pretrain_loss(model, images: np.ndarray, labels: np.ndarray,
                  specs: list[MaskSpec], lambda_expert: float) -> tuple[Tensor, Tensor, Tensor]:
    """Masked reconstruction under label-guided routing plus the weighted
    specialization term. Returns (total, recon, expert) scalars.

    One pass reconstructs the batch under label-guided rows and, when the
    term is on, again under class-only rows stacked below them."""
    if lambda_expert < 0:
        raise ContractError(f"lambda_expert must be >= 0, got {lambda_expert}")
    labels = np.asarray(labels)
    rows = [model.label_guided_weights(labels)]
    if lambda_expert != 0.0:
        rows.append(model.class_only_weights(labels))
    pred = model.reconstruct(np.concatenate([images] * len(rows)), np.concatenate(rows),
                             list(specs) * len(rows))
    b = len(labels)
    recon = recon_loss(pred[:b], images, specs)
    if lambda_expert == 0.0:
        zero = Tensor(np.zeros((), dtype=recon.dtype))
        return recon, recon, zero
    expert = expert_specialization_loss(pred[b:], images, labels, specs)
    total = nm.add(recon, nm.mul(expert, lambda_expert))
    return total, recon, expert


def finetune_loss(diag_logits: Tensor, change_logits: Tensor,
                  diag_labels: np.ndarray, change_labels: np.ndarray,
                  alpha: float = 1.0, beta: float = 1.0) -> Tensor:
    """alpha * CE(diagnosis) + beta * CE(change)."""
    ce_diag = nm.cross_entropy(diag_logits, diag_labels)
    ce_change = nm.cross_entropy(change_logits, change_labels)
    return nm.add(nm.mul(ce_diag, alpha), nm.mul(ce_change, beta))
