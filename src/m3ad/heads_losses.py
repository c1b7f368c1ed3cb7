"""Task heads, reconstruction decoder, masking, and the two training
objectives.

Pretraining reconstructs masked pixels (L1 over masked units only) while
routing experts by the known diagnosis label, plus an expert
specialization term that reconstructs each sample through its class's
experts alone; both come from one pass over the label-guided rows
stacked on the class-only rows. A batch's masks are one (B, H/unit,
W/unit) bool array over unit-sized squares, tiled onto the token grid
for the mask token and onto the pixel grid for the losses.

Every masked score is one engine op, :func:`m3ad.numerics.masked_l1`:
per-sample sums of weight * |pred - target|, each pixel weighted by its
share of the score and by 0 outside the mask. The reconstruction loss,
the specialization term and the validation metric differ only in those
shares.

Fine-tuning is dual-gate: one pass over a diagnosis copy of the batch
stacked on a change copy, a pooling head per task on its half of the
rows of the final (rows, h, w, C) grid, and a weighted sum of the two
cross-entropies.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .moe import task_blocks
from .numerics import LayerNorm, Linear, Module, Tensor


def sample_masks(rng: np.random.Generator, n: int, image_hw: tuple[int, int], unit: int,
                 ratio: float) -> np.ndarray:
    """(n, H/unit, W/unit) bool masks over unit-sized squares. Each mask
    hides round(ratio * units) units drawn uniformly without replacement,
    one ``rng.choice`` per mask, in order."""
    h, w = image_hw
    if not 0.0 < ratio < 1.0:
        raise ContractError(f"mask ratio must lie in (0, 1), got {ratio}")
    if h % unit or w % unit:
        raise ContractError(f"image extents {h}x{w} not divisible by mask unit {unit}")
    grid = (h // unit, w // unit)
    units = grid[0] * grid[1]
    count = int(round(ratio * units))
    masks = np.zeros((n, units), dtype=bool)
    for row in masks:
        row[rng.choice(units, size=count, replace=False)] = True
    return masks.reshape((n,) + grid)


def tile_masks(masks: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Expand (B, uh, uw) unit masks onto a (B, *grid) token or pixel grid,
    each unit covering an equal square block."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ShapeError(f"masks must be (B, uh, uw), got shape {masks.shape}")
    (uh, uw), (gh, gw) = masks.shape[1:], grid
    if gh % uh or gw % uw or gh // uh != gw // uw:
        raise ContractError(f"a {uh}x{uw} mask grid does not tile a {gh}x{gw} grid")
    rep = gh // uh
    return masks.repeat(rep, axis=1).repeat(rep, axis=2)


def apply_mask(tokens: Tensor, masks: np.ndarray, mask_token: Tensor) -> Tensor:
    """Replace patch embeddings inside masked units with the mask token.

    ``tokens`` is the (B, h, w, C) patch-embedding grid and ``masks`` the
    (B, uh, uw) unit masks. Empty masks return the input unchanged (and
    build no graph nodes).
    """
    b, h, w, c = tokens.shape
    if len(masks) != b:
        raise ContractError(f"{len(masks)} masks for batch of {b}")
    if not np.any(masks):
        return tokens
    w_np = tile_masks(masks, (h, w))[..., None].astype(tokens.dtype.type)
    token_b = nm.reshape(mask_token, (1, 1, 1, c))
    return nm.add(nm.mul(tokens, 1.0 - w_np), nm.mul(token_b, w_np))


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

    def __call__(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """(diagnosis, change) logits: pool each row of the (rows, ..., C)
        features over all its positions, then apply the diagnosis head to
        the first half of the rows and the change head to the second."""
        if x.ndim < 3:
            raise ShapeError(f"heads expect (rows, ..., C) features, got {x.shape}")
        diagnosis, change = task_blocks(self.norm(x.mean(axis=tuple(range(1, x.ndim - 1)))))
        return self.diagnosis(diagnosis), self.change(change)


def _masked_l1_rows(pred: Tensor, target: np.ndarray, masks: np.ndarray,
                    share: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """The :func:`~m3ad.numerics.masked_l1` rows of ``pred`` against
    ``target``: each masked pixel of sample i weighs ``share(sizes)[i]``
    (or the one value ``share`` returns), ``sizes`` being the samples'
    counts of masked pixels, and every other pixel 0."""
    if pred.shape != np.shape(target):
        raise ShapeError(f"prediction shape {pred.shape} != target shape {np.shape(target)}")
    b, h, w = pred.shape
    if len(masks) != b:
        raise ContractError(f"{len(masks)} masks for batch of {b}")
    pixels = tile_masks(masks, (h, w))
    sizes = np.count_nonzero(pixels, axis=(1, 2))
    if not sizes.any():
        raise ContractError("empty mask: reconstruction loss is undefined")
    weights = pixels * np.asarray(share(sizes), dtype=pred.dtype).reshape(-1, 1, 1)
    return nm.masked_l1(pred, target, weights)


def recon_loss(pred: Tensor, target: np.ndarray, masks: np.ndarray) -> Tensor:
    """Mean absolute error over the masked pixels of the batch: each of
    the N masked pixels weighs 1 / N, a quotient in pred's dtype.

    Pixels outside the mask weigh 0, so perturbing them changes neither
    the value (bitwise) nor any gradient.
    """
    return _masked_l1_rows(pred, target, masks,
                           lambda sizes: np.divide(1, sizes.sum(), dtype=pred.dtype)).sum()


def masked_l1_per_sample(pred: np.ndarray, target: np.ndarray,
                         masks: np.ndarray) -> np.ndarray:
    """Per-sample masked mean L1 on plain arrays (evaluation helper): each
    masked pixel weighs 1 / its sample's mask size. Builds no graph."""
    rows = _masked_l1_rows(Tensor(pred), target, masks, lambda sizes: 1.0 / np.maximum(sizes, 1))
    return rows.data.astype(np.float64)


def expert_specialization_loss(pred: Tensor, images: np.ndarray, labels: np.ndarray,
                               masks: np.ndarray) -> Tensor:
    """Masked L1 of the class-only reconstructions ``pred``.

    Each sample's error is averaged over its mask, then over the samples
    of its class, and the class terms sum (absent classes add nothing):
    each masked pixel weighs 1 / (its mask size * its class count),
    computed in float64 and cast to pred's dtype.
    """
    counts = np.bincount(labels)[labels]
    return _masked_l1_rows(pred, images, masks,
                           lambda sizes: 1.0 / (np.maximum(sizes, 1) * counts)).sum()


def pretrain_loss(model, images: np.ndarray, labels: np.ndarray,
                  masks: np.ndarray, lambda_expert: float) -> tuple[Tensor, Tensor, Tensor]:
    """Masked reconstruction under label-guided routing plus the weighted
    specialization term. Returns (total, recon, expert) scalars.

    One pass reconstructs the batch under label-guided rows and, when the
    term is on, again under class-only rows (label-guided at shared
    weight 0) stacked below them."""
    if lambda_expert < 0:
        raise ContractError(f"lambda_expert must be >= 0, got {lambda_expert}")
    labels = np.asarray(labels)
    rows = [model.label_guided_weights(labels)]
    if lambda_expert != 0.0:
        rows.append(model.label_guided_weights(labels, shared_weight=0.0))
    pred = model.reconstruct(images, np.concatenate(rows), masks)
    b = len(labels)
    recon = recon_loss(pred[:b], images, masks)
    if lambda_expert == 0.0:
        zero = Tensor(np.zeros((), dtype=recon.dtype))
        return recon, recon, zero
    expert = expert_specialization_loss(pred[b:], images, labels, masks)
    total = nm.add(recon, nm.mul(expert, lambda_expert))
    return total, recon, expert


def finetune_loss(diag_logits: Tensor, change_logits: Tensor,
                  diag_labels: np.ndarray, change_labels: np.ndarray,
                  alpha: float = 1.0, beta: float = 1.0) -> Tensor:
    """alpha * CE(diagnosis) + beta * CE(change)."""
    ce_diag = nm.cross_entropy(diag_logits, diag_labels)
    ce_change = nm.cross_entropy(change_logits, change_labels)
    return nm.add(nm.mul(ce_diag, alpha), nm.mul(ce_change, beta))
