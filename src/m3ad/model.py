"""Full network assembly.

One class wires the pieces: patch embedding (with the learnable mask
token for masked pretraining), four mixer stages joined by patch merges,
the clinical-prior encoder and fusion at the configured stage, the task
heads, and the pixel decoder. The same parameters serve both training
phases; only the routing and which heads are read differ:

* pretraining: fixed per-row routing, no priors, decoder output. The
  specialization term stacks class-only rows under the label-guided
  ones, so one pass serves both.
* fine-tuning: one pass over the diagnosis rows stacked on a copy for
  the change task, each half routed by its task's gate in every
  mixture-of-experts layer, priors fused in, per-task head on the pooled
  final grid of its half.

Either way :meth:`M3ADNet.encode` takes each scan once. The copies are
identical until the first MMoE layer mixes its experts by each copy's
weights, so the patch embedding, the mask, the first block's mixer and
that layer's norm, gate summary and experts run on the B scans, and the
copies split in that mix (:func:`m3ad.moe.expert_mix`): from there on
the routing's rows, a whole number of copies of the batch, run stacked.

From the patch embedding to the heads and the decoder, every layer
takes the (rows, H, W, C) grid as it is: the network never flattens it.
"""

from __future__ import annotations

import numpy as np

from .backbone import ATTENTION_STAGES, M3ADBlock, PatchEmbed, PatchMerge, WindowAttention
from .config import ModelConfig
from .errors import ShapeError
from .heads_losses import ReconDecoder, TaskHeads, apply_mask
from .moe import MMoELayer, Routing, label_guided_weights
from .numerics import Module, Tensor, parameter
from .priors import Fusion, PriorEncoder
from .tokmlp import TokMLPBlock


class M3ADNet(Module):
    """The complete network. Construction is deterministic in ``seed``."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.np_dtype = np.float32 if cfg.dtype == "float32" else np.float64
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        dt = self.np_dtype

        self.patch_embed = PatchEmbed(rng, cfg.patch_size, cfg.embed_dim, dt)
        self.mask_token = parameter(rng, (cfg.embed_dim,), dt)

        self.blocks: list[M3ADBlock] = []
        for stage in range(4):
            dim = cfg.stage_dim(stage)
            for depth in range(cfg.depths[stage]):
                if stage in ATTENTION_STAGES:
                    mixer = WindowAttention(rng, dim, cfg.num_heads[stage], cfg.window, dt,
                                            shifted=bool(depth % 2))
                else:
                    mixer = TokMLPBlock(rng, dim, dt)
                moe = MMoELayer(rng, dim, cfg.num_experts, cfg.expert_hidden_ratio,
                                cfg.gate_temp, dt)
                self.blocks.append(M3ADBlock(mixer, moe, dim, dt))
        self.merges = [PatchMerge(rng, cfg.stage_dim(s), dt) for s in range(3)]

        fdim = cfg.stage_dim(min(cfg.fusion_stage + 1, 3))
        self.prior_encoder = PriorEncoder(rng, fdim, dt)
        self.fusion = Fusion(rng, cfg.fusion_type, fdim, dt)

        final_dim = cfg.stage_dim(3)
        self.heads = TaskHeads(rng, final_dim, cfg.num_change_classes, dt)
        self.decoder = ReconDecoder(rng, final_dim, cfg.patch_size * 8, dt)

    # -- plumbing ------------------------------------------------------

    def _as_input(self, images) -> Tensor:
        if isinstance(images, Tensor):
            arr = images
        else:
            arr = Tensor(np.asarray(images, dtype=self.np_dtype))
        if arr.ndim != 3:
            raise ShapeError(f"expected images (B, H, W), got shape {arr.shape}")
        return arr

    def encode(self, images, routing: Routing, priors: np.ndarray | None = None,
               masks: np.ndarray | None = None) -> Tensor:
        """Run the backbone on B scans; returns the final (rows, h, w, 8C)
        grid, one row per row of the ``routing``, which covers a whole
        number of copies of the batch stacked in order. The first block
        runs once per scan, its MMoE layer's experts and gate summary
        included, and its MMoE layer returns the copies.

        ``priors`` (B, 3), already normalized, switches fusion on;
        ``masks``, (B, H/unit, W/unit) bool, puts the mask token in every
        masked unit's patch embeddings for masked pretraining.
        """
        x = self.patch_embed(self._as_input(images))
        if masks is not None:
            x = apply_mask(x, masks, self.mask_token)
        copies = routing.copies(x.shape[0])
        clinical = None
        if priors is not None:
            priors = np.asarray(priors, dtype=self.np_dtype)
            clinical = self.prior_encoder(Tensor(np.concatenate([priors] * copies)))
        block_idx = 0
        for stage in range(4):
            for _ in range(self.cfg.depths[stage]):
                x = self.blocks[block_idx](x, routing, copies if block_idx == 0 else 1)
                block_idx += 1
            if stage < 3:
                x = self.merges[stage](x)
            if stage == self.cfg.fusion_stage and clinical is not None:
                x = self.fusion(x, clinical)
        return x

    # -- pretraining forwards ------------------------------------------

    def label_guided_weights(self, labels: np.ndarray,
                             shared_weight: float | None = None) -> np.ndarray:
        """(B, E) label-guided routing rows for diagnosis ``labels``, the
        shared experts given ``shared_weight`` (default: the configured
        one). At 0 each sample runs through its class's experts alone."""
        cfg = self.cfg
        if shared_weight is None:
            shared_weight = cfg.shared_expert_weight
        return label_guided_weights(np.asarray(labels), cfg.num_experts,
                                    cfg.num_shared_experts, shared_weight, self.np_dtype)

    def reconstruct(self, images, weights: np.ndarray, masks: np.ndarray) -> Tensor:
        """Decoded (rows, H, W) pixels of the B ``images`` under their unit
        ``masks`` (B, H/unit, W/unit), one row per row of the fixed expert
        ``weights`` (rows, E): a whole number of copies of the batch, each
        copy with its own weight rows."""
        grid = self.encode(images, Routing(weights=weights), masks=masks)
        return self.decoder(grid)

    # -- fine-tuning forwards ------------------------------------------

    def dual_task_logits(self, images, priors: np.ndarray | None,
                         sink: list | None = None) -> tuple[Tensor, Tensor]:
        """(diagnosis, change) logits of one pass over the images, whose
        two copies split in the first MMoE layer: the first copy is
        routed by the diagnosis gates and read by the diagnosis head, the
        second by the change gates and head. ``priors=None`` runs without
        fusion; ``sink`` collects each MMoE layer's (2B, E) gate weights,
        in layer order."""
        return self.heads(self.encode(images, Routing(sink=sink), priors=priors))
