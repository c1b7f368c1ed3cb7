"""Two-stage training: optimizer, schedule, early stopping, checkpoints,
and the pretrain/fine-tune loops.

Both stages run one epoch loop: a cosine learning rate, a seeded
shuffle, one clipped AdamW step per batch, a validation row per epoch,
early stopping and a snapshot of the best epoch. A stage supplies only
its batch loss terms, its validation values and its stopping mode.

Stage 1 minimizes the masked-reconstruction objective with fixed
label-guided expert routing; gate parameters never receive a gradient
and therefore never change (the optimizer skips parameters without one,
so decoupled weight decay cannot touch them either). Stage 2 runs one
forward pass per batch over a diagnosis block and a change block of
rows, each routed by its task's gates, and optimizes the summed
cross-entropies.

A checkpoint is a tensor file (see :func:`m3ad.numerics.save_m3t`) of
the parameters, with the model config, stage, epoch, best value and
prior statistics in its header.

Everything is deterministic in (seed, config, data): epoch shuffling and
mask sampling derive from the seed. A batch's masks are one bool array
over the mask-unit grid of its images, drawn from the epoch rng; the
validation masks are drawn once, so the early-stopping metric is
comparable across epochs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import numerics as nm
from .config import ModelConfig, TrainConfig, config_as_dict, model_config_from_dict
from .data import Dataset
from .errors import CheckpointError, ConfigError, ContractError, ShapeError
from .heads_losses import finetune_loss, masked_l1_per_sample, pretrain_loss, sample_masks
from .model import M3ADNet
from .moe import TASKS
from .numerics import Tensor, no_grad
from .priors import PriorStats, compute_prior_stats, normalize_priors

log = logging.getLogger("m3ad")

_EPOCH_TAG = 0x45504F43
_VALMASK_TAG = 0x564D534B


def cosine_lr(t: int, total: int, base: float, min_lr: float) -> float:
    """Cosine annealing from base (t=0) to min_lr (t=total); clamps past the end."""
    if t >= total:
        return min_lr
    return min_lr + 0.5 * (base - min_lr) * (1.0 + np.cos(np.pi * t / total))


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm.

    This is the step's finiteness check. The norm sums squares in
    float64, which float32 gradients cannot overflow, so it is non-finite
    exactly when some gradient is; then a ContractError names the first
    such parameter, before any gradient is scaled or parameter moved.
    """
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None]
    for g in grads:
        g64 = g.reshape(-1).astype(np.float64)
        total += float(np.dot(g64, g64))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        for name, p in params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise ContractError(f"non-finite gradient for parameter {name!r}")
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class AdamW:
    """Adam with decoupled weight decay (beta1=0.9, beta2=0.999, eps=1e-8).

    Parameters whose gradient is absent are skipped entirely: no moment
    update, no decay. Each parameter keeps its own step count so bias
    correction stays exact for late joiners. Moments and parameters are
    updated in place. Gradients must be finite: :func:`clip_gradients`,
    which runs before every step, checks them.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.state: dict[str, dict] = {}

    def step(self) -> None:
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            st = self.state.get(name)
            if st is None:
                st = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0}
                self.state[name] = st
            st["t"] += 1
            t, m, v = st["t"], st["m"], st["v"]
            # the operations of the textbook expressions, in their order,
            # into two scratch arrays (out= keeps 0-d ones arrays)
            step, den = np.empty_like(m), np.empty_like(v)
            m *= self.BETA1
            m += np.multiply(g, 1.0 - self.BETA1, out=step)
            v *= self.BETA2
            np.multiply(g, g, out=den)
            den *= 1.0 - self.BETA2
            v += den
            np.divide(m, 1.0 - self.BETA1 ** t, out=step)  # m_hat
            np.divide(v, 1.0 - self.BETA2 ** t, out=den)  # v_hat
            if self.weight_decay:
                p.data -= (self.lr * self.weight_decay) * p.data
            step *= self.lr
            np.sqrt(den, out=den)
            den += self.EPS
            step /= den
            p.data -= step


class EarlyStopper:
    """Stop when the monitored value has not improved for ``patience``
    epochs; improvement is strict. ``best_epoch`` equals the epoch just
    passed to ``update`` exactly when that epoch improved."""

    def __init__(self, patience: int, mode: str):
        if mode not in ("min", "max"):
            raise ContractError(f"mode must be min or max, got {mode!r}")
        self.patience = int(patience)
        self.mode = mode
        self.best: float | None = None
        self.best_epoch: int = -1

    def update(self, value: float, epoch: int) -> bool:
        if not np.isfinite(value):
            raise ContractError(f"non-finite monitored value {value} at epoch {epoch}")
        better = (self.best is None
                  or (value < self.best if self.mode == "min" else value > self.best))
        if better:
            self.best = float(value)
            self.best_epoch = epoch
            return False
        return (epoch - self.best_epoch) >= self.patience


# -- checkpoints -------------------------------------------------------

_HEADER_FIELDS = {"model_config": dict, "stage": str, "epoch": int, "best": dict,
                  "prior_stats": (dict, type(None))}


@dataclass
class Checkpoint:
    """What one training stage hands to the next, or to evaluation: the
    parameters, with the prior statistics they were fine-tuned under."""

    model_config: ModelConfig
    stage: str
    params: dict[str, np.ndarray]
    epoch: int = 0
    best: dict = field(default_factory=dict)
    prior_stats: PriorStats | None = None


def snapshot(model: M3ADNet, optimizer: AdamW | None, stage: str, epoch: int,
             best: dict, prior_stats: PriorStats | None = None) -> Checkpoint:
    """Deep-copy the model's parameters into a Checkpoint.

    ``optimizer`` is ignored: no stage resumes an optimizer, so its
    moments are not kept.
    """
    del optimizer
    params = {name: p.data.copy() for name, p in model.named_parameters().items()}
    return Checkpoint(model_config=model.cfg, stage=stage, params=params,
                      epoch=epoch, best=dict(best), prior_stats=prior_stats)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """A tensor file of the parameters, with the model config, stage,
    epoch, best value and prior statistics in its header."""
    nm.save_m3t(path, ckpt.params, {
        "model_config": config_as_dict(ckpt.model_config),
        "stage": ckpt.stage,
        "epoch": ckpt.epoch,
        "best": ckpt.best,
        "prior_stats": ckpt.prior_stats.as_dict() if ckpt.prior_stats else None,
    })


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed header, or a parameter or prior
    statistic that is NaN or infinite, raises CheckpointError naming it."""
    header, params = nm.load_m3t(path)
    nm._check_fields(path, "header", header, _HEADER_FIELDS)
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
    stats = header["prior_stats"]
    if stats is not None:
        nm._check_fields(path, "prior_stats", stats,
                         dict.fromkeys((f.name for f in fields(PriorStats)), (int, float)))
        for name, value in stats.items():
            if not np.isfinite(value):
                raise CheckpointError(f"{path}: prior_stats field {name!r} is {value}")
    try:
        model_config = model_config_from_dict(header["model_config"])
    except ConfigError as err:
        raise CheckpointError(f"{path}: checkpoint header: {err}") from None
    return Checkpoint(
        model_config=model_config,
        stage=header["stage"], params=params,
        epoch=header["epoch"], best=header["best"],
        prior_stats=PriorStats.from_dict(stats) if stats is not None else None)


def load_params(model: M3ADNet, ckpt: Checkpoint) -> None:
    """Assign checkpoint parameters into a model by name; the checkpoint
    must hold exactly the model's parameters, each with its shape."""
    named = model.named_parameters()
    extra = set(ckpt.params) - set(named)
    if extra:
        raise CheckpointError(f"checkpoint has unknown parameters: {sorted(extra)[:4]}")
    for name, p in named.items():
        arr = ckpt.params.get(name)
        if arr is None or tuple(arr.shape) != p.data.shape:
            raise CheckpointError(
                f"checkpoint does not provide parameter {name!r} with shape {p.data.shape}")
        p.data = arr.astype(p.data.dtype, copy=True)


def model_from_checkpoint(ckpt: Checkpoint) -> M3ADNet:
    model = M3ADNet(ckpt.model_config, seed=0)
    load_params(model, ckpt)
    return model


# -- loops -------------------------------------------------------------


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _EPOCH_TAG, int(epoch)]))


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.size, batch_size):
        yield order[start:start + batch_size]


def _check_scan_shapes(train: Dataset, val: Dataset) -> None:
    """Validation scores the resolution that training runs at."""
    have, want = ("x".join(map(str, ds.images.shape[1:])) for ds in (val, train))
    if have != want:
        raise ShapeError(f"validation scans are {have} but training scans are {want}")


def _fit(model: M3ADNet, cfg: TrainConfig, n: int, stage: str, mode: str, batch_loss,
         validate, on_batch=None,
         prior_stats: PriorStats | None = None) -> tuple[Checkpoint, list[dict]]:
    """The epoch loop both stages share; returns the best checkpoint and
    one log row per completed epoch.

    ``batch_loss(rng, batch)`` returns the named loss terms of one batch
    of the ``n`` training rows, total first; the row reports their means.
    ``validate()`` returns the named validation values, the monitored one
    last. A non-finite total stops training before its backward pass.
    """
    opt = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    stopper = EarlyStopper(cfg.patience, mode=mode)
    min_lr = cfg.min_lr_ratio * cfg.lr

    best_ckpt: Checkpoint | None = None
    rows: list[dict] = []
    for epoch in range(cfg.epochs):
        opt.lr = cosine_lr(epoch, cfg.epochs, cfg.lr, min_lr)
        rng = _epoch_rng(cfg.seed, epoch)
        order = rng.permutation(n)
        sums: dict[str, float] = {}
        for index, batch in enumerate(_batches(order, cfg.batch_size)):
            terms = batch_loss(rng, batch)
            total, *_ = terms.values()
            values = [term.item() for term in terms.values()]
            if not np.isfinite(values[0]):
                raise ContractError(
                    f"non-finite training loss {values[0]} at epoch {epoch}, batch {index}")
            model.zero_grad()
            total.backward()
            if on_batch is not None:
                on_batch(model, epoch, batch)
            clip_gradients(opt.params, cfg.clip_norm)
            opt.step()
            for name, value in zip(terms, values):
                sums[name] = sums.get(name, 0.0) + value * batch.size

        scores = validate()
        rows.append({"epoch": epoch, "lr": opt.lr,
                     **{name: value / n for name, value in sums.items()}, **scores})
        log.info("%s epoch %d: %s", stage, epoch,
                 " ".join(f"{name} {v:.5f}" for name, v in rows[-1].items() if name != "epoch"))

        metric, value = list(scores.items())[-1]
        stop = stopper.update(value, epoch)
        if stopper.best_epoch == epoch:
            best_ckpt = snapshot(model, None, stage, epoch,
                                 {"metric": metric, "value": value, "epoch": epoch},
                                 prior_stats=prior_stats)
        if stop:
            log.info("%s early stop at epoch %d (best epoch %d)", stage, epoch, stopper.best_epoch)
            break
    assert best_ckpt is not None
    return best_ckpt, rows


def pretrain_loop(model: M3ADNet, train: Dataset, val: Dataset, cfg: TrainConfig,
                  on_batch=None) -> tuple[Checkpoint, list[dict]]:
    """Masked-reconstruction pretraining; returns the best checkpoint
    (by validation masked L1) and one log row per completed epoch.
    A ``mask_unit`` that does not divide the images, or a ``mask_ratio``
    that hides no unit, raises ConfigError before the first step, and
    validation scans of another shape than the training scans raise
    ShapeError."""
    cfg.validate()
    _check_scan_shapes(train, val)
    hw = train.images.shape[1:]
    unit, ratio = model.cfg.mask_unit, model.cfg.mask_ratio
    if hw[0] % unit or hw[1] % unit:
        raise ConfigError(f"mask_unit {unit} does not divide the {hw[0]}x{hw[1]} images")
    if round(ratio * (hw[0] // unit) * (hw[1] // unit)) < 1:
        raise ConfigError(f"mask_ratio {ratio} hides no unit of the "
                          f"{hw[0] // unit}x{hw[1] // unit} mask grid")
    val_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _VALMASK_TAG]))
    val_masks = sample_masks(val_rng, len(val), hw, unit, ratio)
    val_weights = model.label_guided_weights(val.diag)

    def batch_loss(rng, batch):
        masks = sample_masks(rng, batch.size, hw, unit, ratio)
        total, recon, expert = pretrain_loss(
            model, train.images[batch], train.diag[batch], masks, cfg.lambda_expert)
        return {"train_total": total, "train_recon": recon, "train_expert": expert}

    def validate():
        l1 = _masked_l1_eval(model, val, val_masks, val_weights, cfg.batch_size)
        return {"val_masked_l1": float(l1.mean())}

    return _fit(model, cfg, len(train), "pretrain", "min", batch_loss, validate, on_batch)


def _masked_l1_eval(model: M3ADNet, ds: Dataset, masks: np.ndarray, weights: np.ndarray,
                    batch_size: int) -> np.ndarray:
    """Per-sample masked L1 of the reconstructions under fixed routing,
    one unit mask and one (E,) row of ``weights`` per sample."""
    values = np.empty(len(ds))
    with no_grad():
        for batch in _batches(np.arange(len(ds)), batch_size):
            pred = model.reconstruct(ds.images[batch], weights[batch], masks[batch])
            values[batch] = masked_l1_per_sample(pred.data, ds.images[batch], masks[batch])
    return values


def predict(model: M3ADNet, ds: Dataset, stats: PriorStats | None,
            batch_size: int = 16) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Score a split in batches under ``no_grad``, one dual-gate pass per
    batch. ``stats=None`` runs without priors.

    Returns, per task, the (N, classes) logits and the (layers, experts)
    float64 sum over scans of each MMoE layer's gate weights.
    """
    logits: dict[str, list[np.ndarray]] = {task: [] for task in TASKS}
    gate_sums = {task: np.zeros((len(model.blocks), model.cfg.num_experts)) for task in TASKS}
    with no_grad():
        for batch in _batches(np.arange(len(ds)), batch_size):
            priors = None
            if stats is not None:
                priors = normalize_priors(ds.age[batch], ds.gender[batch], ds.etiv[batch],
                                          stats, dtype=model.np_dtype)
            sink: list[np.ndarray] = []
            outs = model.dual_task_logits(ds.images[batch], priors, sink=sink)
            for t, (task, out) in enumerate(zip(TASKS, outs)):
                logits[task].append(out.data)
                for layer, w in enumerate(sink):
                    gate_sums[task][layer] += w[t * batch.size:(t + 1) * batch.size].sum(axis=0)
    return {task: np.concatenate(parts) for task, parts in logits.items()}, gate_sums


def task_accuracies(model: M3ADNet, ds: Dataset, stats: PriorStats,
                    batch_size: int) -> tuple[float, float]:
    """(diagnosis accuracy, change accuracy) of argmax predictions."""
    logits, _ = predict(model, ds, stats, batch_size)
    return (float(np.count_nonzero(logits["diagnosis"].argmax(axis=1) == ds.diag) / len(ds)),
            float(np.count_nonzero(logits["change"].argmax(axis=1) == ds.change) / len(ds)))


def _load_init(model: M3ADNet, init: Checkpoint) -> None:
    have, want = config_as_dict(init.model_config), config_as_dict(model.cfg)
    differ = [key for key in want if key != "num_change_classes" and have[key] != want[key]]
    if differ:
        raise CheckpointError("init checkpoint differs from the model config in " + ", ".join(
            f"{key} ({have[key]!r} vs {want[key]!r})" for key in differ))
    params = dict(init.params)
    if have["num_change_classes"] != want["num_change_classes"]:
        fresh = model.heads.change.named_parameters(prefix="heads.change.")
        params.update((name, p.data) for name, p in fresh.items())
        log.info("fine-tune init: change head kept fresh (%d -> %d classes)",
                 have["num_change_classes"], want["num_change_classes"])
    load_params(model, replace(init, params=params))


def finetune_loop(model: M3ADNet, train: Dataset, val: Dataset, cfg: TrainConfig,
                  init: Checkpoint | None = None,
                  on_batch=None) -> tuple[Checkpoint, list[dict]]:
    """Dual-pass multi-task fine-tuning; the monitored quantity is the
    mean of the two validation task accuracies.

    ``init`` seeds the model with pretrained parameters. Its model config
    must equal the model's except in ``num_change_classes``; when that
    differs (switching label schemes) the change head keeps its fresh
    initialization. Validation scans of another shape than the training
    scans raise ShapeError, and a change label of either split that the
    change head has no class for raises ContractError, before the first
    step.
    """
    cfg.validate()
    _check_scan_shapes(train, val)
    if init is not None:
        _load_init(model, init)
    for split, ds in (("training", train), ("validation", val)):
        top = int(ds.change.max())
        if top >= model.cfg.num_change_classes:
            raise ContractError(f"{split} change label {top} out of range for "
                                f"{model.cfg.num_change_classes}-class head")

    stats = compute_prior_stats(train.age, train.etiv)

    def batch_loss(rng, batch):
        del rng
        priors = normalize_priors(train.age[batch], train.gender[batch],
                                  train.etiv[batch], stats, dtype=model.np_dtype)
        diag_logits, change_logits = model.dual_task_logits(train.images[batch], priors)
        return {"train_loss": finetune_loss(diag_logits, change_logits, train.diag[batch],
                                            train.change[batch], alpha=cfg.alpha, beta=cfg.beta)}

    def validate():
        diag_acc, change_acc = task_accuracies(model, val, stats, cfg.batch_size)
        return {"val_diag_acc": diag_acc, "val_change_acc": change_acc,
                "val_mean_acc": 0.5 * (diag_acc + change_acc)}

    return _fit(model, cfg, len(train), "finetune", "max", batch_loss, validate, on_batch,
                prior_stats=stats)
