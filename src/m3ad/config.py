"""Run configuration: dataclasses, the ``key = value`` file format, and
``--set key=value`` overrides.

Config files are flat: one assignment per line, ``#`` starts a comment,
blank lines are skipped. Unknown keys are rejected rather than ignored so
a typo cannot silently fall back to a default. The dataclasses' type
hints are the schema, here and in :func:`from_fields`, the JSON reader.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConfigError

FUSION_TYPES = ("adaptive", "concat", "add", "hadamard")
SCHEMES = ("C3", "C9")

# Transition codes shared by the generator and the label schemes. Order is
# load-bearing: stable transitions first, then conversions, then reversion.
TRANSITIONS = (
    ("NC", "NC"), ("MCI", "MCI"), ("AD", "AD"),
    ("NC", "MCI"), ("MCI", "AD"), ("NC", "AD"),
    ("MCI", "NC"),
)
# Marginal frequencies (percent) observed in longitudinal cohorts: stable
# 65.3, conversion 33.0, reversion 1.7, with NC->NC at 33.5, MCI->AD at
# 21.3 and AD->AD at 17.8 pinning the within-group split.
TRANSITION_PRIORS = (0.335, 0.140, 0.178, 0.100, 0.213, 0.017, 0.017)

DIAG_NAMES = ("NC", "MCI", "AD")


def _check_finite(section) -> None:
    """Raise ConfigError naming the first float field, or tuple element,
    of a config section that is NaN or infinite. Every ``validate``
    starts here: a NaN fails every comparison, so a range check such as
    ``lr <= 0`` lets it through."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"{type(section).__name__} field {f.name!r} holds {value!r}, not finite")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    The defaults describe the full-size network (embed 96, depths 2/2/6/2).
    Tests and the acceptance suite run a reduced copy; nothing in the code
    depends on the defaults beyond validation.
    """

    patch_size: int = 4
    embed_dim: int = 96
    depths: tuple[int, ...] = (2, 2, 6, 2)
    num_heads: tuple[int, ...] = (3, 6, 12, 24)
    window: int = 8
    num_experts: int = 8
    num_shared_experts: int = 2
    expert_hidden_ratio: int = 4
    gate_temp: float = 1.0
    shared_expert_weight: float = 0.3
    fusion_stage: int = 2
    fusion_type: str = "adaptive"
    num_change_classes: int = 3
    mask_unit: int = 8
    mask_ratio: float = 0.6
    dtype: str = "float32"

    def validate(self) -> "ModelConfig":
        _check_finite(self)
        if len(self.depths) != 4 or len(self.num_heads) != 4:
            raise ConfigError("depths and num_heads must list exactly 4 stages")
        if any(d < 1 for d in self.depths):
            raise ConfigError(f"stage depths must be positive, got {self.depths}")
        for key in ("patch_size", "embed_dim", "expert_hidden_ratio"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for s, h in enumerate(self.num_heads):
            dim = self.stage_dim(s)
            if h < 1 or dim % h:
                raise ConfigError(f"stage {s} channels {dim} not divisible by {h} heads")
        if self.window < 2 or self.window % 2:
            raise ConfigError(f"window must be even and >= 2, got {self.window}")
        if self.num_shared_experts < 1 or self.num_shared_experts >= self.num_experts:
            raise ConfigError("need at least one shared and one class expert")
        if (self.num_experts - self.num_shared_experts) % len(DIAG_NAMES):
            raise ConfigError(
                f"{self.num_experts - self.num_shared_experts} class experts do not split "
                f"evenly over {len(DIAG_NAMES)} classes")
        if not 0.0 < self.shared_expert_weight < 1.0:
            raise ConfigError(f"shared_expert_weight must lie in (0, 1), got {self.shared_expert_weight}")
        if self.gate_temp <= 0.0:
            raise ConfigError(f"gate_temp must be positive, got {self.gate_temp}")
        if self.fusion_stage not in (0, 1, 2, 3):
            raise ConfigError(f"fusion_stage must be one of 0..3, got {self.fusion_stage}")
        if self.fusion_type not in FUSION_TYPES:
            raise ConfigError(f"fusion_type must be one of {FUSION_TYPES}, got {self.fusion_type!r}")
        if self.num_change_classes not in (3, 7):
            raise ConfigError(f"num_change_classes must be 3 or 7, got {self.num_change_classes}")
        if self.mask_unit < 1 or self.mask_unit % self.patch_size:
            raise ConfigError(f"mask_unit must be a positive multiple of patch_size "
                              f"{self.patch_size}, got {self.mask_unit}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must lie in (0, 1), got {self.mask_ratio}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        return self

    def stage_dim(self, stage: int) -> int:
        return self.embed_dim * (1 << stage)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 0.05
    clip_norm: float = 1.0
    epochs: int = 30
    batch_size: int = 16
    patience: int = 10
    seed: int = 0
    lambda_expert: float = 0.5
    alpha: float = 1.0
    beta: float = 1.0
    min_lr_ratio: float = 0.01

    def validate(self) -> "TrainConfig":
        _check_finite(self)
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ConfigError("epochs, batch_size and patience must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.min_lr_ratio <= 1.0:
            raise ConfigError(f"min_lr_ratio must lie in [0, 1], got {self.min_lr_ratio}")
        if self.lambda_expert < 0 or self.alpha < 0 or self.beta < 0:
            raise ConfigError("loss weights must be >= 0")
        return self


@dataclass
class DataConfig:
    n: int = 600
    size: int = 64
    scheme: str = "C3"
    fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)
    label_priors: tuple[float, ...] = TRANSITION_PRIORS

    def validate(self) -> "DataConfig":
        _check_finite(self)
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if self.size < 32 or self.size % 32:
            raise ConfigError(f"size must be a positive multiple of 32, got {self.size}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if len(self.fractions) != 3 or any(f < 0 for f in self.fractions):
            raise ConfigError(f"fractions must be 3 non-negative values, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError(f"fractions must sum to 1, got {self.fractions}")
        if len(self.label_priors) != len(TRANSITIONS) or any(p < 0 for p in self.label_priors):
            raise ConfigError(f"label_priors must be {len(TRANSITIONS)} non-negative values")
        if sum(self.label_priors) <= 0:
            raise ConfigError("label_priors must not all be zero")
        return self


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.train.validate()
        self.data.validate()
        return self


# -- parsing -----------------------------------------------------------


def _parse_value(name: str, kind, text: str):
    """The value of config field ``name`` of type ``kind`` from its text:
    an int, a float, a str, or a tuple of ints or floats written
    comma-separated."""
    item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None
    try:
        return kind(text) if item is None else tuple(item(part) for part in text.split(","))
    except ValueError as err:
        expected = "" if item is None else (
            f" (comma-separated {'integers' if item is int else 'numbers'})")
        raise ConfigError(f"bad value for {name}{expected}: {text!r}") from err


# (section, type) of every field of every RunConfig section, in declaration order
_KEYS = {f.name: (section, typing.get_type_hints(klass)[f.name])
         for section, klass in typing.get_type_hints(RunConfig).items()
         for f in dataclasses.fields(klass)}


def apply_assignment(cfg: RunConfig, key: str, value: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    section, kind = _KEYS[key]
    setattr(getattr(cfg, section), key, _parse_value(key, kind, value))


def parse_config_text(text: str, cfg: RunConfig | None = None,
                      source: str = "<config>") -> RunConfig:
    cfg = cfg or RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            apply_assignment(cfg, key, value)
        except ConfigError as err:
            raise ConfigError(f"{source}:{lineno}: {err}") from err
    return cfg


def load_config(path, cfg: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from None
    return parse_config_text(text, cfg=cfg, source=str(path))


def apply_overrides(cfg: RunConfig, assignments: Sequence[str]) -> RunConfig:
    """Apply ``key=value`` strings from the command line, last one wins."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        apply_assignment(cfg, key, value)
    return cfg


def _holds(value, kind) -> bool:
    """Whether a JSON value can fill a field of type ``kind`` (a bool is
    not a number; a JSON list fills a tuple, an object a dataclass)."""
    if typing.get_origin(kind) is tuple:
        return isinstance(value, list) and all(_holds(v, typing.get_args(kind)[0]) for v in value)
    if dataclasses.is_dataclass(kind):
        return isinstance(value, dict)
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def from_fields(klass, raw, skip: Sequence[str] = ()):
    """The dataclass ``klass`` read from the JSON object ``raw``, with its
    type hints as the schema: ``raw`` holds every field but those in ``skip``
    (set to None) and no other key; each value fits its hint and is finite.
    A list fills a tuple, an int a float, an object a nested dataclass, and
    None an ``X | None``. Else ConfigError names the record and the field."""
    record = klass.__name__
    kinds = {name: kind for name, kind in typing.get_type_hints(klass).items() if name not in skip}
    unknown = sorted(raw.keys() - kinds.keys())
    if unknown:
        raise ConfigError(f"unknown {record} field {unknown[0]!r} holds {raw[unknown[0]]!r}")
    values = dict.fromkeys(skip)
    for name, kind in kinds.items():
        if name not in raw:
            raise ConfigError(f"{record} lacks field {name!r}")
        value = raw[name]
        if isinstance(kind, types.UnionType):  # X | None
            kind = type(None) if value is None else typing.get_args(kind)[0]
        if not _holds(value, kind):
            raise ConfigError(f"{record} field {name!r} holds {value!r}, not "
                              f"{kind.__name__ if isinstance(kind, type) else kind}")
        values[name] = (from_fields(kind, value) if dataclasses.is_dataclass(kind)
                        else tuple(value) if isinstance(value, list)
                        else float(value) if kind is float else value)
    out = klass(**values)
    _check_finite(out)
    return out
