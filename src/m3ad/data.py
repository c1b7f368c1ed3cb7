"""Synthetic pseudo-MRI data, manifests, normalization, and splits.

Each sample is a single-channel 2-D image built from a smooth random
field inside an elliptical "brain", a fixed central region whose
intensity drops with diagnosis severity (the atrophy stand-in: region
mean NC > MCI > AD), a corner marker pattern keyed by the longitudinal
transition code, and white noise. Clinical priors (age, gender, eTIV)
are drawn correlated with diagnosis.

Labels come from one underlying 7-way transition draw, so the C3 and C9
schemes emit identical images and diagnosis labels for the same seed and
differ only in how the change label is coded. The two clinically absent
transitions (AD to MCI, AD to NC) are never generated.

Every sample uses its own RNG stream derived from (seed, index), so
generation order cannot affect content.

Each scan is a tensor file (see :func:`m3ad.numerics.save_m3t`) that
holds one float32 array named ``image`` and an empty header; the
manifest CSV lists the scans with their priors, labels and split.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import DIAG_NAMES, TRANSITION_PRIORS, TRANSITIONS
from .errors import ContractError, ManifestError
from .numerics import load_m3t, save_m3t

SPLITS = ("train", "val", "test")
C3_NAMES = ("Stable", "Conversion", "Reversion")

# diagnosis endpoint and 3-class change group for each transition code
_DIAG_OF_CODE = tuple(DIAG_NAMES.index(dst) for _, dst in TRANSITIONS)
_C3_OF_CODE = tuple(0 if src == dst else (2 if DIAG_NAMES.index(dst) < DIAG_NAMES.index(src) else 1)
                    for src, dst in TRANSITIONS)

# per-class image statistics: (tissue level, central-region multiplier)
_TISSUE_LEVEL = (0.62, 0.57, 0.52)
_REGION_KEEP = (0.85, 0.62, 0.40)
_AGE_MEAN = (62.0, 70.0, 76.3)
_AGE_STD = (9.0, 8.0, 7.1)

_SPLIT_TAG = 0x53504C49
_MANIFEST_HEADER = ("path", "age", "gender", "etiv", "diag", "change", "split")


def transition_diag_label(code: int) -> int:
    return _DIAG_OF_CODE[code]


def transition_change_label(code: int, scheme: str) -> int:
    if scheme == "C9":
        return code
    if scheme == "C3":
        return _C3_OF_CODE[code]
    raise ContractError(f"unknown label scheme {scheme!r}")


@dataclass
class SampleRecord:
    path: str
    age: float
    gender: int
    etiv: float
    diag: int
    change: int
    split: str


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=None)
def class_region_mask(size: int) -> np.ndarray:
    """Boolean mask of the diagnosis-graded central region, read-only.

    The geometry is fixed (no per-sample jitter) so tests can measure
    region statistics without access to generator internals.
    """
    yy, xx = np.mgrid[0:size, 0:size]
    cy = cx = (size - 1) / 2.0
    ry, rx = 0.22 * size / 2.0, 0.30 * size / 2.0
    return _frozen(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0)


@functools.lru_cache(maxsize=None)
def _marker_tile(code: int, m: int) -> np.ndarray:
    """Distinct m x m binary pattern per transition code, read-only."""
    yy, xx = np.mgrid[0:m, 0:m]
    patterns = (
        np.ones((m, m)),                      # solid
        (yy // 2) % 2 == 0,                   # horizontal stripes
        (xx // 2) % 2 == 0,                   # vertical stripes
        ((yy // 2) + (xx // 2)) % 2 == 0,     # checker
        np.abs(yy - xx) <= 1,                 # diagonal
        (np.abs(yy - m // 2) <= 1) | (np.abs(xx - m // 2) <= 1),  # cross
        ((yy % 3) == 1) & ((xx % 3) == 1),    # dots
    )
    return _frozen(np.asarray(patterns[code], dtype=np.float64))


def _gaussian_filter(a: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a 2-D float64 array with the bits of
    ``scipy.ndimage.gaussian_filter`` (mode "reflect", truncate 4), for a
    radius up to the array's side: for axis 0, then axis 1, over edges
    mirrored with the edge value repeated, each output is x[i] * w[0]
    plus the mirrored pairs (x[i - j] + x[i + j]) * w[j], added from
    j = radius inward to j = 1. Returns a new C-ordered array.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    w = (w / w.sum())[radius:]
    for _ in range(2):  # axis 0, then axis 1 as axis 0 of the transpose
        n = a.shape[0]
        padded = np.empty((n + 2 * radius,) + a.shape[1:])
        padded[:radius] = a[:radius][::-1]
        padded[radius:radius + n] = a
        padded[radius + n:] = a[n - radius:][::-1]
        a = padded[radius:radius + n] * w[0]
        pair = np.empty_like(a)
        for j in range(radius, 0, -1):
            np.add(padded[radius - j:radius - j + n], padded[radius + j:radius + j + n], out=pair)
            pair *= w[j]
            a += pair
        a = a.T
    return np.ascontiguousarray(a)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def synth_image(rng: np.random.Generator, size: int, diag: int, code: int) -> np.ndarray:
    """One (size, size) float32 image in [0, 1]."""
    centred = (np.arange(size) - (size - 1) / 2.0) / (size / 2.0)  # pixel centres in [-1, 1]
    norm_y, norm_x = centred[:, None], centred[None, :]  # broadcast to the image grid

    ax_y = 0.62 + 0.05 * rng.uniform(-1.0, 1.0)
    ax_x = 0.74 + 0.05 * rng.uniform(-1.0, 1.0)
    brain = (norm_y / ax_y) ** 2 + (norm_x / ax_x) ** 2 <= 1.0

    texture = _gaussian_filter(rng.standard_normal((size, size)), sigma=size / 10.0)
    texture *= 0.22 / max(texture.std(), 1e-12)

    img = np.full((size, size), 0.08, dtype=np.float64)
    img[brain] = _TISSUE_LEVEL[diag] + texture[brain]

    region = class_region_mask(size)
    img[region] *= _REGION_KEEP[diag]

    m = max(size // 8, 4)
    tile = _marker_tile(code, m)
    img[1:1 + m, 1:1 + m] = 0.15 + 0.75 * tile

    img += 0.02 * rng.standard_normal((size, size))
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def _sample_priors(rng: np.random.Generator, diag: int) -> tuple[float, int, float]:
    age = float(rng.normal(_AGE_MEAN[diag], _AGE_STD[diag]))
    gender = int(rng.integers(0, 2))
    etiv = float(rng.normal(1450.0 + (50.0 if gender else -50.0), 150.0))
    return age, gender, etiv


def gen_synthetic(out_dir, seed: int, n: int, size: int, scheme: str = "C3",
                  fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
                  label_priors=TRANSITION_PRIORS) -> str:
    """Write n image files plus a manifest; returns the manifest path."""
    if size < 32 or size % 32:
        raise ContractError(f"size must be a positive multiple of 32, got {size}")
    priors = np.asarray(label_priors, dtype=np.float64)
    if priors.shape != (len(TRANSITIONS),) or priors.min() < 0 or priors.sum() <= 0:
        raise ContractError(f"label priors must be {len(TRANSITIONS)} non-negative values")
    priors = priors / priors.sum()

    image_dir = os.path.join(out_dir, "images")
    os.makedirs(image_dir, exist_ok=True)
    records = []
    for i in range(n):
        rng = _sample_rng(seed, i)
        code = int(rng.choice(len(TRANSITIONS), p=priors))
        diag = transition_diag_label(code)
        change = transition_change_label(code, scheme)
        img = synth_image(rng, size, diag, code)
        age, gender, etiv = _sample_priors(rng, diag)
        rel = os.path.join("images", f"sample_{i:05d}.m3t")
        save_m3t(os.path.join(out_dir, rel), {"image": img})
        records.append(SampleRecord(path=rel, age=age, gender=gender, etiv=etiv,
                                    diag=diag, change=change, split="train"))
    records = assign_splits(records, fractions, seed)
    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_manifest(manifest_path, records)
    return manifest_path


# -- manifest ----------------------------------------------------------


def write_manifest(path, records: list[SampleRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_MANIFEST_HEADER)
        for rec in records:
            writer.writerow([rec.path, repr(rec.age), rec.gender, repr(rec.etiv),
                             rec.diag, rec.change, rec.split])


def load_manifest(path) -> list[SampleRecord]:
    """Parse and validate a manifest CSV; paths resolve relative to it."""
    base = os.path.dirname(os.path.abspath(path))
    records: list[SampleRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh.readlines())
        except UnicodeDecodeError as err:
            raise ManifestError(f"{path}: not UTF-8 text: {err}") from None
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty file, expected a header row") from None
        if tuple(header) != _MANIFEST_HEADER:
            raise ManifestError(
                f"{path}: bad header {header!r}, expected {','.join(_MANIFEST_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_MANIFEST_HEADER):
                raise ManifestError(f"{path}:{lineno}: expected {len(_MANIFEST_HEADER)} fields, "
                                    f"got {len(row)}")
            try:
                rec = SampleRecord(path=row[0], age=float(row[1]), gender=int(row[2]),
                                   etiv=float(row[3]), diag=int(row[4]),
                                   change=int(row[5]), split=row[6])
            except ValueError as err:
                raise ManifestError(f"{path}:{lineno}: {err}") from None
            for name, value in (("age", rec.age), ("etiv", rec.etiv)):
                if not np.isfinite(value):
                    raise ManifestError(f"{path}:{lineno}: {name}={value} is not finite")
            if rec.path in seen:
                raise ManifestError(f"{path}:{lineno}: duplicate path {rec.path!r}")
            seen.add(rec.path)
            if not 0 <= rec.diag < len(DIAG_NAMES):
                raise ManifestError(f"{path}:{lineno}: diag={rec.diag} out of range 0..2")
            if not 0 <= rec.change < len(TRANSITIONS):
                raise ManifestError(f"{path}:{lineno}: change={rec.change} out of range 0..6")
            if rec.gender not in (0, 1):
                raise ManifestError(f"{path}:{lineno}: gender={rec.gender} must be 0 or 1")
            if rec.split not in SPLITS:
                raise ManifestError(f"{path}:{lineno}: split={rec.split!r} not in {SPLITS}")
            if not os.path.isfile(os.path.join(base, rec.path)):
                raise ManifestError(f"{path}:{lineno}: missing image file {rec.path!r}")
            records.append(rec)
    return records


# -- normalization -----------------------------------------------------


def robust_zscore(image: np.ndarray) -> np.ndarray:
    """Clip to the [p1, p99] percentile range, then z-score the clipped
    values with a 1e-8 floor on the standard deviation."""
    arr = np.asarray(image)
    if arr.size == 0:
        raise ContractError("robust_zscore of an empty image")
    x = arr.astype(np.float64)
    lo, hi = np.percentile(x, [1.0, 99.0])
    x = np.clip(x, lo, hi)
    out = (x - x.mean()) / max(float(x.std()), 1e-8)
    return out.astype(arr.dtype if np.issubdtype(arr.dtype, np.floating) else np.float64)


# -- splits ------------------------------------------------------------


def assign_splits(records: list[SampleRecord], fractions: tuple[float, float, float],
                  seed: int) -> list[SampleRecord]:
    """Stratified-by-diagnosis holdout assignment, deterministic in seed."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ContractError(f"fractions must be 3 non-negative values, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"fractions must sum to 1, got {fractions}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SPLIT_TAG]))
    out = list(records)
    diag = np.asarray([r.diag for r in records])
    for klass in range(len(DIAG_NAMES)):
        members = np.flatnonzero(diag == klass)
        perm = members[rng.permutation(members.size)]
        n_k = perm.size
        n_train = int(round(fractions[0] * n_k))
        n_val = int(round((fractions[0] + fractions[1]) * n_k)) - n_train
        for pos, idx in enumerate(perm):
            split = "train" if pos < n_train else ("val" if pos < n_train + n_val else "test")
            out[idx] = replace(records[idx], split=split)
    return out


# -- in-memory dataset -------------------------------------------------


@dataclass
class Dataset:
    """All arrays for one split, images already robustly normalized."""

    images: np.ndarray   # (N, H, W) float32
    diag: np.ndarray     # (N,) int
    change: np.ndarray   # (N,) int
    age: np.ndarray      # (N,) float, raw years
    gender: np.ndarray   # (N,) int
    etiv: np.ndarray     # (N,) float, raw mL

    def __len__(self) -> int:
        return len(self.images)


def load_split(manifest_path, split: str) -> Dataset:
    if split not in SPLITS:
        raise ContractError(f"split must be one of {SPLITS}, got {split!r}")
    records = [r for r in load_manifest(manifest_path) if r.split == split]
    if not records:
        raise ManifestError(f"{manifest_path}: no rows with split={split!r}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    images = []
    for r in records:
        _, arrays = load_m3t(os.path.join(base, r.path))
        if list(arrays) != ["image"] or arrays["image"].dtype != np.float32:
            raise ManifestError(f"{manifest_path}: {r.path!r} does not hold exactly one "
                                "float32 array named 'image'")
        image = arrays["image"]
        if image.ndim != 2:
            raise ManifestError(f"{manifest_path}: image {r.path!r} has shape {image.shape}, "
                                "not 2-D")
        if images and image.shape != images[0].shape:
            raise ManifestError(f"{manifest_path}: image {r.path!r} has shape {image.shape}, "
                                f"but {records[0].path!r} has {images[0].shape}")
        if not np.all(np.isfinite(image)):
            raise ManifestError(f"{manifest_path}: image {r.path!r} holds a non-finite pixel")
        images.append(robust_zscore(image))
    return Dataset(
        images=np.stack(images).astype(np.float32),
        diag=np.asarray([r.diag for r in records], dtype=np.int64),
        change=np.asarray([r.change for r in records], dtype=np.int64),
        age=np.asarray([r.age for r in records], dtype=np.float64),
        gender=np.asarray([r.gender for r in records], dtype=np.int64),
        etiv=np.asarray([r.etiv for r in records], dtype=np.float64),
    )
