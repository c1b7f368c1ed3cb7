"""Synthetic data generation, manifests, normalization, and splits."""

import hashlib
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import cut_and_flip, m3t_header, m3t_with_header
from m3ad.config import TRANSITION_PRIORS, TRANSITIONS
from m3ad.data import (C3_NAMES, Dataset, SampleRecord, assign_splits,
                       class_region_mask, gen_synthetic,
                       load_manifest, load_split, robust_zscore, synth_image,
                       transition_change_label, transition_diag_label,
                       write_manifest, _gaussian_filter, _marker_tile, _sample_rng)
from m3ad.errors import CheckpointError, ContractError, ManifestError
from m3ad.numerics import load_m3t, save_m3t


def test_transition_label_tables():
    # diagnosis is the destination of the transition
    assert [transition_diag_label(c) for c in range(7)] == [0, 1, 2, 1, 2, 2, 0]
    # C3 groups: stable, conversion, reversion
    assert [transition_change_label(c, "C3") for c in range(7)] == [0, 0, 0, 1, 1, 1, 2]
    assert [transition_change_label(c, "C9") for c in range(7)] == list(range(7))
    with pytest.raises(ContractError):
        transition_change_label(0, "C5")


def test_transition_priors_group_structure():
    priors = np.asarray(TRANSITION_PRIORS)
    assert abs(priors.sum() - 1.0) < 1e-9
    stable = priors[:3].sum()
    conversion = priors[3:6].sum()
    reversion = priors[6]
    assert abs(stable - 0.653) < 1e-9
    assert abs(conversion - 0.330) < 1e-9
    assert abs(reversion - 0.017) < 1e-9


def test_generation_is_deterministic(tmp_path):
    m1 = gen_synthetic(tmp_path / "a", seed=5, n=6, size=32)
    m2 = gen_synthetic(tmp_path / "b", seed=5, n=6, size=32)
    assert open(m1).read() == open(m2).read()
    for rec in load_manifest(m1):
        blob1 = open(os.path.join(tmp_path / "a", rec.path), "rb").read()
        blob2 = open(os.path.join(tmp_path / "b", rec.path), "rb").read()
        assert blob1 == blob2
    m3 = gen_synthetic(tmp_path / "c", seed=6, n=6, size=32)
    assert open(m1).read() != open(m3).read()


def test_schemes_share_images_and_differ_in_change_codes(tmp_path):
    m3 = gen_synthetic(tmp_path / "c3", seed=9, n=10, size=32, scheme="C3")
    m9 = gen_synthetic(tmp_path / "c9", seed=9, n=10, size=32, scheme="C9")
    r3 = load_manifest(m3)
    r9 = load_manifest(m9)
    for a, b in zip(r3, r9):
        assert a.diag == b.diag
        assert a.change == transition_change_label(b.change, "C3")
        blob_a = open(os.path.join(tmp_path / "c3", a.path), "rb").read()
        blob_b = open(os.path.join(tmp_path / "c9", b.path), "rb").read()
        assert blob_a == blob_b


def test_region_intensity_orders_by_diagnosis():
    region = class_region_mask(64)
    assert 0.02 < region.mean() < 0.2  # a central minority of pixels
    means = []
    for diag in range(3):
        acc = []
        for i in range(60):
            rng = _sample_rng(77, i)
            img = synth_image(rng, 64, diag, code=diag)  # stable transitions
            acc.append(img[region].mean())
        means.append(np.mean(acc))
    assert means[0] > means[1] + 0.02
    assert means[1] > means[2] + 0.02


def test_marker_tiles_distinct_and_stamped():
    tiles = [_marker_tile(c, 8) for c in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            assert np.abs(tiles[i] - tiles[j]).max() > 0
    rng = _sample_rng(3, 0)
    img = synth_image(rng, 64, 1, code=4)
    stamped = img[1:9, 1:9]
    # marker pixels sit at 0.15 or 0.90 before the +-0.02 noise
    expected = 0.15 + 0.75 * _marker_tile(4, 8)
    assert np.abs(stamped - expected).max() < 0.1


def test_gaussian_filter_has_scipy_bits():
    """200 noise fields (sides 32 to 128, seeds 0-49) blurred at the
    generator's sigma: byte-equal to scipy's reflect-mode filter."""
    for size in (32, 64, 96, 128):
        for seed in range(50):
            a = np.random.default_rng(seed).standard_normal((size, size))
            got = _gaussian_filter(a, size / 10.0)
            assert got.flags.c_contiguous
            assert got.tobytes() == ndimage.gaussian_filter(a, sigma=size / 10.0).tobytes()


def _synth_image_with_scipy(rng, size, diag, code):
    """synth_image as written with scipy's filter and a full index grid."""
    yy, xx = np.mgrid[0:size, 0:size]
    norm_y, norm_x = (yy - (size - 1) / 2.0) / (size / 2.0), (xx - (size - 1) / 2.0) / (size / 2.0)
    ax_y = 0.62 + 0.05 * rng.uniform(-1.0, 1.0)
    ax_x = 0.74 + 0.05 * rng.uniform(-1.0, 1.0)
    brain = (norm_y / ax_y) ** 2 + (norm_x / ax_x) ** 2 <= 1.0
    texture = ndimage.gaussian_filter(rng.standard_normal((size, size)), sigma=size / 10.0)
    texture *= 0.22 / max(texture.std(), 1e-12)
    img = np.full((size, size), 0.08)
    img[brain] = (0.62, 0.57, 0.52)[diag] + texture[brain]
    img[class_region_mask(size)] *= (0.85, 0.62, 0.40)[diag]
    m = max(size // 8, 4)
    img[1:1 + m, 1:1 + m] = 0.15 + 0.75 * _marker_tile(code, m)
    img += 0.02 * rng.standard_normal((size, size))
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def test_images_keep_their_bits_and_the_cached_grids_are_read_only():
    """The generator's images equal those of scipy's filter and a full
    index grid, with the size-only grids cached; no caller can write into
    the cache."""
    for size in (32, 64, 128):
        for index in range(4):
            args = (size, index % 3, (2 * index + 1) % 7)
            assert np.array_equal(synth_image(_sample_rng(size, index), *args),
                                  _synth_image_with_scipy(_sample_rng(size, index), *args))
    for grid in (class_region_mask(64), _marker_tile(3, 8)):
        with pytest.raises(ValueError):
            grid[0] = 0
    assert class_region_mask(64) is class_region_mask(64)


def test_code_draw_frequencies_match_priors():
    priors = np.asarray(TRANSITION_PRIORS)
    counts = np.zeros(7)
    for i in range(5000):
        rng = _sample_rng(42, i)
        counts[int(rng.choice(7, p=priors))] += 1
    np.testing.assert_allclose(counts / 5000.0, priors, atol=0.03)


def test_generated_label_frequencies(tmp_path):
    manifest = gen_synthetic(tmp_path, seed=1, n=400, size=32, scheme="C3")
    records = load_manifest(manifest)
    change = np.asarray([r.change for r in records])
    freqs = np.bincount(change, minlength=3) / len(records)
    np.testing.assert_allclose(freqs, [0.653, 0.330, 0.017], atol=0.06)


def test_images_are_distinct(tmp_path):
    manifest = gen_synthetic(tmp_path, seed=2, n=30, size=32)
    digests = set()
    base = os.path.dirname(manifest)
    for rec in load_manifest(manifest):
        blob = open(os.path.join(base, rec.path), "rb").read()
        digests.add(hashlib.sha256(blob).hexdigest())
    assert len(digests) == 30


def test_image_range_and_dtype():
    img = synth_image(_sample_rng(0, 0), 64, 0, 0)
    assert img.dtype == np.float32
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_gen_synthetic_contracts(tmp_path):
    with pytest.raises(ContractError):
        gen_synthetic(tmp_path, seed=0, n=4, size=33)
    with pytest.raises(ContractError):
        gen_synthetic(tmp_path, seed=0, n=4, size=32, label_priors=(1.0, 0.0))
    with pytest.raises(ContractError):
        gen_synthetic(tmp_path, seed=0, n=4, size=32,
                      label_priors=(-1.0,) * 7)


# -- manifest ----------------------------------------------------------


def _records():
    return [SampleRecord("images/a.m3t", 70.0, 1, 1450.0, 0, 0, "train"),
            SampleRecord("images/b.m3t", 75.5, 0, 1390.0, 2, 1, "val")]


def _touch_images(root, records):
    """Create the (empty) image files that ``records`` name under ``root``."""
    for rec in records:
        image = root / rec.path
        image.parent.mkdir(parents=True, exist_ok=True)
        image.touch()


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(path, _records())
    _touch_images(tmp_path, _records())
    back = load_manifest(path)
    assert back == _records()
    text = path.read_text()
    assert text.splitlines()[0] == "path,age,gender,etiv,diag,change,split"
    assert "\r" not in text


@pytest.mark.parametrize("mutate,message", [
    (lambda rows: rows.__setitem__(0, "bad,header,row"), "bad header"),
    (lambda rows: rows.__setitem__(1, "images/a.m3t,70.0,1,1450.0,0,0"), "expected 7 fields"),
    (lambda rows: rows.__setitem__(1, "images/a.m3t,old,1,1450.0,0,0,train"), "could not convert"),
    (lambda rows: rows.__setitem__(2, rows[1]), "duplicate path"),
    (lambda rows: rows.__setitem__(1, "images/a.m3t,70.0,1,1450.0,5,0,train"), "diag=5"),
    (lambda rows: rows.__setitem__(1, "images/a.m3t,70.0,1,1450.0,0,9,train"), "change=9"),
    (lambda rows: rows.__setitem__(1, "images/a.m3t,70.0,2,1450.0,0,0,train"), "gender=2"),
    (lambda rows: rows.__setitem__(1, "images/a.m3t,70.0,1,1450.0,0,0,holdout"), "split="),
])
def test_manifest_rejects_bad_rows(tmp_path, mutate, message):
    path = tmp_path / "manifest.csv"
    write_manifest(path, _records())
    _touch_images(tmp_path, _records())
    rows = path.read_text().splitlines()
    mutate(rows)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)


def test_manifest_missing_file_check(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(path, _records()[:1])
    with pytest.raises(ManifestError, match="missing image file"):
        load_manifest(path)
    _touch_images(tmp_path, _records()[:1])
    assert load_manifest(path)[0].path == "images/a.m3t"


@given(st.data())
@settings(max_examples=150)
def test_any_byte_flip_of_a_manifest_raises_manifest_error_or_loads(tmp_path_factory, data):
    """A flipped digit or a cut at a line end can leave a valid manifest,
    so a damaged one may load; it never raises anything but ManifestError."""
    path = tmp_path_factory.getbasetemp() / "fuzz_manifest.csv"
    write_manifest(path, _records())
    _touch_images(path.parent, _records())
    for damaged in cut_and_flip(data, path.read_bytes()):
        path.write_bytes(damaged)
        try:
            load_manifest(path)
        except ManifestError:
            pass


def test_manifest_empty_file(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("")
    with pytest.raises(ManifestError, match="empty"):
        load_manifest(path)


# -- normalization -----------------------------------------------------


def test_robust_zscore_frozen_oracle():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0])
    expected = np.array([
        -0.48025731323015364, -0.44582077118938146, -0.407978417298423,
        -0.3701360634074646, -0.3322937095165061, -0.2944513556255477,
        -0.2566090017345892, -0.2187666478436308, -0.18092429395267237,
        2.9872375737983683])
    np.testing.assert_allclose(robust_zscore(x), expected, atol=1e-12)


def test_robust_zscore_properties(rng):
    img = rng.standard_normal((32, 32)).astype(np.float32)
    out = robust_zscore(img)
    assert out.dtype == np.float32
    assert abs(out.mean()) < 1e-5
    assert abs(out.std() - 1.0) < 1e-3
    flat = robust_zscore(np.full((8, 8), 3.25))
    np.testing.assert_array_equal(flat, np.zeros((8, 8)))
    assert robust_zscore(np.arange(16).reshape(4, 4)).dtype == np.float64
    with pytest.raises(ContractError):
        robust_zscore(np.empty((0,)))


# -- splits ------------------------------------------------------------


def _many_records(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return [SampleRecord(f"images/{i}.m3t", 70.0, 0, 1450.0,
                         int(rng.integers(0, 3)), 0, "train")
            for i in range(n)]


def test_assign_splits_stratified_counts():
    records = _many_records(90)
    out = assign_splits(records, (0.7, 0.15, 0.15), seed=4)
    assert len(out) == len(records)
    for klass in range(3):
        members = [r for r in out if r.diag == klass]
        n_k = len(members)
        n_train = sum(r.split == "train" for r in members)
        n_val = sum(r.split == "val" for r in members)
        assert n_train == round(0.7 * n_k)
        assert abs(n_val - 0.15 * n_k) <= 1.0
    again = assign_splits(records, (0.7, 0.15, 0.15), seed=4)
    assert [r.split for r in again] == [r.split for r in out]


def test_assign_splits_empty_test_fraction():
    out = assign_splits(_many_records(30), (0.8, 0.2, 0.0), seed=1)
    assert all(r.split in ("train", "val") for r in out)


def test_assign_splits_contracts():
    with pytest.raises(ContractError):
        assign_splits(_many_records(10), (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ContractError):
        assign_splits(_many_records(10), (0.8, 0.3, -0.1), seed=0)


# -- dataset loading ---------------------------------------------------


def test_load_split_arrays(tiny_data_dir, tiny_splits):
    train, val, test = tiny_splits
    assert len(train) == 16 and len(val) == 4 and len(test) == 4
    assert train.images.dtype == np.float32
    assert train.images.shape[1:] == (32, 32)
    # images arrive normalized
    assert abs(float(train.images[0].mean())) < 1e-4
    assert train.diag.dtype == np.int64
    assert set(np.unique(train.gender)) <= {0, 1}
    records = load_manifest(tiny_data_dir)
    header, arrays = load_m3t(os.path.join(os.path.dirname(tiny_data_dir),
                                           [r for r in records if r.split == "train"][0].path))
    assert header == {} and list(arrays) == ["image"]
    np.testing.assert_allclose(train.images[0], robust_zscore(arrays["image"]), atol=1e-6)


def test_load_split_contracts(tiny_data_dir):
    with pytest.raises(ContractError):
        load_split(tiny_data_dir, "holdout")


@pytest.mark.parametrize("arrays", [
    {"image": np.zeros((32, 32))}, {"scan": np.zeros((32, 32), np.float32)},
    {"image": np.zeros((32, 32), np.float32), "mask": np.zeros((32, 32), np.float32)},
], ids=["float64", "other name", "two arrays"])
def test_load_split_needs_one_float32_image(tmp_path, arrays):
    manifest = gen_synthetic(tmp_path, seed=3, n=6, size=32, fractions=(1.0, 0.0, 0.0))
    record = load_manifest(manifest)[2]
    save_m3t(tmp_path / record.path, arrays)
    with pytest.raises(ManifestError, match=f"{manifest}: '{record.path}' does not hold "
                                            "exactly one float32 array named 'image'"):
        load_split(manifest, "train")


def test_load_split_rejects_a_repeated_tensor_name(tmp_path):
    """A scan whose header lists 'image' twice, an empty array then the
    whole image, is refused, not read as its last entry."""
    manifest = gen_synthetic(tmp_path, seed=3, n=6, size=32, fractions=(1.0, 0.0, 0.0))
    record = load_manifest(manifest)[2]
    path = tmp_path / record.path
    blob = path.read_bytes()
    header = m3t_header(blob)
    entry = header["tensors"][0]
    header["tensors"] = [dict(entry, shape=[0, 32]), entry]
    path.write_bytes(m3t_with_header(blob, header))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{record.path}: tensor 'image' is listed twice")):
        load_split(manifest, "train")


def test_load_split_missing_rows(tmp_path):
    manifest = gen_synthetic(tmp_path, seed=3, n=6, size=32, fractions=(1.0, 0.0, 0.0))
    with pytest.raises(ManifestError, match="no rows"):
        load_split(manifest, "test")


def test_c3_names_order():
    assert C3_NAMES == ("Stable", "Conversion", "Reversion")
    assert len(TRANSITIONS) == 7
