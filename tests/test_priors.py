"""Clinical prior normalization, encoding, and the four fusion rules."""

import dataclasses

import numpy as np
import pytest

from conftest import tiny_model_config
from m3ad import numerics as nm
from m3ad.config import from_fields
from m3ad.errors import ConfigError, ContractError, ShapeError
from m3ad.model import M3ADNet
from m3ad.numerics import Tensor
from m3ad.priors import (Fusion, PriorEncoder, PriorStats,
                         compute_prior_stats, normalize_priors)


def test_compute_prior_stats_oracle():
    age = np.array([60.0, 70.0, 80.0])
    etiv = np.array([1400.0, 1500.0, 1450.0])
    stats = compute_prior_stats(age, etiv)
    assert stats.age_mean == 70.0
    np.testing.assert_allclose(stats.age_std, np.sqrt(200.0 / 3.0), atol=1e-12)
    assert stats.etiv_mean == 1450.0


def test_compute_prior_stats_contracts():
    with pytest.raises(ContractError):
        compute_prior_stats(np.array([70.0]), np.array([1450.0]))
    with pytest.raises(ContractError):
        compute_prior_stats(np.array([70.0, 70.0]), np.array([1400.0, 1500.0]))


def test_normalize_priors_hand_case():
    stats = PriorStats(age_mean=70.0, age_std=10.0, etiv_mean=1450.0, etiv_std=100.0)
    out = normalize_priors(np.array([80.0, 60.0]), np.array([1, 0]),
                           np.array([1550.0, 1350.0]), stats, dtype=np.float64)
    np.testing.assert_allclose(out, [[1.0, 1.0, 1.0], [-1.0, 0.0, -1.0]], atol=1e-12)
    out32 = normalize_priors(np.array([70.0]), np.array([0]), np.array([1450.0]), stats,
                             dtype=np.float32)
    assert out32.dtype == np.float32
    degenerate = PriorStats(age_mean=70.0, age_std=0.0, etiv_mean=1450.0, etiv_std=100.0)
    with pytest.raises(ContractError):
        normalize_priors(np.array([70.0]), np.array([0]), np.array([1450.0]), degenerate,
                         dtype=np.float32)


def test_prior_stats_dict_round_trip():
    stats = PriorStats(70.0, 9.5, 1450.0, 150.0)
    raw = dataclasses.asdict(stats)
    assert from_fields(PriorStats, raw) == stats
    back = from_fields(PriorStats, {**raw, "age_mean": 70})  # a JSON int fills a float
    assert back == stats and isinstance(back.age_mean, float)
    with pytest.raises(ConfigError, match="unknown PriorStats field 'age_median'"):
        from_fields(PriorStats, {**raw, "age_median": 70.0})
    del raw["etiv_std"]
    with pytest.raises(ConfigError, match="PriorStats lacks field 'etiv_std'"):
        from_fields(PriorStats, raw)


def test_c_fusion_dim_schedule():
    """The prior encoder's output width is the fusion point's channel
    count: 2C, 4C, 8C after the merges of stages 0-2, 8C after stage 3."""
    for embed, widths in ((8, [16, 32, 64, 64]), (16, [32, 64, 128, 128])):
        built = [M3ADNet(tiny_model_config(embed_dim=embed, fusion_stage=s), seed=0)
                 for s in range(4)]
        assert [m.prior_encoder.fc3.weight.shape[-1] for m in built] == widths
    with pytest.raises(ConfigError, match="fusion_stage"):
        tiny_model_config(fusion_stage=4)


def test_prior_encoder_shapes(rng):
    enc = PriorEncoder(np.random.default_rng(1), 32, np.float64)
    out = enc(Tensor(rng.standard_normal((5, 3))))
    assert out.shape == (5, 32)
    with pytest.raises(ShapeError):
        enc(Tensor(rng.standard_normal((5, 4))))
    with pytest.raises(ShapeError):
        enc(Tensor(rng.standard_normal(3)))


def _tokens_and_prior(rng, dim=8, b=2, l=6):
    x = Tensor(rng.standard_normal((b, l, dim)))
    clin = Tensor(rng.standard_normal((b, dim)))
    return x, clin


def test_add_fusion_identity_weights_return_x_bit_exact(rng):
    fus = Fusion(np.random.default_rng(2), "add", 8, np.float64)
    fus.alpha_image.data = np.asarray(1.0)
    fus.alpha_clinical.data = np.asarray(0.0)
    x, clin = _tokens_and_prior(rng)
    out = fus(x, clin)
    assert (out.data == x.data).all()


def test_add_fusion_scalar_formula(rng):
    fus = Fusion(np.random.default_rng(2), "add", 8, np.float64)
    np.testing.assert_allclose(float(fus.alpha_image.data), 1.0)
    np.testing.assert_allclose(float(fus.alpha_clinical.data), 0.1)
    x, clin = _tokens_and_prior(rng)
    out = fus(x, clin).data
    expected = 1.0 * x.data + 0.1 * clin.data[:, None, :]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_hadamard_fusion_zero_clinical_is_identity(rng):
    fus = Fusion(np.random.default_rng(2), "hadamard", 8, np.float64)
    x, _ = _tokens_and_prior(rng)
    zero = Tensor(np.zeros((2, 8)))
    out = fus(x, zero)
    assert (out.data == x.data).all()
    assert fus.proj.bias is None


def test_adaptive_fusion_forced_weights_equal_projection(rng):
    fus = Fusion(np.random.default_rng(2), "adaptive", 8, np.float64)
    x, clin = _tokens_and_prior(rng)
    # a gate with zero weight and bias (1000, -1000) gives exactly (1, 0)
    fus.gate.weight.data[:] = 0.0
    fus.gate.bias.data[:] = (1000.0, -1000.0)
    pooled = Tensor(rng.standard_normal((2, 16)))
    assert (nm.softmax(fus.gate(pooled), axis=-1).data == [[1.0, 0.0]] * 2).all()
    out = fus(x, clin)
    expected = fus.proj(x)
    assert (out.data == expected.data).all()


def test_concat_fusion_shape_and_broadcast(rng):
    fus = Fusion(np.random.default_rng(2), "concat", 8, np.float64)
    x, clin = _tokens_and_prior(rng)
    out = fus(x, clin)
    assert out.shape == x.shape
    manual = np.concatenate(
        [x.data, np.repeat(clin.data[:, None, :], x.shape[1], axis=1)], axis=-1)
    expected = manual @ fus.proj.weight.data + fus.proj.bias.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_fusion_contracts(rng):
    with pytest.raises(ContractError):
        Fusion(np.random.default_rng(2), "mean", 8, np.float64)
    fus = Fusion(np.random.default_rng(2), "add", 8, np.float64)
    x, clin = _tokens_and_prior(rng)
    with pytest.raises(ShapeError):
        fus(Tensor(rng.standard_normal((2, 8))), clin)
    with pytest.raises(ShapeError):
        fus(x, Tensor(rng.standard_normal((2, 6))))
