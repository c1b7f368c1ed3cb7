"""Finite-difference audit of every primitive op and of the composite
battery (full blocks, fusion, the total fine-tuning loss), the same
checks ``m3ad gradcheck`` runs, so a broken vjp is caught next to its
unit tests."""

import numpy as np

from m3ad.gradcheck import COMPOSITE_TOL, PRIMITIVE_TOL, check_composites, check_primitives

_EXPECTED_OPS = {
    "add", "mul", "div", "add_broadcast",
    "matmul", "matmul_batched",
    "clamp_min",
    "sigmoid", "softplus", "gelu",
    "sum_axis", "mean_axis", "mean_all",
    "reshape", "transpose", "getitem", "concat", "roll",
    "taps3x3", "broadcast_to", "masked_l1",
    "softmax", "cosine_attention", "layer_norm", "cross_entropy",
    "conv3x3", "dwconv3x3", "expert_mix",
}


def test_primitive_errors_depend_only_on_the_rng():
    """Kept first in the file: a weight cache filled by an earlier call
    would make two calls agree no matter what the first one drew."""
    first = check_primitives(np.random.default_rng(3))
    assert check_primitives(np.random.default_rng(3)) == first


def test_every_primitive_passes_tolerance():
    errors = check_primitives(np.random.default_rng(2))
    assert set(errors) == _EXPECTED_OPS
    failures = {name: err for name, err in errors.items()
                if not err < PRIMITIVE_TOL}
    assert failures == {}


def test_primitive_errors_are_finite_and_small():
    errors = check_primitives(np.random.default_rng(3))
    values = np.array(list(errors.values()))
    assert np.all(np.isfinite(values))
    assert values.max() < PRIMITIVE_TOL


def test_every_composite_passes_tolerance():
    """About 9 s, most of it in ``finetune_loss_full``."""
    errors = check_composites()
    assert set(errors) == {"m3ad_block_attention", "tokmlp_block", "prior_encoder",
                           "fusion_adaptive", "fusion_concat", "fusion_add", "fusion_hadamard",
                           "finetune_loss_full"}
    failures = {name: err for name, err in errors.items() if not err < COMPOSITE_TOL}
    assert failures == {}
