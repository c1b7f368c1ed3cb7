"""Finite-difference audit of every primitive op.

The composite battery (full blocks, fusion, total loss) runs in the
acceptance suite where its runtime budget lives; here we keep the fast
per-op half so a broken vjp is caught next to its unit tests.
"""

import numpy as np

from m3ad.gradcheck import PRIMITIVE_TOL, check_primitives

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
