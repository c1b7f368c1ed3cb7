"""Gradient-integrity battery.

Runs :func:`m3ad.numerics.grad_check` (central finite differences) over
every primitive op and over the composite pieces of the network, all in
double precision. The battery is shared by the ``gradcheck`` CLI command
and the test suite; thresholds are 1e-5 for primitives and 1e-3
for composites.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .backbone import M3ADBlock, WindowAttention, relative_position_index
from .config import ModelConfig
from .heads_losses import finetune_loss
from .model import M3ADNet
from .moe import ExpertMLP, MMoELayer, Routing, expert_mix
from .numerics import Tensor, grad_check
from .priors import Fusion, PriorEncoder
from .tokmlp import TokMLPBlock, conv3x3, dwconv3x3

PRIMITIVE_TOL = 1e-5
COMPOSITE_TOL = 1e-3


def _t(rng, *shape, positive=False, away_from_zero=False):
    data = rng.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    if away_from_zero:
        data = np.where(np.abs(data) < 0.2, data + 0.4 * np.sign(data) + 0.2, data)
    return Tensor(data.astype(np.float64), requires_grad=True)


def _weight(rng, shape):
    return np.asarray(rng.standard_normal(shape), dtype=np.float64)


def check_primitives(rng: np.random.Generator | None = None) -> dict[str, float]:
    """Max relative gradient error per primitive op."""
    rng = rng or np.random.default_rng(7)
    out: dict[str, float] = {}

    def run(name, f, params):
        out[name] = grad_check(f, params, rng=rng)

    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    w = _weight(rng, (3, 4))
    run("add", lambda: nm.mul(nm.add(a, b), w).sum(), [a, b])
    run("mul", lambda: nm.mul(nm.mul(a, b), w).sum(), [a, b])
    bp = _t(rng, 3, 4, positive=True)
    run("div", lambda: nm.mul(nm.div(a, bp), w).sum(), [a, bp])

    row = _t(rng, 1, 4)
    run("add_broadcast", lambda: nm.mul(nm.add(a, row), w).sum(), [a, row])

    m1, m2 = _t(rng, 3, 5), _t(rng, 5, 2)
    wm = _weight(rng, (3, 2))
    run("matmul", lambda: nm.mul(nm.matmul(m1, m2), wm).sum(), [m1, m2])
    mb1, mb2 = _t(rng, 2, 3, 4), _t(rng, 2, 4, 2)
    wb = _weight(rng, (2, 3, 2))
    run("matmul_batched", lambda: nm.mul(nm.matmul(mb1, mb2), wb).sum(), [mb1, mb2])

    x = _t(rng, 4, 5)
    wx = _weight(rng, (4, 5))
    xz = _t(rng, 4, 5, away_from_zero=True)
    run("clamp_min", lambda: nm.mul(nm.clamp_min(xz, 0.1), wx).sum(), [xz])
    run("sigmoid", lambda: nm.mul(nm.sigmoid(x), wx).sum(), [x])
    run("softplus", lambda: nm.mul(nm.softplus(x), wx).sum(), [x])
    run("gelu", lambda: nm.mul(nm.gelu(x), wx).sum(), [x])

    w0 = _weight(rng, (5,))
    run("sum_axis", lambda: nm.mul(nm.tsum(x, axis=0), w0).sum(), [x])
    run("mean_axis", lambda: nm.mul(nm.tmean(x, axis=0), w0).sum(), [x])
    run("mean_all", lambda: x.mean(), [x])

    wr, wt, wg = _weight(rng, (2, 10)), _weight(rng, (5, 4)), _weight(rng, (2, 3))
    run("reshape", lambda: nm.mul(nm.reshape(x, (2, 10)), wr).sum(), [x])
    run("transpose", lambda: nm.mul(nm.transpose(x, (1, 0)), wt).sum(), [x])
    run("getitem", lambda: nm.mul(x[1:3, ::2], wg).sum(), [x])
    wc = _weight(rng, (3, 8))
    run("concat", lambda: nm.mul(nm.concat([a, b], axis=1), wc).sum(), [a, b])
    g4 = _t(rng, 2, 4, 4, 3)
    w4 = _weight(rng, (2, 4, 4, 3))
    run("roll", lambda: nm.mul(nm.roll(g4, (1, -2), axis=(1, 2)), w4).sum(), [g4])
    w9 = _weight(rng, (9, 2, 4, 4, 3))
    run("taps3x3", lambda: nm.mul(nm.taps3x3(g4), w9).sum(), [g4])
    run("broadcast_to", lambda: nm.mul(nm.broadcast_to(row, (3, 4)), w).sum(), [row])

    # rows of unequal weight, a zero-weight row and zero-weight entries;
    # |xz| >= 0.2 > |target| keeps pred - target away from the kink at 0
    target = np.clip(rng.standard_normal((4, 5)), -1.0, 1.0) * 0.1
    wl = np.abs(wx) * np.array([[1.0], [0.0], [3.0], [0.5]]) * (rng.random((4, 5)) < 0.7)
    wrow = _weight(rng, (4,))
    run("masked_l1", lambda: nm.mul(nm.masked_l1(xz, target, wl), wrow).sum(), [xz])

    run("softmax", lambda: nm.mul(nm.softmax(x, axis=-1), wx).sum(), [x])
    # 3 windows of 2x2 tokens, 2 heads of 2 channels; normal q and k rows
    # stay far from the norm clamp, and the tau keep the scores moderate
    qkv, tau, bias = _t(rng, 3, 4, 12), _t(rng, 2, positive=True), _t(rng, 9, 2)
    rel = relative_position_index(2, 2).reshape(-1)
    wa = _weight(rng, (3, 4, 4))
    run("cosine_attention",
        lambda: nm.mul(nm.cosine_attention(qkv, tau, bias, rel, 2), wa).sum(), [qkv, tau, bias])
    gamma, beta = _t(rng, 5), _t(rng, 5)
    run("layer_norm", lambda: nm.mul(nm.layer_norm(x, gamma, beta), wx).sum(), [x, gamma, beta])
    logits = _t(rng, 4, 3)
    labels = np.array([0, 2, 1, 1])
    run("cross_entropy", lambda: nm.cross_entropy(logits, labels), [logits])

    img = _t(rng, 2, 4, 4, 3)
    cw, cb = _t(rng, 3, 3, 3, 2), _t(rng, 2)
    wconv = _weight(rng, (2, 4, 4, 2))
    run("conv3x3", lambda: nm.mul(conv3x3(img, cw, cb), wconv).sum(), [img, cw, cb])
    dw, db = _t(rng, 3, 3, 3), _t(rng, 3)
    run("dwconv3x3", lambda: nm.mul(dwconv3x3(img, dw, db), w4).sum(), [img, dw, db])

    bank = [ExpertMLP(rng, 3, 4, np.float64) for _ in range(2)]
    bank_params = [p for expert in bank for p in expert.parameters()]
    for p in bank_params:  # unit-scale weights, so GELU's curvature shows
        p.data[...] = rng.standard_normal(p.shape)
    xe, gate = _t(rng, 2, 5, 3), _t(rng, 2, 2)
    wmix = _weight(rng, (2, 5, 3))
    run("expert_mix", lambda: nm.mul(expert_mix(xe, gate, bank), wmix).sum(),
        [xe, gate] + bank_params)
    # constant weights dispatch rows: expert 0 gets row 0 only, expert 1 both
    fixed = np.array([[0.6, 0.4], [0.0, 1.0]])
    dense = out["expert_mix"]
    run("expert_mix", lambda: nm.mul(expert_mix(xe, fixed, bank), wmix).sum(),
        [xe] + bank_params)
    out["expert_mix"] = max(dense, out["expert_mix"])
    return out


def _toy_cfg(**overrides) -> ModelConfig:
    base = dict(embed_dim=8, depths=(2, 1, 1, 1), num_heads=(1, 2, 4, 8),
                window=4, dtype="float64")
    base.update(overrides)
    return ModelConfig(**base).validate()


def check_composites(rng: np.random.Generator | None = None) -> dict[str, float]:
    """Max relative gradient error per composite component, double
    precision, on toy extents (embed dim 8, 2-sample batches)."""
    rng = rng or np.random.default_rng(11)
    out: dict[str, float] = {}
    dt = np.float64

    def run(name, f, module, coords=4):
        params = list(module.named_parameters().values()) if hasattr(module, "named_parameters") else module
        out[name] = grad_check(f, params, coords_per_tensor=coords, rng=rng)

    # attention-mixer block, shifted, with gate routing: one diagnosis
    # row, one change row
    mrng = np.random.default_rng(3)
    attn = WindowAttention(mrng, 8, 2, 4, dt)
    moe = MMoELayer(mrng, 8, 8, 2, 1.0, dt)
    block = M3ADBlock(attn, moe, 8, dt, shifted=True, window=4)
    # a unit-scale gate path from its own generator: at the 0.02 initial
    # scale some of its gradients are near 1e-8, below what finite
    # differences resolve
    grng = np.random.default_rng(1)
    for lin in (moe.feature_attn, moe.gate_diagnosis, moe.gate_change):
        for p in lin.parameters():
            p.data[...] = grng.standard_normal(p.shape)
    xg = Tensor(rng.standard_normal((2, 8, 8, 8)).astype(dt))
    wg = _weight(rng, (2, 8, 8, 8))
    run("m3ad_block_attention", lambda: nm.mul(block(xg, Routing()), wg).sum(), block)

    tok = TokMLPBlock(mrng, 8, dt)
    x4 = Tensor(rng.standard_normal((2, 4, 4, 8)).astype(dt))
    wt = _weight(rng, (2, 4, 4, 8))
    run("tokmlp_block", lambda: nm.mul(tok(x4), wt).sum(), tok)

    enc = PriorEncoder(mrng, 8, dt)
    pv = Tensor(rng.standard_normal((2, 3)).astype(dt))
    we = _weight(rng, (2, 8))
    run("prior_encoder", lambda: nm.mul(enc(pv), we).sum(), enc, coords=3)

    tokens = Tensor(rng.standard_normal((2, 6, 8)).astype(dt))
    clin = Tensor(rng.standard_normal((2, 8)).astype(dt))
    wf = _weight(rng, (2, 6, 8))
    for kind in ("adaptive", "concat", "add", "hadamard"):
        fus = Fusion(np.random.default_rng(5), kind, 8, dt)
        run(f"fusion_{kind}", lambda fus=fus: nm.mul(fus(tokens, clin), wf).sum(), fus)

    model = M3ADNet(_toy_cfg(), seed=13)
    images = rng.standard_normal((2, 32, 32)).astype(dt)
    priors = rng.standard_normal((2, 3)).astype(dt)
    diag_y = np.array([0, 2])
    change_y = np.array([1, 0])

    def full_loss():
        dl, cl = model.dual_task_logits(images, priors)
        return finetune_loss(dl, cl, diag_y, change_y)

    run("finetune_loss_full", full_loss, model, coords=2)
    return out


def run_battery() -> tuple[dict[str, float], dict[str, float]]:
    return check_primitives(), check_composites()
