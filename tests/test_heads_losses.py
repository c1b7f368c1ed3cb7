"""Masking semantics, the reconstruction decoder, heads, and losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_model_config
from m3ad import numerics as nm
from m3ad.errors import ContractError, ShapeError
from m3ad.heads_losses import (ReconDecoder, TaskHeads, apply_mask, expert_specialization_loss,
                               finetune_loss, masked_l1_per_sample, pretrain_loss, recon_loss,
                               sample_masks, tile_masks)
from m3ad.model import M3ADNet
from m3ad.numerics import Tensor


def masks_from_indices(*rows, grid=(2, 2)):
    """(B, *grid) unit masks, one list of flat unit indices per sample."""
    out = np.zeros((len(rows), grid[0] * grid[1]), dtype=bool)
    for mask, indices in zip(out, rows):
        mask[list(indices)] = True
    return out.reshape((len(rows),) + grid)


# -- mask sampling -----------------------------------------------------


def test_sample_mask_exact_count(rng):
    masks = sample_masks(rng, 3, (64, 64), 8, 0.6)
    assert masks.shape == (3, 8, 8) and masks.dtype == bool
    assert round(0.6 * 64) == 38
    assert (masks.reshape(3, -1).sum(axis=1) == 38).all()


def test_sample_mask_rounds_half_up_cases(rng):
    # 24x24 at unit 8 gives 9 units; 0.3 * 9 = 2.7 rounds to 3 (int() would
    # truncate to 2)
    assert sample_masks(rng, 1, (24, 24), 8, 0.3).sum() == 3
    assert sample_masks(rng, 1, (32, 32), 8, 0.6).sum() == round(0.6 * 16) == 10


def test_sample_mask_deterministic():
    a = sample_masks(np.random.default_rng(7), 4, (64, 64), 8, 0.6)
    b = sample_masks(np.random.default_rng(7), 4, (64, 64), 8, 0.6)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5), uh=st.integers(1, 6),
       uw=st.integers(1, 6), unit=st.sampled_from([1, 2, 4, 8]),
       ratio=st.floats(0.01, 0.99))
def test_sample_masks_match_per_sample_choice(seed, n, uh, uw, unit, ratio):
    """Each row hides round(ratio * units) units, and the masks and the
    rng stream equal one rng.choice per sample, in order."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    masks = sample_masks(rng, n, (uh * unit, uw * unit), unit, ratio)
    assert masks.shape == (n, uh, uw) and masks.dtype == bool
    count = int(round(ratio * uh * uw))
    for mask in masks:
        want = np.zeros(uh * uw, dtype=bool)
        want[ref.choice(uh * uw, size=count, replace=False)] = True
        np.testing.assert_array_equal(mask.reshape(-1), want)
    assert rng.random() == ref.random()


def test_sample_mask_contracts(rng):
    with pytest.raises(ContractError):
        sample_masks(rng, 1, (64, 64), 8, 0.0)
    with pytest.raises(ContractError):
        sample_masks(rng, 1, (64, 64), 8, 1.0)
    with pytest.raises(ContractError):
        sample_masks(rng, 1, (60, 64), 8, 0.5)


def test_mask_spec_pixel_geometry():
    masks = masks_from_indices([0, 3])  # units (0,0) and (1,1) of a 2x2 unit grid
    expected = np.zeros((1, 4, 4), dtype=bool)
    expected[0, 0:2, 0:2] = True
    expected[0, 2:4, 2:4] = True
    np.testing.assert_array_equal(tile_masks(masks, (4, 4)), expected)
    np.testing.assert_array_equal(masks[0], [[True, False], [False, True]])


@pytest.mark.parametrize("grid, rep", [((2, 2), 1), ((2, 2), 4), ((3, 5), 2), ((4, 4), 8)])
def test_tile_masks_match_kron(grid, rep):
    """The token (unit / patch) and pixel (unit) expansions of random
    masks against an np.kron reference."""
    masks = np.random.default_rng(rep).random((3,) + grid) < 0.5
    got = tile_masks(masks, (grid[0] * rep, grid[1] * rep))
    want = np.stack([np.kron(m, np.ones((rep, rep), dtype=bool)) for m in masks])
    np.testing.assert_array_equal(got, want)


def test_token_mask_expansion():
    masks = masks_from_indices([1])  # unit (0,1) of a 2x2 unit grid
    tok = tile_masks(masks, (4, 4))  # 2x2 tokens per unit
    expected = np.zeros((1, 4, 4), dtype=bool)
    expected[0, 0:2, 2:4] = True
    np.testing.assert_array_equal(tok, expected)
    for grid in ((3, 3), (4, 2), (4, 6)):  # no square tiling
        with pytest.raises(ContractError):
            tile_masks(masks, grid)


def test_apply_mask_substitutes_token(rng):
    tokens = Tensor(rng.standard_normal((1, 4, 4, 3)))
    mask_token = Tensor(np.array([9.0, 8.0, 7.0]), requires_grad=True)
    masks = masks_from_indices([2])  # unit (1,0) -> tokens [2:4, 0:2]
    out = apply_mask(tokens, masks, mask_token).data
    np.testing.assert_array_equal(out[0, 2:4, 0:2], np.broadcast_to([9.0, 8.0, 7.0], (2, 2, 3)))
    untouched = np.ones((4, 4), dtype=bool)
    untouched[2:4, 0:2] = False
    np.testing.assert_array_equal(out[0][untouched], tokens.data[0][untouched])


def test_apply_mask_matches_broadcast_token_bit_for_bit(rng):
    """Letting ``mul`` broadcast the (1, 1, 1, C) mask token gives the
    value and token gradient of multiplying an explicit broadcast copy."""
    tokens = Tensor(rng.standard_normal((3, 4, 4, 5)).astype(np.float32), requires_grad=True)
    token = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
    masks = rng.random((3, 2, 2)) < 0.5
    seed = rng.standard_normal((3, 4, 4, 5)).astype(np.float32)
    out = apply_mask(tokens, masks, token)
    out.backward(seed)
    got = out.data, tokens.grad, token.grad
    tokens.grad = token.grad = None
    w = tile_masks(masks, (4, 4))[..., None].astype(np.float32)
    spread = nm.broadcast_to(nm.reshape(token, (1, 1, 1, 5)), tokens.shape)
    ref = nm.add(nm.mul(tokens, 1.0 - w), nm.mul(spread, w))
    ref.backward(seed)
    for a, b in zip(got, (ref.data, tokens.grad, token.grad)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_apply_mask_empty_is_identity(rng):
    tokens = Tensor(rng.standard_normal((2, 4, 4, 3)))
    out = apply_mask(tokens, masks_from_indices([], []), Tensor(np.zeros(3)))
    assert out is tokens


def test_apply_mask_contracts(rng):
    tokens = Tensor(rng.standard_normal((2, 4, 4, 3)))
    with pytest.raises(ContractError):
        apply_mask(tokens, masks_from_indices([0]), Tensor(np.zeros(3)))
    bad = masks_from_indices([0], [0], grid=(3, 3))  # a 3x3 unit grid cannot tile 4x4 tokens
    with pytest.raises(ContractError):
        apply_mask(tokens, bad, Tensor(np.zeros(3)))


# -- decoder and heads -------------------------------------------------


def test_recon_decoder_block_locality(rng):
    dec = ReconDecoder(np.random.default_rng(3), 6, 4, np.float64)
    grid = rng.standard_normal((1, 2, 3, 6))
    base = dec(Tensor(grid)).data
    assert base.shape == (1, 8, 12)
    bumped = grid.copy()
    bumped[0, 1, 2] += 1.0
    out = dec(Tensor(bumped)).data
    changed = base != out
    block = np.zeros((8, 12), dtype=bool)
    block[4:8, 8:12] = True
    assert changed[0][block].any()
    assert not changed[0][~block].any()


def test_task_heads_arities(rng):
    heads = TaskHeads(np.random.default_rng(4), 16, 7, np.float64)
    tokens = Tensor(rng.standard_normal((6, 10, 16)))
    diag, change = heads(tokens)
    assert diag.shape == (3, 3) and change.shape == (3, 7)
    # each half of the rows gets its own task's head, as a pass of that half alone
    for half, head, got in ((tokens[:3], heads.diagnosis, diag), (tokens[3:], heads.change, change)):
        np.testing.assert_array_equal(head(heads.norm(half.mean(axis=1))).data, got.data)
    with pytest.raises(ShapeError):  # the rows must split into two halves
        heads(tokens[:5])
    with pytest.raises(ShapeError):
        heads(Tensor(rng.standard_normal((4, 16))))


# -- losses ------------------------------------------------------------


def test_recon_loss_hand_oracle():
    pred = np.zeros((1, 4, 4))
    target = np.zeros((1, 4, 4))
    pred[0, 0:2, 0:2] = [[1.0, 2.0], [3.0, 4.0]]
    target[0, 0:2, 0:2] = [[0.0, 1.0], [1.0, 8.0]]
    masks = masks_from_indices([0])  # covers rows 0:2, cols 0:2
    loss = recon_loss(Tensor(pred), target, masks)
    assert abs(loss.item() - (1 + 1 + 2 + 4) / 4.0) < 1e-12


def test_recon_loss_ignores_outside_mask_bit_exactly(rng):
    target = rng.standard_normal((2, 16, 16))
    pred = rng.standard_normal((2, 16, 16))
    masks = sample_masks(rng, 2, (16, 16), 4, 0.5)
    base = recon_loss(Tensor(pred), target, masks).data.copy()
    perturbed = pred.copy()
    outside = ~tile_masks(masks, (16, 16))
    perturbed[outside] += rng.standard_normal(outside.sum()) * 100.0
    again = recon_loss(Tensor(perturbed), target, masks).data
    assert base == again


def test_recon_loss_contracts(rng):
    target = rng.standard_normal((1, 4, 4))
    with pytest.raises(ShapeError):
        recon_loss(Tensor(rng.standard_normal((1, 4, 5))), target, masks_from_indices([0]))
    with pytest.raises(ContractError):
        recon_loss(Tensor(target), target, masks_from_indices([]))
    with pytest.raises(ContractError):  # one mask per sample
        recon_loss(Tensor(target), target, masks_from_indices([0], [0]))


def test_recon_loss_gradient_confined_to_mask(rng):
    target = rng.standard_normal((1, 4, 4))
    pred = Tensor(rng.standard_normal((1, 4, 4)), requires_grad=True)
    masks = masks_from_indices([1])  # rows 0:2, cols 2:4
    recon_loss(pred, target, masks).backward()
    inside = tile_masks(masks, (4, 4))[0]
    assert (pred.grad[0][~inside] == 0).all()
    assert (pred.grad[0][inside] != 0).all()


def test_masked_l1_per_sample_matches_recon_loss(rng):
    target = rng.standard_normal((3, 16, 16))
    pred = rng.standard_normal((3, 16, 16))
    masks = sample_masks(rng, 3, (16, 16), 4, 0.5)
    per = masked_l1_per_sample(pred, target, masks)
    # equal mask sizes make the pixel mean equal the mean of sample means
    pooled = recon_loss(Tensor(pred), target, masks).item()
    assert abs(per.mean() - pooled) < 1e-12


_CLASS_SCALE = (1.0, 0.9, 0.7)


def test_expert_specialization_loss_explicit_sum(rng):
    images = rng.standard_normal((4, 8, 8))
    labels = np.array([0, 2, 2, 0])
    masks = sample_masks(rng, 4, (8, 8), 4, 0.5)
    pred = Tensor(images * np.take(_CLASS_SCALE, labels)[:, None, None])
    loss = expert_specialization_loss(pred, images, labels, masks)
    pixels = tile_masks(masks, (8, 8))
    expected = 0.0
    for klass in (0, 2):
        members = np.flatnonzero(labels == klass)
        terms = []
        for i in members:
            diff = np.abs(images[i][pixels[i]] * _CLASS_SCALE[klass] - images[i][pixels[i]])
            terms.append(diff.mean())
        expected += np.mean(terms)
    assert abs(loss.item() - expected) < 1e-12


def test_sample_with_empty_mask_adds_nothing(rng):
    """A sample whose mask is empty weighs 0 in every masked score: the
    batch scores equal those of the other samples, and its row reads 0."""
    images = rng.standard_normal((3, 8, 8))
    pred = rng.standard_normal((3, 8, 8))
    masks = masks_from_indices([0, 3], [], [1])
    labels = np.array([1, 1, 0])
    keep = [0, 2]
    per = masked_l1_per_sample(pred, images, masks)
    assert per[1] == 0.0
    np.testing.assert_array_equal(per[keep], masked_l1_per_sample(pred[keep], images[keep],
                                                                  masks[keep]))
    assert recon_loss(Tensor(pred), images, masks).item() == pytest.approx(
        recon_loss(Tensor(pred[keep]), images[keep], masks[keep]).item(), rel=1e-14)
    # the empty sample still counts in its class, as the per-class mean says
    expert = expert_specialization_loss(Tensor(pred), images, labels, masks).item()
    assert expert == pytest.approx(per[0] / 2 + per[2], rel=1e-14)


def test_expert_specialization_loss_needs_samples(rng):
    with pytest.raises(ContractError):
        expert_specialization_loss(Tensor(np.zeros((0, 8, 8))), np.zeros((0, 8, 8)),
                                   np.array([], dtype=int), np.zeros((0, 2, 2), dtype=bool))


def _pretrain_case(labels, seed=0):
    rng = np.random.default_rng(seed)
    model = M3ADNet(tiny_model_config(dtype="float64"), seed=seed)
    images = rng.standard_normal((len(labels), 32, 32))
    masks = sample_masks(rng, len(labels), (32, 32), 8, 0.5)
    return model, images, np.asarray(labels), masks


def test_pretrain_loss_lambda_semantics():
    model, images, labels, masks = _pretrain_case([0, 1])
    total0, recon0, expert0 = pretrain_loss(model, images, labels, masks, 0.0)
    assert total0 is recon0
    assert expert0.item() == 0.0
    total, recon, expert = pretrain_loss(model, images, labels, masks, 0.7)
    assert abs(total.item() - (recon.item() + 0.7 * expert.item())) < 1e-12
    # the class-only rows stacked below do not move the label-guided ones
    assert abs(recon.item() - recon0.item()) < 1e-12
    assert expert.item() > 0.0
    with pytest.raises(ContractError):
        pretrain_loss(model, images, labels, masks, -0.1)


def test_pretrain_loss_matches_per_class_reference():
    """The stacked pass against the passes it replaces: one label-guided
    pass, then one class-only pass per class present over its members,
    each sample's masked L1 averaged over its class. Values and gradients
    agree up to summation order."""
    model, images, labels, masks = _pretrain_case([2, 0, 2, 1, 0, 2], seed=4)

    def reference():
        pred = model.reconstruct(images, model.label_guided_weights(labels), masks)
        recon = recon_loss(pred, images, masks)
        expert = None
        for klass in range(3):
            members = np.flatnonzero(labels == klass)
            weights = model.label_guided_weights(labels[members], shared_weight=0.0)
            pred_k = model.reconstruct(images[members], weights, masks[members])
            for j, i in enumerate(members):
                term = recon_loss(pred_k[j:j + 1], images[i:i + 1], masks[i:i + 1])
                term = nm.mul(term, 1.0 / members.size)
                expert = term if expert is None else nm.add(expert, term)
        return nm.add(recon, nm.mul(expert, 0.5)), recon, expert

    grads = []
    values = []
    for fn in (lambda: pretrain_loss(model, images, labels, masks, 0.5), reference):
        model.zero_grad()
        total, recon, expert = fn()
        total.backward()
        values.append((total.item(), recon.item(), expert.item()))
        grads.append({n: p.grad for n, p in model.named_parameters().items()})
    np.testing.assert_allclose(values[0], values[1], rtol=1e-12)
    assert grads[0].keys() == grads[1].keys()
    for name, ref in grads[1].items():
        if ref is None:
            assert grads[0][name] is None, name
        else:
            np.testing.assert_allclose(grads[0][name], ref, rtol=0,
                                       atol=1e-10 * np.abs(ref).max(), err_msg=name)


@pytest.mark.parametrize("lambda_expert", [0.0, 0.7])
def test_pretrain_loss_pred_gradient_is_weighted_sign(monkeypatch, lambda_expert):
    """The gradient reaching the float32 reconstructions is, bit for bit,
    sign(pred - target) times each pixel's weight: 1 / N over the N masked
    pixels of the batch for the label-guided rows, lambda times
    1 / (mask size * class count) for the class-only rows, 0 outside the
    masks. Training bits rest on this."""
    rng = np.random.default_rng(5)
    model = M3ADNet(tiny_model_config(), seed=5)
    labels = np.array([2, 0, 2, 1, 0])
    b = len(labels)
    images = rng.standard_normal((b, 32, 32)).astype(np.float32)
    masks = sample_masks(rng, b, (32, 32), 8, 0.5)
    copies = 2 if lambda_expert else 1
    pred = Tensor(rng.standard_normal((copies * b, 32, 32)).astype(np.float32),
                  requires_grad=True)
    pixels = tile_masks(masks, (32, 32))
    pred.data[:b][pixels] = np.where(rng.random(pixels.sum()) < 0.1, images[pixels],
                                     pred.data[:b][pixels])  # some zero differences
    monkeypatch.setattr(model, "reconstruct", lambda *args: pred)
    total = pretrain_loss(model, images, labels, masks, lambda_expert)[0]
    total.backward()

    recon = pixels * (np.float32(1) / np.float32(pixels.sum()))
    want = [np.sign(pred.data[:b] - images) * recon]
    if lambda_expert:
        spec = (1.0 / (pixels.sum(axis=(1, 2)) * np.bincount(labels)[labels])).astype(np.float32)
        spec = np.float32(lambda_expert) * spec
        want.append(np.sign(pred.data[b:] - images) * (pixels * spec[:, None, None]))
    assert pred.grad.dtype == np.float32
    np.testing.assert_array_equal(pred.grad, np.concatenate(want))


def test_pretrain_experts_without_rows_get_no_gradient():
    """With no AD sample in the batch, the AD expert pair of every layer
    gets no row in either half of the stacked pass and stays out of the
    graph, as do the gates."""
    model, images, labels, masks = _pretrain_case([0, 1, 1, 0])
    model.zero_grad()
    pretrain_loss(model, images, labels, masks, 1.0)[0].backward()
    params = model.named_parameters()
    for expert in range(model.cfg.num_experts):
        names = [n for n in params if f".moe.experts.{expert}." in n]
        assert names
        if expert in (6, 7):
            assert all(params[n].grad is None for n in names)
        else:
            assert all(params[n].grad is not None for n in names)
    gates = [n for n in params if ".moe.feature_attn." in n or ".moe.gate_" in n]
    assert gates and all(params[n].grad is None for n in gates)


def test_finetune_loss_uniform_logits_give_log_classes():
    diag = Tensor(np.zeros((4, 3)))
    change = Tensor(np.zeros((4, 7)))
    dy = np.array([0, 1, 2, 0])
    cy = np.array([0, 3, 6, 2])
    loss = finetune_loss(diag, change, dy, cy)
    assert abs(loss.item() - (np.log(3.0) + np.log(7.0))) < 1e-6
    weighted = finetune_loss(diag, change, dy, cy, alpha=2.0, beta=0.5)
    assert abs(weighted.item() - (2.0 * np.log(3.0) + 0.5 * np.log(7.0))) < 1e-6
