"""Optimizer, schedule, early stopping, checkpoints, training loops."""

import dataclasses
import inspect
import json
import re
import struct
import sys
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cut_and_flip, engine_ops, m3t_header, m3t_with_header,
                      tiny_model_config, tiny_train_config)
from m3ad import numerics as nm
from m3ad import train as train_module
from m3ad.config import ModelConfig, TrainConfig
from m3ad.errors import CheckpointError, ConfigError, ContractError
from m3ad.model import M3ADNet
from m3ad.numerics import Tensor, no_grad
from m3ad.priors import PriorStats, compute_prior_stats, normalize_priors
from m3ad.train import (AdamW, Checkpoint, EarlyStopper, _masked_l1_eval,
                        clip_gradients, cosine_lr, finetune_loop,
                        load_checkpoint, load_params, model_from_checkpoint,
                        predict, pretrain_loop, save_checkpoint,
                        snapshot, task_accuracies)


def _param(value, grad=None):
    p = Tensor(np.asarray(value, dtype=np.float64))
    if grad is not None:
        p.grad = np.asarray(grad, dtype=np.float64)
    return p


# -- AdamW -------------------------------------------------------------


def test_adamw_matches_scalar_reference():
    lr, wd = 0.1, 0.05
    p = _param([1.0, -2.0])
    opt = AdamW({"w": p}, lr=lr, weight_decay=wd)
    grads = [np.array([1.0, 0.5]), np.array([-0.3, 2.0]), np.array([0.7, -0.1])]

    ref = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref = ref - lr * wd * ref  # decay first, on the pre-update value
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + 1e-8)

        p.grad = g.copy()
        opt.step()
    np.testing.assert_allclose(p.data, ref, atol=1e-15)
    assert opt.state["w"]["t"] == 3


def test_adamw_decay_order_is_observable():
    # decay applied to the pre-step value, not after the Adam update
    lr, wd = 0.1, 0.5
    p = _param(1.0, grad=1.0)
    AdamW({"w": p}, lr=lr, weight_decay=wd).step()
    decay_first = (1.0 - lr * wd) - lr * 1.0 / (1.0 + 1e-8)
    decay_after = (1.0 - lr * 1.0 / (1.0 + 1e-8)) * (1.0 - lr * wd)
    assert abs(p.data.item() - decay_first) < 1e-12
    assert abs(p.data.item() - decay_after) > 1e-3


def test_adamw_skips_absent_gradients():
    p = _param([5.0])
    q = _param([2.0], grad=[1.0])
    opt = AdamW({"p": p, "q": q}, lr=0.1, weight_decay=0.9)
    opt.step()
    assert p.data.item() == 5.0  # no update, no decay
    assert "p" not in opt.state
    assert q.data.item() != 2.0


def test_adamw_late_joiner_bias_correction():
    late = _param(1.0)
    early = _param(1.0, grad=1.0)
    opt = AdamW({"early": early, "late": late}, lr=0.01, weight_decay=0.0)
    opt.step()
    opt.step()
    late.grad = np.asarray(1.0)
    opt.step()
    assert opt.state["late"]["t"] == 1
    assert opt.state["early"]["t"] == 3
    # a first step with m_hat = g: plain SGD-sized move
    assert abs(late.data.item() - (1.0 - 0.01 * 1.0 / (1.0 + 1e-8))) < 1e-12


def test_adamw_rejects_nonfinite_gradient():
    """The step's finiteness check is clip_gradients, which runs before
    AdamW.step: the error names the parameter and nothing is scaled."""
    p = _param([1.0], grad=[np.inf])
    q = _param([1.0], grad=[3.0])
    with pytest.raises(ContractError, match="bad_param"):
        clip_gradients({"good": q, "bad_param": p}, max_norm=1.0)
    assert q.grad.tolist() == [3.0]


def test_late_nonfinite_gradient_moves_nothing():
    """A NaN in the last of three gradients is rejected before any
    gradient is scaled and before any parameter or moment moves."""
    params = {f"p{i}": _param([1.0, -2.0], grad=[0.5, 0.25]) for i in range(3)}
    opt = AdamW(params, lr=0.1, weight_decay=0.01)
    opt.step()
    params["p2"].grad = np.array([0.5, np.nan])
    before = {name: (p.data.copy(), p.grad.copy(), opt.state[name]["m"].copy(),
                     opt.state[name]["v"].copy(), opt.state[name]["t"])
              for name, p in params.items()}
    with pytest.raises(ContractError, match="'p2'"):
        clip_gradients(params, max_norm=0.1)
        opt.step()
    for name, p in params.items():
        data, grad, m, v, t = before[name]
        np.testing.assert_array_equal(p.data, data)
        np.testing.assert_array_equal(p.grad, grad)
        np.testing.assert_array_equal(opt.state[name]["m"], m)
        np.testing.assert_array_equal(opt.state[name]["v"], v)
        assert opt.state[name]["t"] == t


def _textbook_adamw_step(opt, params, state):
    """AdamW.step written with fresh arrays, the oracle of the in-place one."""
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        st = state.setdefault(name, {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data),
                                     "t": 0})
        st["t"] += 1
        t = st["t"]
        st["m"] = opt.BETA1 * st["m"] + (1.0 - opt.BETA1) * g
        st["v"] = opt.BETA2 * st["v"] + (1.0 - opt.BETA2) * (g * g)
        m_hat = st["m"] / (1.0 - opt.BETA1 ** t)
        v_hat = st["v"] / (1.0 - opt.BETA2 ** t)
        if opt.weight_decay:
            p.data -= (opt.lr * opt.weight_decay) * p.data
        p.data -= (opt.lr * m_hat / (np.sqrt(v_hat) + opt.EPS)).astype(p.data.dtype)


def test_adamw_in_place_matches_textbook_bit_for_bit(tiny_splits):
    """A pretrain step, then two fine-tune steps in which the gate
    parameters join late: parameters and moments equal, bit for bit,
    those of the textbook expressions."""
    from m3ad.heads_losses import finetune_loss, pretrain_loss, sample_masks
    train, _, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=4)
    oracle = {name: Tensor(p.data.copy()) for name, p in model.named_parameters().items()}
    opt = AdamW(model.named_parameters(), lr=1e-3, weight_decay=0.05)
    state: dict = {}
    stats = compute_prior_stats(train.age, train.etiv)
    batch = np.arange(8)
    priors = normalize_priors(train.age[batch], train.gender[batch], train.etiv[batch], stats,
                              dtype=model.np_dtype)
    masks = sample_masks(np.random.default_rng(0), 8, (32, 32), 8, 0.5)
    losses = [lambda: pretrain_loss(model, train.images[batch], train.diag[batch], masks, 1.0)[0]]
    losses += 2 * [lambda: finetune_loss(*model.dual_task_logits(train.images[batch], priors),
                                         train.diag[batch], train.change[batch])]
    for loss in losses:
        model.zero_grad()
        loss().backward()
        clip_gradients(opt.params, 1.0)
        for name, p in model.named_parameters().items():
            oracle[name].grad = None if p.grad is None else p.grad.copy()
        opt.step()
        _textbook_adamw_step(opt, oracle, state)
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, oracle[name].data)
    assert state.keys() == opt.state.keys()
    assert any(".moe.gate_" in name and st["t"] == 2 for name, st in opt.state.items())
    for name, st in state.items():
        for key in ("m", "v", "t"):
            np.testing.assert_array_equal(opt.state[name][key], st[key])


# -- schedule, clipping, stopping --------------------------------------


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 10, 1.0, 0.1) == pytest.approx(1.0)
    assert cosine_lr(5, 10, 1.0, 0.1) == pytest.approx(0.55)
    assert cosine_lr(10, 10, 1.0, 0.1) == 0.1
    assert cosine_lr(99, 10, 1.0, 0.1) == 0.1
    values = [cosine_lr(t, 10, 1.0, 0.1) for t in range(11)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_clip_gradients_scales_to_unit_norm():
    """Norms of 5 and of 1.5, between max_norm and 2 * max_norm, are both
    scaled down to max_norm."""
    for ga, gb, want in ((3.0, 4.0, 5.0), (0.9, 1.2, 1.5)):
        a = _param([0.0], grad=[ga])
        b = _param([0.0], grad=[gb])
        c = _param([0.0])  # no gradient: ignored
        norm = clip_gradients({"a": a, "b": b, "c": c}, max_norm=1.0)
        assert norm == pytest.approx(want)
        np.testing.assert_allclose(a.grad, [0.6])
        np.testing.assert_allclose(b.grad, [0.8])


def test_clip_gradients_leaves_small_norms_alone():
    a = _param([0.0], grad=[0.3])
    norm = clip_gradients({"a": a}, max_norm=1.0)
    assert norm == pytest.approx(0.3)
    np.testing.assert_array_equal(a.grad, [0.3])


def test_clip_gradients_norm_matches_two_cast_formula(rng):
    """The norm casts each float32 gradient to float64 once and dots it
    with itself: bit for bit the dot of two separate casts."""
    params = {}
    for i, shape in enumerate([(3, 5), (7,), (), (4, 2, 3), (10_001,), (64, 1_563)]):
        p = params[f"p{i}"] = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
        p.grad = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4)).astype(np.float32)
    want = 0.0
    for p in params.values():
        g = p.grad.reshape(-1)
        want += float(np.dot(g.astype(np.float64), g.astype(np.float64)))
    assert clip_gradients(params, max_norm=np.inf) == float(np.sqrt(want))


def test_early_stopper_exact_timing():
    stop = EarlyStopper(patience=2, mode="min")
    assert stop.update(1.0, 0) is False
    assert stop.update(0.9, 1) is False
    assert stop.update(0.95, 2) is False   # 1 stale epoch
    assert stop.update(0.95, 3) is True    # 2 stale epochs
    assert stop.best == 0.9 and stop.best_epoch == 1


def test_early_stopper_max_mode_and_strictness():
    stop = EarlyStopper(patience=1, mode="max")
    assert stop.update(0.5, 0) is False
    assert stop.update(0.5, 1) is True  # equal is not an improvement
    with pytest.raises(ContractError):
        EarlyStopper(3, mode="best")


@pytest.mark.parametrize("mode", ["min", "max"])
def test_early_stopper_rejects_nonfinite(mode):
    stop = EarlyStopper(patience=2, mode=mode)
    with pytest.raises(ContractError, match="epoch 3"):
        stop.update(float("nan"), 3)
    assert stop.best is None
    stop.update(0.5, 4)
    with pytest.raises(ContractError, match="epoch 5"):
        stop.update(float("inf") if mode == "max" else -float("inf"), 5)
    assert stop.best == 0.5 and stop.best_epoch == 4


# -- checkpoints -------------------------------------------------------


def _trained_state(seed=21):
    model = M3ADNet(tiny_model_config(), seed=seed)
    opt = AdamW(model.named_parameters(), lr=1e-3, weight_decay=0.01)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.grad = rng.standard_normal(p.shape).astype(p.data.dtype)
    opt.step()
    return model, opt


def test_checkpoint_round_trip(tmp_path):
    model, opt = _trained_state()
    stats = PriorStats(70.0, 8.0, 1450.0, 120.0)
    ckpt = snapshot(model, opt, "finetune", epoch=3,
                    best={"metric": "val_mean_acc", "value": 0.5, "epoch": 2},
                    prior_stats=stats)
    path = tmp_path / "state.m3ck"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)

    assert back.stage == "finetune" and back.epoch == 3
    assert back.best == ckpt.best
    assert back.prior_stats == stats
    assert back.model_config == model.cfg
    assert set(back.params) == set(ckpt.params)
    for name, arr in ckpt.params.items():
        np.testing.assert_array_equal(back.params[name], arr)
        assert back.params[name].dtype == arr.dtype


def test_checkpoint_restores_forward_bit_exactly(tmp_path, rng):
    model, _ = _trained_state(seed=5)
    ckpt = snapshot(model, None, "pretrain", 0, {})
    path = tmp_path / "state.m3ck"
    save_checkpoint(path, ckpt)
    clone = model_from_checkpoint(load_checkpoint(path))
    from m3ad.moe import Routing
    images = rng.standard_normal((2, 32, 32))
    a = model.encode(images, Routing()).data
    b = clone.encode(images, Routing()).data
    assert (a == b).all()


def _valid_ckpt_bytes(tmp_path, prior_stats=None):
    model, opt = _trained_state(seed=8)
    ckpt = snapshot(model, opt, "pretrain", 1, {"metric": "val_masked_l1", "value": 1.0, "epoch": 1},
                    prior_stats=prior_stats)
    path = tmp_path / "ok.m3ck"
    save_checkpoint(path, ckpt)
    return path.read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    blob = _valid_ckpt_bytes(tmp_path)
    bad = tmp_path / "bad.m3ck"

    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
    with pytest.raises(CheckpointError, match="version 9"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:12])
    with pytest.raises(CheckpointError, match="bad magic or truncated"):
        load_checkpoint(bad)

    for damaged in (blob[:16] + b"X" + blob[17:], blob[:-20]):
        bad.write_bytes(damaged)
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            load_checkpoint(bad)

    bad.write_bytes(m3t_with_header(blob, b"X" + json.dumps(m3t_header(blob)).encode()))
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(bad)


def test_checkpoint_rejects_a_repeated_tensor_name(tmp_path):
    """A header whose tensor list names one parameter twice is refused,
    not read as the last of its payloads."""
    blob = _valid_ckpt_bytes(tmp_path)
    header = m3t_header(blob)
    name = header["tensors"][2]["name"]
    header["tensors"][3]["name"] = name
    bad = tmp_path / "bad.m3ck"
    bad.write_bytes(m3t_with_header(blob, header))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"bad.m3ck: tensor {name!r} is listed twice")):
        load_checkpoint(bad)


@pytest.fixture(scope="module")
def ckpt_blob(tmp_path_factory):
    return _valid_ckpt_bytes(tmp_path_factory.mktemp("ckpt"))


@given(st.data())
@settings(max_examples=100)
def test_any_cut_or_byte_flip_of_a_checkpoint_is_rejected(tmp_path_factory, ckpt_blob, data):
    bad = tmp_path_factory.getbasetemp() / "fuzz.m3ck"
    for damaged in cut_and_flip(data, ckpt_blob):
        bad.write_bytes(damaged)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


def test_checkpoint_holds_parameters_only(tmp_path):
    model, _ = _trained_state(seed=8)
    blob = _valid_ckpt_bytes(tmp_path)
    assert struct.unpack_from("<I", blob, 4) == (3,)
    header = m3t_header(blob)
    assert "moment_steps" not in header
    assert [e["name"] for e in header["tensors"]] == list(model.named_parameters())
    assert {key for e in header["tensors"] for key in e} == {"name", "dtype", "shape"}
    head_len, = struct.unpack_from("<Q", blob, 8)
    assert len(blob) == 16 + head_len + sum(p.data.nbytes for p in model.parameters()) + 4
    assert struct.unpack_from("<I", blob, len(blob) - 4) == (zlib.crc32(blob[:-4]),)


def test_checkpoint_rejects_old_versions(tmp_path):
    blob = _valid_ckpt_bytes(tmp_path)
    bad = tmp_path / "bad.m3ck"
    for version in (1, 2):
        bad.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(CheckpointError, match=f"unsupported format version {version}"):
            load_checkpoint(bad)


def _header_part(header: dict, where: str) -> dict:
    return {"header": header, "tensor": header["tensors"][3],
            "model_config": header["model_config"], "prior_stats": header["prior_stats"]}[where]


_FIELDS = ([("header", key) for key in ("tensors", "model_config", "stage", "epoch",
                                        "best", "prior_stats")]
           + [("tensor", key) for key in ("name", "dtype", "shape")]
           + [("prior_stats", key) for key in ("age_mean", "age_std", "etiv_mean", "etiv_std")])


@pytest.mark.parametrize("where,key", _FIELDS)
def test_checkpoint_missing_field_names_file_and_field(tmp_path, where, key):
    blob = _valid_ckpt_bytes(tmp_path, PriorStats(70.0, 8.0, 1450.0, 120.0))
    header = m3t_header(blob)
    del _header_part(header, where)[key]
    bad = tmp_path / "bad.m3ck"
    bad.write_bytes(m3t_with_header(blob, header))
    with pytest.raises(CheckpointError, match=f"bad.m3ck: .*lacks field '{key}'"):
        load_checkpoint(bad)


@pytest.mark.parametrize("where,key,value", [
    ("header", "tensors", {}), ("header", "model_config", []), ("header", "stage", 2),
    ("header", "epoch", "1"), ("header", "epoch", True), ("header", "best", None),
    ("header", "prior_stats", [70.0]),
    ("tensor", "name", None), ("tensor", "dtype", 4), ("tensor", "shape", "8"),
    ("prior_stats", "age_std", "8"),
    # a key the record has no field for, and a NaN, are refused the same way
    ("header", "optimizer", {}), ("model_config", "n_layers", 4),
    ("prior_stats", "age_median", 70.0), ("model_config", "mask_ratio", float("nan")),
])
def test_checkpoint_mistyped_field_names_file_and_field(tmp_path, where, key, value):
    blob = _valid_ckpt_bytes(tmp_path, PriorStats(70.0, 8.0, 1450.0, 120.0))
    header = m3t_header(blob)
    _header_part(header, where)[key] = value
    bad = tmp_path / "bad.m3ck"
    bad.write_bytes(m3t_with_header(blob, header))
    with pytest.raises(CheckpointError, match=f"bad.m3ck: .*field '{key}' holds"):
        load_checkpoint(bad)


_PINNED_HEADER = (
    b'{"model_config": {"patch_size": 4, "embed_dim": 8, "depths": [1, 1, 1, 1], '
    b'"num_heads": [1, 2, 4, 8], "window": 4, "num_experts": 8, "num_shared_experts": 2, '
    b'"expert_hidden_ratio": 2, "gate_temp": 1.0, "shared_expert_weight": 0.3, '
    b'"fusion_stage": 2, "fusion_type": "adaptive", "num_change_classes": 3, '
    b'"mask_unit": 8, "mask_ratio": 0.6, "dtype": "float32"}, "stage": "finetune", '
    b'"epoch": 3, "best": {"metric": "val_mean_acc", "value": 0.30000000000000004, '
    b'"epoch": 2}, "prior_stats": %s, "tensors": [{"name": "w", "dtype": "float32", '
    b'"shape": [2]}]}')


@pytest.mark.parametrize("stats,text", [
    (PriorStats(70.25, 1 / 3, 1450.0, 120.0),
     b'{"age_mean": 70.25, "age_std": 0.3333333333333333, "etiv_mean": 1450.0, '
     b'"etiv_std": 120.0}'),
    (None, b"null"),
])
def test_checkpoint_header_bytes_are_pinned(tmp_path, stats, text):
    """The on-disk JSON header, byte for byte: the Checkpoint's field
    order, a config's tuples as lists, floats in their shortest repr."""
    cfg = ModelConfig(embed_dim=8, depths=(1, 1, 1, 1), num_heads=(1, 2, 4, 8), window=4,
                      expert_hidden_ratio=2)
    ckpt = Checkpoint(model_config=cfg, stage="finetune", params={"w": np.zeros(2, np.float32)},
                      epoch=3, best={"metric": "val_mean_acc", "value": 0.1 + 0.2, "epoch": 2},
                      prior_stats=stats)
    path = tmp_path / "pinned.m3ck"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    head_len, = struct.unpack_from("<Q", blob, 8)
    assert blob[16:16 + head_len] == _PINNED_HEADER % text


@pytest.mark.parametrize("key,value", [
    ("dtype", "float16"), ("dtype", "int32"), ("shape", [-1, 8]), ("shape", [2.0, 8]),
])
def test_checkpoint_rejects_inconsistent_tensor_entry(tmp_path, key, value):
    blob = _valid_ckpt_bytes(tmp_path)
    header = m3t_header(blob)
    header["tensors"][3][key] = value
    bad = tmp_path / "bad.m3ck"
    bad.write_bytes(m3t_with_header(blob, header))
    with pytest.raises(CheckpointError, match=re.escape(f"{key} {value!r}")):
        load_checkpoint(bad)


def test_checkpoint_payload_length_follows_from_the_shapes(tmp_path):
    """Payload offsets are not stored: a shape that describes more or
    fewer bytes than the file holds fails the one length check."""
    blob = _valid_ckpt_bytes(tmp_path)
    bad = tmp_path / "bad.m3ck"
    for shape in ([1], [2**40, 2**40]):
        header = m3t_header(blob)
        header["tensors"][3]["shape"] = shape
        bad.write_bytes(m3t_with_header(blob, header))
        with pytest.raises(CheckpointError, match="bad.m3ck: the header describes"):
            load_checkpoint(bad)


def test_load_params_strict_errors():
    model, _ = _trained_state(seed=31)
    ckpt = snapshot(model, None, "pretrain", 0, {})
    target = M3ADNet(tiny_model_config(), seed=32)

    missing = dataclasses.replace(ckpt, params={k: v for k, v in ckpt.params.items()
                                                if k != "mask_token"})
    with pytest.raises(CheckpointError, match="mask_token"):
        load_params(target, missing)

    extra = dataclasses.replace(ckpt, params={**ckpt.params, "ghost": np.zeros(3)})
    with pytest.raises(CheckpointError, match="unknown parameters"):
        load_params(target, extra)

    wrong_shape = dataclasses.replace(
        ckpt, params={**ckpt.params, "mask_token": np.zeros(17, dtype=np.float32)})
    with pytest.raises(CheckpointError, match="mask_token"):
        load_params(target, wrong_shape)


class _Stop(Exception):
    pass


def test_finetune_init_keeps_only_change_head_fresh(tiny_splits):
    """A pretrained checkpoint of another change-head arity loads every
    parameter but the change head, which keeps its fresh values."""
    train, val, _ = tiny_splits
    src = M3ADNet(tiny_model_config(num_change_classes=3), seed=41)
    ckpt = snapshot(src, None, "pretrain", 0, {})
    dst = M3ADNet(tiny_model_config(num_change_classes=7), seed=42)
    fresh = {name: p.data.copy() for name, p in dst.named_parameters().items()}
    loaded = {}

    def grab(model, epoch, batch):  # before the first optimizer step
        loaded.update({name: p.data.copy() for name, p in model.named_parameters().items()})
        raise _Stop

    with pytest.raises(_Stop):
        finetune_loop(dst, train, val, tiny_train_config(epochs=1), init=ckpt, on_batch=grab)
    head = {"heads.change.bias", "heads.change.weight"}
    assert loaded.keys() == fresh.keys() == set(ckpt.params) | head
    for name, arr in loaded.items():
        np.testing.assert_array_equal(arr, fresh[name] if name in head else ckpt.params[name],
                                      err_msg=name)


def test_finetune_init_rejects_another_model_config(tiny_splits):
    train, val, _ = tiny_splits
    ckpt = snapshot(M3ADNet(tiny_model_config(), seed=41), None, "pretrain", 0, {})
    model = M3ADNet(tiny_model_config(embed_dim=16, mask_ratio=0.5), seed=42)
    with pytest.raises(CheckpointError, match=r"embed_dim \(8 vs 16\), mask_ratio"):
        finetune_loop(model, train, val, tiny_train_config(epochs=1), init=ckpt)


# -- loops -------------------------------------------------------------


def test_pretrain_loop_rows_and_determinism(tiny_splits):
    train, val, _ = tiny_splits
    cfg = tiny_train_config()
    runs = []
    for _ in range(2):
        model = M3ADNet(tiny_model_config(), seed=cfg.seed)
        ckpt, rows = pretrain_loop(model, train, val, cfg)
        runs.append((ckpt, rows))
    ckpt0, rows0 = runs[0]
    ckpt1, rows1 = runs[1]
    assert len(rows0) == cfg.epochs
    assert list(rows0[0]) == ["epoch", "lr", "train_total", "train_recon",
                              "train_expert", "val_masked_l1"]
    assert rows0 == rows1
    # each epoch trains at, and logs, the cosine schedule from lr down to
    # min_lr_ratio * lr; with lr 1 or a ratio of 0 a schedule down to
    # min_lr_ratio alone would read the same
    assert cfg.epochs >= 2 and cfg.lr != 1.0 and cfg.min_lr_ratio != 0.0
    assert [row["lr"] for row in rows0] == [
        cosine_lr(epoch, cfg.epochs, cfg.lr, cfg.min_lr_ratio * cfg.lr)
        for epoch in range(cfg.epochs)]
    for name, arr in ckpt0.params.items():
        np.testing.assert_array_equal(arr, ckpt1.params[name])
    assert ckpt0.stage == "pretrain"
    assert ckpt0.best["metric"] == "val_masked_l1"
    assert ckpt0.prior_stats is None


@pytest.mark.parametrize("overrides, message", [
    (dict(mask_unit=12), "mask_unit 12 does not divide the 32x32 images"),
    (dict(mask_ratio=0.01), "mask_ratio 0.01 hides no unit of the 4x4 mask grid"),
    (dict(mask_unit=32, mask_ratio=0.4), "mask_ratio 0.4 hides no unit of the 1x1 mask grid"),
])
def test_pretrain_rejects_mask_settings_before_the_first_step(tiny_splits, overrides, message):
    train, val, _ = tiny_splits
    steps = []
    with pytest.raises(ConfigError, match=message):
        pretrain_loop(M3ADNet(tiny_model_config(**overrides), seed=1), train, val,
                      tiny_train_config(), on_batch=lambda *args: steps.append(args))
    assert steps == []


def test_pretrain_nonfinite_loss_names_epoch_and_batch(tiny_splits):
    train, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=7)
    model.mask_token.data[:] = np.nan
    with pytest.raises(ContractError, match="epoch 0, batch 0"):
        pretrain_loop(model, train, val, tiny_train_config(epochs=1))


def test_finetune_nonfinite_loss_names_epoch_and_batch(tiny_splits):
    train, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=7)
    model.named_parameters()["heads.diagnosis.weight"].data[:] = np.nan
    calls = []
    with pytest.raises(ContractError, match="epoch 0, batch 0"):
        finetune_loop(model, train, val, tiny_train_config(epochs=1),
                      on_batch=lambda *args: calls.append(args))
    assert calls == []  # stopped before the backward pass


@pytest.mark.parametrize("stage, scorer, scores", [
    ("pretrain", "_masked_l1_eval", [0.5, 0.25, 0.375, 0.3, 0.125, 0.0625]),
    ("finetune", "task_accuracies", [0.25, 0.75, 0.5, 0.625, 0.875, 1.0]),
])
def test_loop_keeps_best_epoch_and_stops_after_patience(tiny_splits, monkeypatch,
                                                        stage, scorer, scores):
    """Validation peaks at epoch 1; with patience 2 the loop stops after
    epoch 3 and returns the parameters it held when epoch 1 was scored."""
    train, val, _ = tiny_splits
    seen = []

    def scripted(model, ds, *args):
        seen.append({name: p.data.copy() for name, p in model.named_parameters().items()})
        value = scores[len(seen) - 1]
        return np.full(len(ds), value) if stage == "pretrain" else (value, value)

    monkeypatch.setattr(train_module, scorer, scripted)
    loop = pretrain_loop if stage == "pretrain" else finetune_loop
    model = M3ADNet(tiny_model_config(), seed=5)
    ckpt, rows = loop(model, train, val, tiny_train_config(epochs=6, patience=2))
    assert [row["epoch"] for row in rows] == [0, 1, 2, 3]
    assert ckpt.epoch == ckpt.best["epoch"] == 1
    assert ckpt.best["value"] == scores[1]
    assert ckpt.params.keys() == seen[1].keys()
    for name, arr in ckpt.params.items():
        np.testing.assert_array_equal(arr, seen[1][name])
    assert any((arr != seen[3][name]).any() for name, arr in ckpt.params.items())


def test_pretrain_leaves_gates_untouched(tiny_splits):
    train, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=7)
    gate_names = [name for name in model.named_parameters()
                  if ".moe.feature_attn." in name or ".moe.gate_" in name]
    assert gate_names
    watched = gate_names + ["patch_embed.proj.weight"]
    before = {name: model.named_parameters()[name].data.copy() for name in watched}
    pretrain_loop(model, train, val, tiny_train_config(epochs=1))
    named = model.named_parameters()
    for name in gate_names:
        np.testing.assert_array_equal(named[name].data, before[name])
    # the rest of the network did train
    assert (named["patch_embed.proj.weight"].data
            != before["patch_embed.proj.weight"]).any()


def test_pretrain_on_batch_hook(tiny_splits):
    train, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=7)
    calls = []
    pretrain_loop(model, train, val, tiny_train_config(epochs=1),
                  on_batch=lambda m, epoch, batch: calls.append((m is model, epoch, batch.size)))
    assert len(calls) == 2  # 16 train samples, batches of 8
    assert all(is_model for is_model, _, _ in calls)
    assert {epoch for _, epoch, _ in calls} == {0}
    assert sum(size for _, _, size in calls) == len(train)


@pytest.mark.parametrize("loop", [pretrain_loop, finetune_loop])
def test_fit_frees_each_step_graph_before_the_next_forward(tiny_splits, monkeypatch, loop):
    """When on_batch runs, right after backward, nothing holds the step's
    total loss any more: its graph cannot live on into the next forward.
    (A Tensor takes no weak reference; its 0-d array dies with it.)"""
    train, val, _ = tiny_splits
    fit, totals = train_module._fit, []

    def watched_fit(model, cfg, n, stage, mode, batch_loss, validate, on_batch=None, **kw):
        def recording_loss(rng, batch):
            terms = batch_loss(rng, batch)
            totals.append(weakref.ref(next(iter(terms.values())).data))
            return terms

        def check(model, epoch, batch):
            assert totals[-1]() is None

        return fit(model, cfg, n, stage, mode, recording_loss, validate, check, **kw)

    monkeypatch.setattr(train_module, "_fit", watched_fit)
    loop(M3ADNet(tiny_model_config(), seed=7), train, val, tiny_train_config(epochs=1))
    assert len(totals) == 2  # 16 train samples, batches of 8


@pytest.mark.parametrize("loop", [pretrain_loop, finetune_loop])
def test_fit_drops_each_step_gradients_once_applied(tiny_splits, monkeypatch, loop):
    """Every step's forward starts with no gradient alive, while on_batch,
    right after backward, still sees the step's gradients."""
    train, val, _ = tiny_splits
    fit, seen = train_module._fit, []

    def watched_fit(model, cfg, n, stage, mode, batch_loss, validate, on_batch=None, **kw):
        def checked_loss(rng, batch):
            assert all(p.grad is None for p in model.parameters())
            return batch_loss(rng, batch)

        def check(model, epoch, batch):
            seen.append(sum(p.grad is not None for p in model.parameters()))

        return fit(model, cfg, n, stage, mode, checked_loss, validate, check, **kw)

    monkeypatch.setattr(train_module, "_fit", watched_fit)
    loop(M3ADNet(tiny_model_config(), seed=7), train, val, tiny_train_config(epochs=2))
    assert len(seen) == 4 and min(seen) > 0  # 16 train samples, batches of 8


def test_finetune_loop_rows_and_init(tiny_splits):
    train, val, _ = tiny_splits
    cfg = tiny_train_config()
    pre_model = M3ADNet(tiny_model_config(), seed=cfg.seed)
    pre_ckpt, _ = pretrain_loop(pre_model, train, val, tiny_train_config(epochs=1))

    model = M3ADNet(tiny_model_config(), seed=9)
    ckpt, rows = finetune_loop(model, train, val, cfg, init=pre_ckpt)
    assert list(rows[0]) == ["epoch", "lr", "train_loss", "val_diag_acc",
                             "val_change_acc", "val_mean_acc"]
    assert ckpt.stage == "finetune"
    assert ckpt.best["metric"] == "val_mean_acc"
    expected = compute_prior_stats(train.age, train.etiv)
    assert ckpt.prior_stats == expected
    for row in rows:
        assert row["val_mean_acc"] == pytest.approx(
            0.5 * (row["val_diag_acc"] + row["val_change_acc"]))


def test_finetune_rejects_out_of_range_change_labels(tiny_splits):
    train, val, _ = tiny_splits
    bad_train = dataclasses.replace(train, change=np.full(len(train), 5))
    model = M3ADNet(tiny_model_config(num_change_classes=3), seed=1)
    with pytest.raises(ContractError, match="out of range"):
        finetune_loop(model, bad_train, val, tiny_train_config())


def test_finetune_beta_zero_starves_change_head(tiny_splits):
    train, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=13)
    seen = []

    def probe(m, epoch, batch):
        named = m.named_parameters()
        seen.append((float(np.abs(named["heads.change.weight"].grad).max()),
                     float(np.abs(named["heads.diagnosis.weight"].grad).max())))

    finetune_loop(model, train, val, tiny_train_config(epochs=1, beta=0.0),
                  on_batch=probe)
    assert seen
    for change_grad, diag_grad in seen:
        assert change_grad == 0.0
        assert diag_grad > 0.0


def test_task_accuracies_range(tiny_splits):
    train, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=3)
    stats = compute_prior_stats(train.age, train.etiv)
    diag_acc, change_acc = task_accuracies(model, val, stats, batch_size=16)
    for acc in (diag_acc, change_acc):
        assert 0.0 <= acc <= 1.0
        assert acc * len(val) == pytest.approx(round(acc * len(val)))


def test_predict_matches_batch1_passes(tiny_splits):
    train, _, _ = tiny_splits
    model = M3ADNet(tiny_model_config(), seed=3)
    stats = compute_prior_stats(train.age, train.etiv)
    logits, gate_sums = predict(model, train, stats, batch_size=6)
    priors = normalize_priors(train.age, train.gender, train.etiv, stats,
                              dtype=model.np_dtype)
    with no_grad():
        for i in range(len(train)):
            singles = model.dual_task_logits(train.images[i:i + 1], priors[i:i + 1])
            for task, single in zip(("diagnosis", "change"), singles):
                assert logits[task][i].argmax() == single.data[0].argmax()
                np.testing.assert_allclose(logits[task][i], single.data[0],
                                           rtol=1e-5, atol=1e-6)
    for sums in gate_sums.values():
        assert sums.shape == (len(model.blocks), model.cfg.num_experts)
        np.testing.assert_allclose(sums.sum(axis=1), len(train), rtol=1e-6)
    assert task_accuracies(model, train, stats, batch_size=6) == tuple(
        float(np.mean(logits[task].argmax(axis=1) == labels))
        for task, labels in (("diagnosis", train.diag), ("change", train.change)))


@pytest.mark.parametrize("routing", ["label_guided", "class_only"])
def test_masked_l1_eval_per_sample(tiny_splits, routing):
    """Batches of 3 score each sample as a batch-of-one pass with its own
    routing row does."""
    from m3ad.heads_losses import masked_l1_per_sample, sample_masks
    _, val, _ = tiny_splits
    model = M3ADNet(tiny_model_config(dtype="float64"), seed=3)
    masks = sample_masks(np.random.default_rng(0), len(val), (32, 32), 8, 0.5)
    weights = (model.label_guided_weights(val.diag) if routing == "label_guided"
               else model.label_guided_weights(np.zeros(len(val), dtype=int), shared_weight=0.0))
    values = _masked_l1_eval(model, val, masks, weights, batch_size=3)
    assert values.shape == (len(val),)
    assert np.all(values > 0)
    with no_grad():
        for i in range(len(val)):
            pred = model.reconstruct(val.images[i:i + 1], weights[i:i + 1], masks[i:i + 1])
            single = masked_l1_per_sample(pred.data, val.images[i:i + 1], masks[i:i + 1])
            np.testing.assert_allclose(values[i], single[0], rtol=1e-12)


def test_tiny_train_config_is_valid():
    assert isinstance(tiny_train_config(), TrainConfig)
    tiny_train_config().validate()


def test_training_and_scoring_reach_every_engine_op(tiny_splits, monkeypatch):
    """One pretrain step, one fine-tune step and one batch-1 scoring pass
    together call every public engine op: no op exists only for its
    gradient check."""
    train, val, _ = tiny_splits
    ops = {fn: name for name, fn in engine_ops().items()}
    reached = set()

    def recording(fn, name):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for key, module in list(sys.modules.items()):
        if key.startswith("m3ad"):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in ops:
                    monkeypatch.setattr(module, attr, recording(value, ops[value]))

    one_step = tiny_train_config(epochs=1, batch_size=len(train))
    pretrain_loop(M3ADNet(tiny_model_config(), seed=1), train, val, one_step)
    model = M3ADNet(tiny_model_config(), seed=1)
    finetune_loop(model, train, val, one_step)
    stats = compute_prior_stats(train.age, train.etiv)
    with no_grad():
        model.dual_task_logits(val.images[:1], normalize_priors(
            val.age[:1], val.gender[:1], val.etiv[:1], stats, dtype=model.np_dtype))
    assert sorted(set(ops.values()) - reached) == []
