"""Shared fixtures: tiny model configs, a small generated dataset, one
training step of each stage, and the acceptance-criteria summary hook."""

import inspect
import json
import logging
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from m3ad import numerics as nm
from m3ad.backbone import M3ADBlock
from m3ad.config import ModelConfig, TrainConfig
from m3ad.data import gen_synthetic, load_split
from m3ad.errors import ShapeError
from m3ad.heads_losses import finetune_loss, pretrain_loss, sample_masks
from m3ad.moe import task_blocks

# property tests draw the same examples on every run, keep no example
# database and set no per-example deadline, so that a run is repeatable
settings.register_profile("m3ad", deadline=None, derandomize=True, database=None)
settings.load_profile("m3ad")
# Hypothesis also caches the constants it reads from the sources in its
# home directory; keep that in a temporary directory removed at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="m3ad-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# claim the root logger before any CLI test lets basicConfig bind it to a
# per-test capture buffer that dies with its test
logging.basicConfig(level=logging.WARNING)

# the functions of the engine that are not ops, as bench/tracing.py lists them
_NOT_OPS = frozenset({"no_grad", "grad_enabled", "parameter", "zeros_param", "full_param",
                      "grad_check", "save_m3t", "load_m3t"})


def engine_ops() -> dict:
    """The public op functions of ``m3ad.numerics`` by name, found as the
    tracer of bench/tracing.py finds them."""
    return {name: fn for name, fn in vars(nm).items()
            if inspect.isfunction(fn) and fn.__module__ == nm.__name__
            and not name.startswith("_") and name not in _NOT_OPS}


def matmul(a: nm.Tensor, b: nm.Tensor) -> nm.Tensor:
    """Matrix product. 2-D operands or stacked operands whose leading
    (batch) dimensions match exactly; no batch broadcasting.

    An oracle op, one graph node, for the chains that check the engine's
    fused layers (linear, cosine_attention, conv3x3) bit for bit."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions differ: {a.shape} @ {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"operand dtypes differ: {a.dtype} vs {b.dtype}")
    data = a.data @ b.data

    def vjp(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return nm._wrap(data, (a, b), vjp)


# div and sigmoid are oracle ops, one graph node each, for the chains that
# check the fused attention and the MMoE task gate bit for bit; sigmoid
# takes the engine's logistic kernel, whose accuracy test_numerics checks


def div(a: nm.Tensor, b) -> nm.Tensor:
    b = nm._coerce(b, a)
    data = a.data / b.data

    def vjp(g):
        ga = nm._unbroadcast(g / b.data, a.shape)
        gb = nm._unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return nm._wrap(data, (a, b), vjp)


def sigmoid(a: nm.Tensor) -> nm.Tensor:
    data = nm._expit(a.data)
    return nm._wrap(data, (a,), lambda g: (g * data * (1.0 - data),))


def feature_summary(layer, x: nm.Tensor) -> nm.Tensor:
    """sigmoid(W_a x_bar + b_a) * x_bar of an MMoE layer, x_bar being each
    row's mean over all its positions: the oracle chain tmean, linear,
    sigmoid, mul."""
    xbar = x.mean(axis=tuple(range(1, x.ndim - 1)))
    return nm.mul(sigmoid(layer.feature_attn(xbar)), xbar)


def gate_chain(layer, x: nm.Tensor) -> nm.Tensor:
    """An MMoE layer's task gate weights as the 11-node oracle chain: the
    feature summary, the diagnosis gate over the first half of the rows
    and the change gate over the second, concat, div by the temperature,
    softmax."""
    diagnosis, change = task_blocks(feature_summary(layer, x))
    logits = nm.concat([layer.gate_diagnosis(diagnosis), layer.gate_change(change)])
    return nm.softmax(div(logits, layer.gate_temp), axis=-1)


def _op(vjp) -> str:
    """The op of a graph node's vjp: the first part of its qualified name."""
    return vjp.__qualname__.split(".")[0]


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def graph_census(loss: nm.Tensor) -> tuple[dict[str, int], dict[str, int]]:
    """The node count and the kept bytes per op of the graph behind ``loss``.

    The walk follows ``_node._parents`` from the loss. The kept bytes of
    an op are those of the arrays that its nodes' vjps reach through their
    closures: in cells, default arguments, lists, tuples, dicts, Tensors
    and nested functions, never in a Module. Each base buffer counts once,
    at the first node that reaches it, and the parameters (the leaves that
    take a gradient) count nowhere."""
    nodes, leaves, stack, seen = [], [], [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, nm.Tensor):
            leaves.append(node)
        else:
            nodes.append(node)
            stack.extend(node._parents)
    counted = {id(_base(leaf.data)) for leaf in leaves if leaf.requires_grad}
    count: dict[str, int] = {}
    kept: dict[str, int] = {}
    for node in nodes:
        op = _op(node._vjp)
        count[op] = count.get(op, 0) + 1
        kept.setdefault(op, 0)
        todo, reached = [node._vjp], set()
        while todo:
            obj = todo.pop()
            if id(obj) in reached:
                continue
            reached.add(id(obj))
            if isinstance(obj, np.ndarray):
                base = _base(obj)
                if id(base) not in counted:
                    counted.add(id(base))
                    kept[op] += base.nbytes
            elif isinstance(obj, nm.Tensor):
                todo.append(obj.data)
            elif isinstance(obj, (list, tuple)):
                todo.extend(obj)
            elif isinstance(obj, dict):
                todo.extend(obj.values())
            elif inspect.isfunction(obj):
                todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
                todo.extend(obj.__defaults__ or ())
    return count, kept


def op_calls(fn) -> dict[str, int]:
    """The calls of each op while ``fn()`` runs: every op, fused or not,
    makes its output through one ``nm._wrap`` call, recorded or not."""
    calls: dict[str, int] = {}
    wrap = nm._wrap

    def spy(data, parents, vjp):
        calls[_op(vjp)] = calls.get(_op(vjp), 0) + 1
        return wrap(data, parents, vjp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nm, "_wrap", spy)
        fn()
    return calls


# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES[number] = f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[number])


def m3t_header(blob: bytes) -> dict:
    """The JSON header of a tensor file's bytes, tensor list included."""
    head_len, = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16:16 + head_len])


def m3t_with_header(blob: bytes, header) -> bytes:
    """A tensor file's bytes with another header (a JSON value, or raw
    bytes) and a recomputed CRC, so that only the checks of the header's
    contents can reject it."""
    head_len, = struct.unpack_from("<Q", blob, 8)
    head = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    body = blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + head_len:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def cut_and_flip(data, blob: bytes) -> tuple[bytes, bytes]:
    """A Hypothesis-drawn truncation of ``blob`` and a copy of it with one
    byte changed."""
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    flipped = bytearray(blob)
    flipped[data.draw(st.integers(0, len(blob) - 1), label="pos")] ^= data.draw(
        st.integers(1, 255), label="xor")
    return blob[:cut], bytes(flipped)


def tiny_model_config(**overrides) -> ModelConfig:
    """Smallest legal network: one block per stage, 8 channels."""
    base = dict(embed_dim=8, depths=(1, 1, 1, 1), num_heads=(1, 2, 4, 8),
                window=4, expert_hidden_ratio=2)
    base.update(overrides)
    return ModelConfig(**base).validate()


def stage_trace(model, images, routing) -> list[tuple[int, tuple[int, int], int]]:
    """(stage, (h, w), channels) of the grid after each stage's blocks in
    one ``model.encode``, recorded by wrapping ``M3ADBlock.__call__``."""
    shapes = []
    call = M3ADBlock.__call__

    def record(block, x, *args):
        out = call(block, x, *args)
        shapes.append(out.shape)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M3ADBlock, "__call__", record)
        model.encode(images, routing)
    ends = np.cumsum(model.cfg.depths) - 1
    return [(stage, shapes[end][1:3], shapes[end][3]) for stage, end in enumerate(ends)]


def one_step_each(model, rng) -> dict[str, np.ndarray]:
    """Loss and gradients of one pretrain and one fine-tune step on four
    32x32 scans, plus batch-1 logits, by name."""
    images = rng.standard_normal((4, 32, 32)).astype(np.float32)
    diag, change = np.array([0, 1, 2, 1]), np.array([0, 1, 2, 0])
    priors = rng.standard_normal((4, 3)).astype(np.float32)
    masks = sample_masks(rng, 4, (32, 32), model.cfg.mask_unit, model.cfg.mask_ratio)
    out = {}
    for stage in ("pretrain", "finetune"):
        if stage == "pretrain":
            loss = pretrain_loss(model, images, diag, masks, 1.0)[0]
        else:
            loss = finetune_loss(*model.dual_task_logits(images, priors), diag, change)
        model.zero_grad()
        loss.backward()
        out[f"{stage}.loss"] = loss.data
        out.update({f"{stage}.{name}": p.grad for name, p in model.named_parameters().items()
                    if p.grad is not None})
    with nm.no_grad():
        for task, logits in zip(("diagnosis", "change"),
                                model.dual_task_logits(images[:1], priors[:1])):
            out[f"batch1.{task}"] = logits.data
    return out


def tiny_train_config(**overrides) -> TrainConfig:
    base = dict(lr=1e-3, weight_decay=0.01, epochs=2, batch_size=8,
                patience=5, seed=3)
    base.update(overrides)
    return TrainConfig(**base).validate()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def tiny_data_dir(tmp_path_factory):
    """24 samples at 32x32, split 16/4/4; shared by data/train/cli tests."""
    root = tmp_path_factory.mktemp("tinydata")
    manifest = gen_synthetic(str(root), seed=11, n=24, size=32, scheme="C3",
                             fractions=(2 / 3, 1 / 6, 1 / 6))
    return manifest


@pytest.fixture(scope="session")
def tiny_splits(tiny_data_dir):
    return (load_split(tiny_data_dir, "train"),
            load_split(tiny_data_dir, "val"),
            load_split(tiny_data_dir, "test"))
