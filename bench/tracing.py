"""Span tracing for the benchmark's traced run.

The tracer wraps the public callables of each layer from outside the
package: module ``__call__`` methods, ``MMoELayer.gate_weights``, the
``numerics`` op functions, ``Tensor.backward``, ``AdamW.step``, the
checkpoint, validation and data functions. Each call records one span
(name, start, end, parent, depth) plus an integer amount: graph nodes
made by an op, rows given to an expert, useful expert rows of an MMoE
call, or bytes written by a checkpoint save. Spans stay in memory in
flat lists and are written out once, at the end of the run.

Untraced runs never construct a Tracer, so they run the package as is.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import sys
import time

import numpy as np

_PACKAGE = "m3ad"
# public numerics functions that are not tensor ops
_NOT_OPS = frozenset({"no_grad", "grad_enabled", "parameter", "zeros_param", "full_param",
                      "grad_check", "save_m3t", "load_m3t"})

# span groups that form the per-step forward pass (outermost call only)
FORWARD = ("model.M3ADNet.reconstruct_label_guided", "model.M3ADNet.reconstruct_class_only",
           "model.M3ADNet.task_logits", "model.M3ADNet.dual_task_logits",
           "heads_losses.pretrain_loss", "heads_losses.finetune_loss")
VALIDATE = ("train._masked_l1_eval", "train.task_accuracies")

# per-layer metric -> span names; time per step of the outermost such spans
STEP_TIMES = {
    "backbone.patch_embed.ms": ("backbone.PatchEmbed.__call__",),
    "backbone.attention.ms": ("backbone.WindowAttention.__call__",),
    "backbone.merge.ms": ("backbone.PatchMerge.__call__",),
    "tokmlp.mixer.ms": ("tokmlp.TokMLPBlock.__call__",),
    "moe.ms": ("moe.MMoELayer.__call__",),
    "moe.expert.ms": ("moe.ExpertMLP.__call__",),
    "moe.gate.ms": ("moe.MMoELayer.gate_weights",),
    "priors.encoder.ms": ("priors.PriorEncoder.__call__",),
    "priors.fusion.ms": ("priors.Fusion.__call__",),
    "heads_losses.mask.ms": ("heads_losses.apply_mask",),
    "heads_losses.decoder.ms": ("heads_losses.ReconDecoder.__call__",),
    "heads_losses.heads.ms": ("heads_losses.TaskHeads.__call__", "heads_losses.TaskHeads.logits"),
    "heads_losses.loss.ms": ("heads_losses.recon_loss", "heads_losses.finetune_loss"),
    "heads_losses.specialization.ms": ("heads_losses.expert_specialization_loss",),
    "numerics.forward.ms": FORWARD,
    "numerics.backward.ms": ("numerics.Tensor.backward",),
    "numerics.gelu.ms": ("numerics.gelu",),
    "numerics.matmul.ms": ("numerics.matmul",),
    "numerics.softmax.ms": ("numerics.softmax",),
    "numerics.layer_norm.ms": ("numerics.layer_norm",),
    "train.optimizer.ms": ("train.AdamW.step",),
    "train.clip.ms": ("train.clip_gradients",),
}
# mean time of one call, over every traced call (set-up included)
CALL_TIMES = {
    "train.snapshot.ms": "train.snapshot",
    "train.ckpt_save.ms": "train.save_checkpoint",
    "train.ckpt_load.ms": "train.load_checkpoint",
}
# time in the traced set-up
SETUP_TIMES = {
    "data.gen.ms": "data.gen_synthetic",
    "data.load_split.ms": "data.load_split",
}
# exact counts, checked for equality across the traced jobs of a run
COUNTS = ("numerics.graph_nodes", "numerics.op_calls", "moe.expert_rows", "moe.useful_rows",
          "train.ckpt_bytes")

UNITS = {**{name: "ms" for name in (*STEP_TIMES, *CALL_TIMES, *SETUP_TIMES)},
         **{name: "count" for name in COUNTS},
         "train.ckpt_bytes": "bytes", "moe.useful_ratio": "ratio",
         "trace.overhead_pct": "%"}


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # arrays, not lists: the garbage collector would walk long lists
        self.name = array.array("i")
        self.parent = array.array("q")
        self.depth = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.amount = array.array("q")
        self.stack = [-1]
        self.job_starts: list[int] = []
        self.missing: list[str] = []
        self.last_gate = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def mark_job(self) -> None:
        """Spans recorded from now on belong to a new job."""
        self.job_starts.append(len(self.start))

    def _wrap(self, fn, span: str, amount=None):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        names, parents, depths = self.name, self.parent, self.depth
        starts, ends, amounts, stack = self.start, self.end, self.amount, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            depths.append(len(stack) - 1)
            amounts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if amount is not None:
                amounts[i] = amount(args, out)
            return out

        return wrapper

    def _patch_attr(self, owner, attr: str, span: str, amount=None) -> None:
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:
            self.missing.append(span)
            return
        setattr(owner, attr, self._wrap(orig, span, amount))
        self._undo.append((owner, attr, orig))

    def _patch_function(self, module, attr: str, span: str, amount=None) -> None:
        """Replace a function in every package module that holds it, so
        ``from x import f`` call sites see the wrapper too."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(span)
            return
        wrapped = self._wrap(orig, span, amount)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(_PACKAGE):
                continue
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, wrapped)
                self._undo.append((mod, key, orig))

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is
        listed in ``missing``. ``uninstall`` restores the originals."""
        self.missing = []
        from m3ad import backbone, data, heads_losses, model, moe, numerics, priors, tokmlp, train

        def node(args, out):
            return int(getattr(out, "_vjp", None) is not None)

        def expert_rows(args, out):
            return int(args[1].shape[0])

        def keep_gate(args, out):
            self.last_gate = out
            return 0

        def useful_rows(args, out):
            x, routing = args[1], args[2]
            if routing.kind == "task":
                return int(np.count_nonzero(self.last_gate.data))
            w = np.asarray(routing.weights)
            if w.ndim == 1:
                w = np.broadcast_to(w, (x.shape[0], w.size))
            return int(np.count_nonzero(w))

        def file_bytes(args, out):
            return os.path.getsize(args[0])

        for module, cls, attr, amount in (
                (backbone, "PatchEmbed", "__call__", None),
                (backbone, "WindowAttention", "__call__", None),
                (backbone, "PatchMerge", "__call__", None),
                (tokmlp, "TokMLPBlock", "__call__", None),
                (moe, "MMoELayer", "__call__", useful_rows),
                (moe, "MMoELayer", "gate_weights", keep_gate),
                (moe, "ExpertMLP", "__call__", expert_rows),
                (priors, "PriorEncoder", "__call__", None),
                (priors, "Fusion", "__call__", None),
                (heads_losses, "ReconDecoder", "__call__", None),
                (heads_losses, "TaskHeads", "__call__", None),
                (heads_losses, "TaskHeads", "logits", None),
                (model, "M3ADNet", "reconstruct_label_guided", None),
                (model, "M3ADNet", "reconstruct_class_only", None),
                (model, "M3ADNet", "task_logits", None),
                (model, "M3ADNet", "dual_task_logits", None),
                (numerics, "Tensor", "backward", None),
                (train, "AdamW", "step", None)):
            span = f"{module.__name__.rsplit('.', 1)[-1]}.{cls}.{attr}"
            self._patch_attr(getattr(module, cls, None), attr, span, amount)

        for module, attr, amount in (
                (heads_losses, "apply_mask", None),
                (heads_losses, "recon_loss", None),
                (heads_losses, "finetune_loss", None),
                (heads_losses, "pretrain_loss", None),
                (heads_losses, "expert_specialization_loss", None),
                (train, "clip_gradients", None),
                (train, "snapshot", None),
                (train, "save_checkpoint", file_bytes),
                (train, "load_checkpoint", None),
                (train, "_masked_l1_eval", None),
                (train, "task_accuracies", None),
                (data, "gen_synthetic", None),
                (data, "load_split", None)):
            span = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._patch_function(module, attr, span, amount)

        self.op_spans = []
        for attr, fn in list(vars(numerics).items()):
            if (inspect.isfunction(fn) and fn.__module__ == numerics.__name__
                    and not attr.startswith("_") and attr not in _NOT_OPS):
                self._patch_function(numerics, attr, f"numerics.{attr}", node)
                self.op_spans.append(f"numerics.{attr}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode)
                for key in ("name", "parent", "depth", "start", "end", "amount")}

    def write(self, path: str) -> None:
        np.savez(path, names=np.asarray(json.dumps(self.names)),
                 job_starts=np.asarray(self.job_starts, dtype=np.int64), **self.arrays())


class Analysis:
    """Per-layer metrics over the spans of one traced set-up followed by
    the traced jobs, which ran ``steps`` steps in all."""

    def __init__(self, tracer: Tracer, steps: int):
        a = tracer.arrays()
        self.names = tracer.names
        self.op_spans = tracer.op_spans
        self.missing = tracer.missing
        self.a = a
        self.dur = a["end"] - a["start"]
        self.steps = steps
        n = self.dur.size
        first_job = tracer.job_starts[0] if tracer.job_starts else n
        self.in_setup = np.arange(n) < first_job
        bounds = list(tracer.job_starts) + [n]
        self.job_of = np.full(n, -1)
        for k in range(len(tracer.job_starts)):
            self.job_of[bounds[k]:bounds[k + 1]] = k
        self.jobs = len(tracer.job_starts)
        # spans of the measured steps: inside a job, outside validation
        self.in_steps = ~self.in_setup & ~self._under(self._is(VALIDATE))

    def _is(self, spans) -> np.ndarray:
        ids = [self.names.index(s) for s in spans if s in self.names]
        return np.isin(self.a["name"], ids)

    def _under(self, mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` or nested below one."""
        flag = mask.copy()
        depth, parent = self.a["depth"], self.a["parent"]
        for d in range(1, int(depth.max(initial=0)) + 1):
            idx = np.flatnonzero(depth == d)
            flag[idx] |= flag[parent[idx]]
        return flag

    def _outermost(self, mask: np.ndarray) -> np.ndarray:
        under = self._under(mask)
        parent = self.a["parent"]
        has_parent = parent >= 0
        above = np.zeros_like(mask)
        above[has_parent] = under[parent[has_parent]]
        return mask & ~above

    def self_ms(self) -> dict[str, float]:
        """Self time per span name per step: duration minus the time its
        child spans cover."""
        parent = self.a["parent"]
        child = np.zeros_like(self.dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        own = (self.dur - child)[self.in_steps]
        per_name = np.bincount(self.a["name"][self.in_steps], weights=own,
                               minlength=len(self.names))
        return {self.names[i]: 1e3 * float(v) / self.steps for i, v in enumerate(per_name) if v}

    def job_counts(self) -> list[dict[str, int]]:
        """Exact counts of each traced job."""
        amount = self.a["amount"]
        ops = self._is(self.op_spans)
        experts = self._is(("moe.ExpertMLP.__call__",))
        layers = self._is(("moe.MMoELayer.__call__",))
        saves = self._is(("train.save_checkpoint",))
        out = []
        for k in range(self.jobs):
            mine = self.job_of == k
            steps = mine & self.in_steps
            out.append({
                "numerics.graph_nodes": int(amount[steps & ops].sum()),
                "numerics.op_calls": int((steps & ops).sum()),
                "moe.expert_rows": int(amount[steps & experts].sum()),
                "moe.useful_rows": int(amount[steps & layers].sum()),
                "train.ckpt_bytes": int(amount[mine & saves].max(initial=0)),
            })
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, spans in STEP_TIMES.items():
            mask = self._outermost(self._is(spans)) & self.in_steps
            out[metric] = 1e3 * float(self.dur[mask].sum()) / self.steps
        for metric, span in CALL_TIMES.items():
            mask = self._is((span,))
            out[metric] = 1e3 * float(self.dur[mask].mean()) if mask.any() else 0.0
        for metric, span in SETUP_TIMES.items():
            mask = self._is((span,)) & self.in_setup
            out[metric] = 1e3 * float(self.dur[mask].sum())
        counts = self.job_counts()
        saves = self._is(("train.save_checkpoint",))
        for metric in COUNTS:
            if metric == "train.ckpt_bytes":
                out[metric] = float(self.a["amount"][saves].max(initial=0))
            else:
                out[metric] = sum(c[metric] for c in counts) / self.steps
        rows = out["moe.expert_rows"]
        out["moe.useful_ratio"] = out["moe.useful_rows"] / rows if rows else 0.0
        return out
