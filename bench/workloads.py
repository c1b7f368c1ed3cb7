"""The benchmark's three workloads, their set-up and their output checks.

Every workload runs the calib model (embed 16, depths 2/2/2/2, 64x64
synthetic scans, 3.59M float32 parameters) in one process as a closed
loop of fixed-size jobs: the next job, and inside a job the next step,
starts only after the previous one has ended.

* pretrain: a job is one ``train.pretrain_loop`` of EPOCHS epoch(s) with
  ``lambda_expert=1`` on mixed-class batches of 16, then a write and
  re-read of its best checkpoint. A step is one optimizer step.
* finetune: a job is one ``train.finetune_loop`` initialised from the
  set-up checkpoint, same size, same checkpoint round trip.
* predict: a job is one pass of batch-1 ``M3ADNet.dual_task_logits``
  under ``no_grad`` over the held-out split. A step is one scan.

Every job starts from the parameters of the set-up checkpoint, so all
jobs of one seed compute the same thing. Their outputs are checked
against each other and against the values in ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import statistics
import time

import numpy as np
import scipy

from m3ad import data, train
from m3ad.config import ModelConfig, TrainConfig
from m3ad.model import M3ADNet
from m3ad.numerics import no_grad
from m3ad.priors import compute_prior_stats, normalize_priors

MODEL = dict(embed_dim=16, depths=(2, 2, 2, 2), num_heads=(2, 4, 8, 16), window=8,
             expert_hidden_ratio=4, shared_expert_weight=0.15)
SPLIT_SIZES = (128, 32, 64)  # train, val, test; scans per split
IMAGE_SIZE = 64
BATCH = 16
EPOCHS = 1
LR = 3e-4
SETUPS = 5          # set-ups per untraced run; setup_s is their median
INPUT_SETS = 32     # --seed picks input set seed % INPUT_SETS
# How far a job's numeric outputs may be from the reference. Training
# amplifies rounding (Adam turns the sign of a near-zero gradient into a
# full step), so its outputs get loose tolerances. Scoring does not, so a
# sum of |logits| must match to a few dozen float32 ulps: reordered sums
# stay inside, while tanh-form GELU moves it by 1.3e-5.
REL_TOL = {"val_masked_l1": 1e-3, "diag_abs_sum": 5e-6, "change_abs_sum": 5e-6}
ACC_SCANS = 1       # finetune accuracies may differ from the reference by this many scans
TAIL_BEYOND = 10    # step_ms_tail leaves this many steps above it
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

clock = time.perf_counter


@dataclasses.dataclass
class State:
    """What set-up leaves for the jobs."""

    workdir: str
    train: data.Dataset
    val: data.Dataset
    test: data.Dataset
    init: train.Checkpoint
    model: M3ADNet


@dataclasses.dataclass
class Job:
    """One finished job: its timing, its outputs and what failed."""

    seconds: float
    epochs: int
    attempted: int
    steps: list[tuple[float, int]]  # (seconds, samples) per timed step
    outputs: dict
    problems: list[str]
    failed: int = 0


def setup(workdir: str, input_set: int) -> State:
    """Data generation and ``load_split``, model construction, and a
    checkpoint save and load."""
    n = sum(SPLIT_SIZES)
    manifest = data.gen_synthetic(workdir, seed=input_set, n=n, size=IMAGE_SIZE, scheme="C3",
                                  fractions=tuple(k / n for k in SPLIT_SIZES))
    splits = [data.load_split(manifest, split) for split in data.SPLITS]
    model = M3ADNet(ModelConfig(**MODEL), seed=input_set)
    stats = compute_prior_stats(splits[0].age, splits[0].etiv)
    path = os.path.join(workdir, "init.m3ck")
    train.save_checkpoint(path, train.snapshot(model, None, "pretrain", 0, {}, prior_stats=stats))
    return State(workdir, *splits, init=train.load_checkpoint(path), model=model)


def _train_config(seed: int, epochs: int, **extra) -> TrainConfig:
    return TrainConfig(lr=LR, epochs=epochs, batch_size=BATCH, patience=epochs, seed=seed,
                       **extra)


def _step_clock(steps: list):
    """``on_batch`` hook timing a step as the interval between two
    batches of one epoch: optimizer and clip of the first, forward and
    backward of the second."""
    last = {}

    def on_batch(model, epoch, batch):
        now = clock()
        if last.get("epoch") == epoch:
            steps.append((now - last["time"], len(batch)))
        last.update(epoch=epoch, time=now)

    return on_batch


def _finite_rows(rows: list[dict]) -> list[str]:
    return [f"epoch {row['epoch']}: {key} = {value}" for row in rows
            for key, value in row.items() if not math.isfinite(float(value))]


def _round_trip(st: State, best: train.Checkpoint) -> list[str]:
    """Write the best checkpoint and read it back; parameters must survive exactly."""
    path = os.path.join(st.workdir, "best.m3ck")
    train.save_checkpoint(path, best)
    back = train.load_checkpoint(path)
    return [f"checkpoint round trip changed {name!r}" for name, arr in best.params.items()
            if not np.array_equal(arr, back.params.get(name))]


def pretrain_job(st: State, seed: int, steps: list, epochs: int = EPOCHS):
    train.load_params(st.model, st.init)
    cfg = _train_config(seed, epochs, lambda_expert=1.0)
    best, rows = train.pretrain_loop(st.model, st.train, st.val, cfg, on_batch=_step_clock(steps))
    return ({"val_masked_l1": rows[-1]["val_masked_l1"]},
            _finite_rows(rows) + _round_trip(st, best))


def finetune_job(st: State, seed: int, steps: list, epochs: int = EPOCHS):
    cfg = _train_config(seed, epochs)
    best, rows = train.finetune_loop(st.model, st.train, st.val, cfg, init=st.init,
                                     on_batch=_step_clock(steps))
    return ({"val_diag_acc": rows[-1]["val_diag_acc"],
             "val_change_acc": rows[-1]["val_change_acc"]},
            _finite_rows(rows) + _round_trip(st, best))


def predict_job(st: State, seed: int, steps: list, epochs: int = 1):
    """Score the held-out split one scan at a time. A scan whose logits
    are not finite predicts '?', which matches no reference."""
    train.load_params(st.model, st.init)
    test = st.test
    priors = normalize_priors(test.age, test.gender, test.etiv, st.init.prior_stats,
                              dtype=st.model.np_dtype)
    preds = {"diag": [], "change": []}
    sums = {"diag_abs_sum": 0.0, "change_abs_sum": 0.0}
    with no_grad():
        for i in range(len(test)):
            start = clock()
            logits = st.model.dual_task_logits(test.images[i:i + 1], priors[i:i + 1])
            steps.append((clock() - start, 1))
            for key, out in zip(preds, logits):
                ok = np.all(np.isfinite(out.data))
                preds[key].append(str(int(out.data[0].argmax())) if ok else "?")
                sums[f"{key}_abs_sum"] += float(np.abs(out.data.astype(np.float64)).sum())
    return {**{key: "".join(chars) for key, chars in preds.items()}, **sums}, []


JOBS = {"pretrain": pretrain_job, "finetune": finetune_job, "predict": predict_job}


def planned_steps(workload: str, st: State, epochs: int) -> int:
    if workload == "predict":
        return len(st.test)
    return epochs * math.ceil(len(st.train) / BATCH)


def load_reference(workload: str, input_set: int) -> dict | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["sets"].get(str(input_set), {}).get(workload)


def count_failures(job: Job, st: State, reference: dict | None, first: dict | None) -> None:
    """Set ``job.failed``. A scan whose predicted class misses the
    reference or the run's first pass fails on its own; any other output
    outside its tolerance of the reference, or unequal to the first job's,
    fails the whole job."""
    if reference is None:
        job.problems.append("no reference values for this input set")
        job.failed = job.attempted
        return
    bad_scans: set[int] = set()
    for key, got in job.outputs.items():
        want = reference.get(key)
        if want is None:
            job.problems.append(f"no reference value for {key}")
        elif isinstance(got, str):
            bad_scans |= {i for i, ch in enumerate(got)
                          if ch != want[i] or (first is not None and ch != first[key][i])}
        else:
            tol = (REL_TOL[key] * abs(want) if key in REL_TOL
                   else ACC_SCANS / len(st.val) + 1e-12)
            if not abs(got - want) <= tol:
                job.problems.append(f"{key} {got!r} differs from reference {want!r} "
                                    f"by more than {tol:.3g}")
            if first is not None and got != first[key]:
                job.problems.append(f"{key} {got!r} differs from the first job's {first[key]!r}")
    job.failed = job.attempted if job.problems else len(bad_scans)
    if bad_scans:
        job.problems.append(f"{len(bad_scans)} scans predict other classes than the reference "
                            f"or the first pass (first: scan {min(bad_scans)})")


def run_job(workload: str, st: State, seed: int, epochs: int | None = None) -> Job:
    """Run one job; an exception fails all of its steps and is reported."""
    if epochs is None:
        epochs = 1 if workload == "predict" else EPOCHS
    steps: list[tuple[float, int]] = []
    attempted = planned_steps(workload, st, epochs)
    start = clock()
    try:
        outputs, problems = JOBS[workload](st, seed, steps, epochs)
    except Exception as err:  # a failed job is counted and reported, never fatal
        return Job(clock() - start, epochs, attempted, steps, {},
                   [f"{type(err).__name__}: {err}"], failed=attempted)
    return Job(clock() - start, epochs, attempted, steps, outputs, problems)


def run_jobs(workload: str, st: State, seed: int, seconds: float, min_jobs: int,
             reference: dict | None, first: dict | None, on_job=None) -> list[Job]:
    """Start jobs back to back while the next one is expected to end
    within ``seconds``; always run at least ``min_jobs``."""
    jobs: list[Job] = []
    start = clock()
    while (len(jobs) < min_jobs
           or clock() - start + statistics.median(j.seconds for j in jobs) <= seconds):
        if on_job is not None:
            on_job()
        job = run_job(workload, st, seed)
        if not job.failed:
            count_failures(job, st, reference, first)
        if first is None and not job.failed:
            first = job.outputs
        jobs.append(job)
    return jobs


def first_outputs(jobs: list[Job]) -> dict | None:
    return next((job.outputs for job in jobs if not job.failed), None)


def warm_up(workload: str, st: State, seed: int) -> None:
    """One short job on BATCH scans per split, untimed and unchecked, so
    that first-call costs stay out of the timed jobs."""
    def cut(ds):
        return dataclasses.replace(ds, **{f.name: getattr(ds, f.name)[:BATCH]
                                          for f in dataclasses.fields(ds)})

    small = dataclasses.replace(st, train=cut(st.train), val=cut(st.val), test=cut(st.test))
    job = run_job(workload, small, seed, epochs=1)
    if job.failed:
        raise RuntimeError(f"warm-up failed: {job.problems}")


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, steps beyond it): the highest percentile with
    at least TAIL_BEYOND steps beyond it, or the slowest step when there
    are too few steps for that."""
    ordered = sorted(durations)
    idx = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def step_durations(jobs: list[Job]) -> list[float]:
    return [seconds for job in jobs for seconds, _ in job.steps]


def end_to_end(jobs: list[Job], setup_seconds: list[float],
               peak_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the facts behind step_ms_tail."""
    durations = step_durations(jobs)
    samples = sum(n for job in jobs for _, n in job.steps)
    value, pct, beyond = tail(durations)
    return {
        "samples_per_s": samples / sum(durations),
        "step_ms_p50": 1e3 * statistics.median(durations),
        "step_ms_tail": 1e3 * value,
        "epoch_s": statistics.median(job.seconds / job.epochs for job in jobs),
        "setup_s": statistics.median(setup_seconds),
        "peak_mem_mb": peak_mb,
    }, {"tail_percentile": pct, "tail_steps_beyond": beyond, "timed_steps": len(durations)}


def environment(workload: str, seed: int, input_set: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "input_set": input_set, "seconds": seconds,
        "trace": int(trace), "nproc": len(os.sched_getaffinity(0)),
        "m3ad_threads": os.environ.get("M3AD_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
