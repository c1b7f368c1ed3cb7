"""Benchmark of the m3ad package: pretrain, finetune and batch-1 predict.

Run from the repository root, which must hold ``src/m3ad``:

    python3 bench/run.py --workload pretrain --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run times the workload untraced and reports the
end-to-end metrics. With ``--trace 1`` it alternates untraced jobs with
jobs run under span wrappers (see ``tracing.py``), at least two of each,
and reports the per-layer metrics of the traced jobs and the tracing
overhead; the spans go to ``.bench_run/trace-<workload>-seed<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, the environment and any failure.
The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pretrain", "finetune", "predict")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _cap_threads(src: str) -> None:
    """Cap BLAS threads at the CPUs this process may use, through
    ``m3ad.entry.cap_threads``, before numpy is first imported. The
    entry module is loaded by path because importing the ``m3ad``
    package imports numpy."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread cap")
    os.environ.setdefault("M3AD_THREADS", str(len(os.sched_getaffinity(0))))
    spec = importlib.util.spec_from_file_location("_m3ad_entry",
                                                  os.path.join(src, "m3ad", "entry.py"))
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    entry.cap_threads()


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")


def _untraced(wl, workload, input_set, seconds, reference, rundir):
    setup_seconds = []

    def timed_setup():
        start = time.perf_counter()
        st = wl.setup(os.path.join(rundir, f"setup{len(setup_seconds)}"), input_set)
        setup_seconds.append(time.perf_counter() - start)
        return st

    def spare_setup():
        # set-ups spread between the first jobs meet the host load the
        # jobs meet, so their median moves with the run's, not a moment's
        if len(setup_seconds) < wl.SETUPS:
            shutil.rmtree(timed_setup().workdir)

    st = timed_setup()
    wl.warm_up(workload, st, input_set)
    jobs = wl.run_jobs(workload, st, input_set, seconds, 1, reference, None,
                       on_job=spare_setup)
    while len(setup_seconds) < wl.SETUPS:
        spare_setup()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, tail = wl.end_to_end(jobs, setup_seconds, peak_mb)
    print(f"jobs {len(jobs)}; step_ms_tail is percentile {tail['tail_percentile']:.2f} "
          f"of {tail['timed_steps']} timed steps, {tail['tail_steps_beyond']} beyond it")
    units = {"samples_per_s": "1/s", "step_ms_p50": "ms", "step_ms_tail": "ms",
             "epoch_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}
    return jobs, metrics, units


def _traced(wl, workload, input_set, seconds, reference, rundir, spans):
    import statistics

    from tracing import UNITS, Analysis, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        st = wl.setup(rundir, input_set)
    finally:
        tracer.uninstall()
    wl.warm_up(workload, st, input_set)
    # untraced and traced jobs alternate, so that both meet the same
    # host load and their ratio measures the tracing overhead
    base, traced = [], []
    start = time.perf_counter()

    def next_pair_fits() -> bool:
        spent = time.perf_counter() - start
        return spent + spent / len(traced) <= seconds

    while len(traced) < 2 or next_pair_fits():
        base += wl.run_jobs(workload, st, input_set, 0, 1, reference, wl.first_outputs(base))
        tracer.install()
        try:
            traced += wl.run_jobs(workload, st, input_set, 0, 1, reference,
                                  wl.first_outputs(base), on_job=tracer.mark_job)
        finally:
            tracer.uninstall()
    tracer.write(spans)

    analysis = Analysis(tracer, steps=sum(job.attempted for job in traced))
    metrics = analysis.metrics()
    counts = analysis.job_counts()
    for k, job in enumerate(traced):
        if counts[k] != counts[0] and not job.failed:
            job.problems.append(f"traced job {k} counts {counts[k]} differ from "
                                f"job 0's {counts[0]}")
            job.failed = job.attempted
    untraced_p50 = statistics.median(wl.step_durations(base))
    traced_p50 = statistics.median(wl.step_durations(traced))
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)

    print(f"traced jobs {len(traced)}; exact counts per job: {counts[0]}")
    print(f"spans {len(tracer.start)} written to {os.path.relpath(spans)}")
    if analysis.missing:
        print(f"not traced (callable missing): {', '.join(analysis.missing)}")
    forward = metrics["numerics.forward.ms"]
    if forward:
        shares = {m: 100.0 * metrics[m] / forward for m in
                  ("moe.ms", "backbone.attention.ms", "tokmlp.mixer.ms")}
        print("share of forward: " + ", ".join(f"{m} {v:.1f}%" for m, v in shares.items()))
    top = sorted(analysis.self_ms().items(), key=lambda kv: -kv[1])[:12]
    print("self ms per step: " + ", ".join(f"{name} {ms:.2f}" for name, ms in top))
    return base + traced, metrics, UNITS


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "m3ad", "__init__.py")):
        print(f"error: no src/m3ad under {root}; run from the repository root", file=sys.stderr)
        return 2
    _cap_threads(src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads as wl

    input_set = args.seed % wl.INPUT_SETS
    env = wl.environment(args.workload, args.seed, input_set, args.seconds, bool(args.trace))
    print("environment " + json.dumps(env, sort_keys=True))
    reference = wl.load_reference(args.workload, input_set)
    base = os.path.join(root, ".bench_run")
    os.makedirs(base, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base)
    try:
        if args.trace:
            spans = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.npz")
            jobs, metrics, units = _traced(wl, args.workload, input_set, args.seconds,
                                           reference, rundir, spans)
        else:
            jobs, metrics, units = _untraced(wl, args.workload, input_set, args.seconds,
                                             reference, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    for job in jobs:
        for problem in job.problems:
            print(f"failure: {problem}")
    _print_metrics(metrics, units)
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} steps failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
