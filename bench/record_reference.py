"""Record the outputs that the benchmark's checks compare against.

Run from the repository root:

    python3 bench/record_reference.py

For every input set it runs one job of each workload and writes
``bench/reference.json``. Record again only when the workloads change
(sizes, epochs, learning rate, model); a change to the program is
checked against the recorded values, never re-recorded to fit them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import HERE, WORKLOADS, _cap_threads

ENV_KEYS = ("blas", "m3ad_threads", "nproc", "numpy", "python", "scipy")


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    _cap_threads(src)
    sys.path.insert(0, src)
    import workloads as wl

    sets = {}
    base = os.path.join(root, ".bench_run")
    os.makedirs(base, exist_ok=True)
    for input_set in range(wl.INPUT_SETS):
        workdir = tempfile.mkdtemp(prefix=f"reference-{input_set}-", dir=base)
        try:
            st = wl.setup(workdir, input_set)
            sets[str(input_set)] = {}
            for workload in WORKLOADS:
                job = wl.run_job(workload, st, input_set)
                if job.problems:
                    print(f"input set {input_set} {workload}: {job.problems}", file=sys.stderr)
                    return 1
                sets[str(input_set)][workload] = job.outputs
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"input set {input_set}: {sets[str(input_set)]}", flush=True)

    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        env = wl.environment("all", 0, 0, 0, False)
        recorded_with = {key: env[key] for key in ENV_KEYS}
        json.dump({"recorded_with": recorded_with, "sets": sets}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
