"""Process entry point.

Thread capping has to happen before numpy's first import, because BLAS
backends read their environment only once. Nothing numeric may be
imported at this module's top level.
"""

from __future__ import annotations

import os
import sys

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def thread_count() -> int:
    """The engine's worker count: M3AD_THREADS, or the CPUs the process
    may use when it is unset. Raises ValueError for any other value than
    a positive integer."""
    n = os.environ.get("M3AD_THREADS")
    if not n:
        return len(os.sched_getaffinity(0))
    if not (n.isascii() and n.isdigit()) or int(n) < 1:
        raise ValueError(f"M3AD_THREADS must be a positive integer, got {n!r}")
    return int(n)


def cap_threads() -> None:
    """Pin the BLAS/OpenMP pools at one thread and check M3AD_THREADS.

    The engine owns the cores: ``m3ad.numerics`` spreads independent work
    over its own pool of M3AD_THREADS workers (default: the CPUs the
    process may use), and each worker's BLAS calls run single-threaded.
    Explicitly set backend variables still win over the pin, but a
    multi-threaded BLAS under the pool oversubscribes the cores.
    """
    try:
        thread_count()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(1) from None
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")


def run() -> int:
    cap_threads()
    from .cli import main

    return main()
