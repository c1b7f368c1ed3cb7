"""Process entry point.

Process-wide settings are made here once, before numpy's first import:
BLAS backends read their thread variables only once, and the C
allocator's settings should hold before the first large array and the
engine's first pool thread. Nothing numeric may be imported at this
module's top level.
"""

from __future__ import annotations

import os
import sys

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# glibc's mallopt(3) settings, as (parameter, value). By default glibc
# hands a freed multi-megabyte array back to the kernel, and the next
# training step faults the same pages in again. Chosen on the bench's
# training jobs and on models two and three times its width:
# - M_TRIM_THRESHOLD (-1), 1 GiB: more than a step frees. 64 MiB served the
#   bench but not the widest model (29k faults per step against 42 at
#   1 GiB, at the same peak RSS): kept memory is reused, not added.
# - M_MMAP_THRESHOLD (-3), 32 MiB: glibc's own ceiling for it on 64-bit;
#   arrays up to that size come from the heap. 1 GiB faulted in no fewer
#   pages.
# - M_ARENA_MAX (-8), 1: NumPy allocates arrays under the GIL, so more
#   arenas add no concurrency; each would keep its own high-water mark, and
#   with one per thread the fine-tune peak RSS rose by 3-8% instead of
#   falling by 2%.
_MALLOPT = ((-1, 1 << 30), (-3, 32 << 20), (-8, 1))
_MALLOC_VARS = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_ARENA_MAX")


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


def _keep_freed_memory() -> None:
    """Apply ``_MALLOPT``, so that the pages one training step frees,
    the engine's pool threads included, serve the next step. Nothing is
    done off glibc, or when the user set one of ``_MALLOC_VARS`` or a
    ``glibc.malloc`` tunable: the user's allocator settings win."""
    if (any(var in os.environ for var in _MALLOC_VARS)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not libc or not libc.startswith("glibc"):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    for param, value in _MALLOPT:
        mallopt(param, value)


def cap_threads() -> None:
    """Pin the BLAS/OpenMP pools at one thread, check M3AD_THREADS and
    keep freed memory in the process.

    The engine owns the cores: ``m3ad.numerics`` spreads independent work
    over its own pool of M3AD_THREADS workers (default: the CPUs the
    process may use), and each worker's BLAS calls run single-threaded.
    Explicitly set backend variables still win over the pin, but a
    multi-threaded BLAS under the pool oversubscribes the cores. On glibc
    the allocator's trim and mmap thresholds are raised and its arenas
    capped at one, so that each training step reuses the pages the last
    one freed (see ``_keep_freed_memory``). It imports ctypes, never
    numpy.
    """
    try:
        thread_count()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(1) from None
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")
    _keep_freed_memory()


def run() -> int:
    cap_threads()
    from .cli import main

    return main()
