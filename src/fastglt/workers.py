"""The engine's worker threads.

Row-separable and elementwise kernels (the sparse products of ``nn`` and
the Adam sweep of ``optim``) cut their work into contiguous parts and run
the parts at once through :func:`run`. Each part writes its own slice of
an output the caller allocated, so the result does not depend on how many
parts there are. A part overlaps the others only while it runs native code
that releases the interpreter lock, as scipy's sparsetools kernels and
numpy's ufuncs do.

The worker count is the GLT_THREADS cap when it is set, else the usable
cores. The calling thread runs the first part itself, so one part starts
no thread. The pool is made on first use, not on import, and lives for the
process; a forked child makes its own.

The same cap sizes the BLAS and OpenMP pools through
:func:`export_thread_env`, which ``import fastglt`` calls before any
numerical import; so this module imports nothing numerical.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_pid = -1


def threads_setting() -> int | None:
    """The GLT_THREADS thread cap, or None when it is unset. Anything but a
    positive integer is rejected with an error that names the variable."""
    val = os.environ.get("GLT_THREADS")
    if val and (not val.strip().isdecimal() or int(val) < 1):
        raise ValueError(f"GLT_THREADS must be a positive integer, "
                         f"got {val!r}")
    return int(val) if val else None


def export_thread_env() -> None:
    """Set the thread variables that the numerical libraries read once,
    when numpy loads; a value the user has set is kept.

    After a BLAS call the idle OpenBLAS worker busy-waits for 2^28 cycles
    (about 128 ms at 2.1 GHz) on a core that the engine's workers could
    use; OPENBLAS_THREAD_TIMEOUT=4 (2^4 cycles) parks it at once and
    changes no bit. A valid GLT_THREADS caps the BLAS and OpenMP pools; an
    invalid one exports no cap here and is refused where it is read.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    try:
        cap = threads_setting()
    except ValueError:
        return
    if cap is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, str(cap))


def count() -> int:
    """Parts a kernel may split into: GLT_THREADS, else the usable cores."""
    return threads_setting() or len(os.sched_getaffinity(0))


def _executor() -> ThreadPoolExecutor:
    global _pool, _pool_pid
    with _lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(max(count() - 1, 1),
                                       thread_name_prefix="fastglt")
            _pool_pid = os.getpid()
        return _pool


def run(task, parts) -> None:
    """Call ``task(*part)`` for every part at once and return when all
    have finished; the first part runs on the calling thread. An error in
    any part is raised once every part has stopped."""
    if not parts:
        return
    futures = [_executor().submit(task, *part) for part in parts[1:]]
    try:
        task(*parts[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()
