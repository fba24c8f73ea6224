"""Independent parts of one call, spread over the CPUs this process may use.

THREADS is the size of the process's CPU affinity mask, so `taskset`
limits it. `ranges` cuts a call's work into contiguous parts, one per
thread, and never into more than a call on `rows` rows is worth: below
2 * MIN_ROWS rows, and with one CPU, a call is a single part and runs
inline. `spread` runs the first part on the calling thread and the others
on a pool of THREADS - 1 threads created at first use. numpy releases the
GIL inside FFTs, matmuls and ufunc loops, so the parts run at once. A part
computes exactly what the whole call would for its slice, so the result
does not depend on the thread count.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait

THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Rows below which a second thread costs more than it saves.
MIN_ROWS = 256

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_local = threading.local()


def _mark_worker() -> None:
    _local.worker = True


def _forget_pool() -> None:
    global _pool
    _pool = None  # a forked child inherits the pool object but none of its threads


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_pool)


def ranges(start: int, stop: int, rows: int | None = None) -> list[tuple[int, int]]:
    """[start, stop) as contiguous, near-equal (lo, hi) parts for a call on `rows` rows.

    rows defaults to stop - start, for a call that cuts its rows. There are
    at most THREADS parts, each worth at least MIN_ROWS rows of work, never
    more parts than items, and always at least one.
    """
    n = stop - start
    parts = max(1, min(THREADS, n, (n if rows is None else rows) // MIN_ROWS))
    cuts = [start + n * i // parts for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def spread(
    fn: Callable[[int, int], object], start: int, stop: int, rows: int | None = None
) -> list:
    """[fn(lo, hi) for each of ranges(start, stop, rows)], the first on this thread, the rest on the pool.

    Waits for every part before returning or raising, so a part's exception
    reaches the caller only after the other parts have finished; when
    several parts fail, the first in range order is raised. A call on fewer
    than 2 * MIN_ROWS rows, and a call from a pool thread, runs
    fn(start, stop) inline, so a part may itself spread without waiting on
    its own pool.
    """
    if (stop - start if rows is None else rows) < 2 * MIN_ROWS or getattr(_local, "worker", False):
        return [fn(start, stop)]
    parts = ranges(start, stop, rows)
    if len(parts) == 1:
        return [fn(start, stop)]
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(THREADS - 1, 1), thread_name_prefix="rarecast", initializer=_mark_worker
            )
    futures = [_pool.submit(fn, lo, hi) for lo, hi in parts[1:]]
    try:
        first = fn(*parts[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]
