"""The shared worker pool behind the parallel factored contraction.

NumPy releases the GIL inside its BLAS and gather/elementwise kernels, so a
plain *thread* pool yields real multi-core speedups for the contraction's
matmul-and-gather dominated tiles while keeping the count tensor shared and
zero-copy (a process pool would have to ship it).  One module-level pool is
shared by every submitter in the process - concurrent audits, publishers and
serve workers draw from the same threads instead of each spawning their own.
There are two submitters: the factored backend (contraction tiles and block
joints) and the skyline audit engine (one independent posterior pass per
adversary, :class:`~repro.audit.engine.SkylineAuditEngine`).

``jobs`` resolution (the one definition every consumer goes through):

* an explicit positive integer is used as-is (``jobs=1`` selects the exact
  serial code path - no pool, no task objects - and is the bit-identical
  equivalence reference);
* ``None`` means *auto*: the ``REPRO_JOBS`` environment variable when set
  (how CI and the nightly workflow pin thread counts), otherwise
  ``os.cpu_count()``.

Tasks are only ever submitted from outside the pool, so a bounded pool
cannot deadlock on itself: the backend never nests pool work inside pool
work, and the audit engine estimates every prior (``prepare()``, which is
where the backend's pool work happens) *before* it dispatches its
per-adversary tasks, so no adversary task ever submits to the pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

from repro.exceptions import KnowledgeError

#: Environment variable supplying the default worker count (CI/nightly pin it).
JOBS_ENV = "REPRO_JOBS"

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _reset_after_fork() -> None:
    """Forget the parent's pool in a forked child.

    ``fork`` copies the executor object but none of its worker threads, so a
    child that reused it (e.g. a caller's fork worker fitting a prior at
    ``jobs > 1``) would wait on its futures forever.  The lock is
    replaced too: a fork taken while another thread held it would leave the
    child's copy locked for good.
    """
    global _lock, _pool, _pool_size
    _lock = threading.Lock()
    _pool = None
    _pool_size = 0


os.register_at_fork(after_in_child=_reset_after_fork)


def parse_jobs(value: object) -> int:
    """Validate a jobs count: a positive integer (no floats, no zero).

    Raises
    ------
    KnowledgeError
        If ``value`` is not a positive integer.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            number = int(str(value))
        except (TypeError, ValueError):
            raise KnowledgeError(
                f"jobs must be a positive integer, got {value!r}"
            ) from None
    else:
        number = value
    if number < 1:
        raise KnowledgeError(f"jobs must be a positive integer, got {value!r}")
    return number


def default_jobs() -> int:
    """The auto worker count: ``REPRO_JOBS`` when set, else ``os.cpu_count()``."""
    env = os.environ.get(JOBS_ENV)
    if env is not None and env.strip():
        return parse_jobs(env.strip())
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Resolve a ``jobs`` knob to a concrete positive worker count."""
    if jobs is None:
        return default_jobs()
    return parse_jobs(jobs)


def shared_pool(jobs: int) -> ThreadPoolExecutor:
    """The process-wide worker pool, grown to at least ``jobs`` workers.

    The pool only ever grows (to the largest count any backend asked for);
    its threads are daemonic workers that idle for free, so shrinking is
    never worth the churn.
    """
    global _pool, _pool_size
    with _lock:
        if _pool is None or _pool_size < jobs:
            previous = _pool
            _pool = ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="repro-contract"
            )
            _pool_size = jobs
            if previous is not None:
                previous.shutdown(wait=False)
        return _pool


def run_tasks(tasks: Sequence[Callable[[], object]], jobs: int) -> list[object]:
    """Run independent thunks, in order; serial when ``jobs`` (or tasks) is 1.

    The serial branch calls each thunk inline - exactly the pre-pool loop -
    so ``jobs=1`` keeps the bit-identical reference path.  The parallel
    branch hands the shared pool at most ``2 * jobs`` tasks - consecutive
    thunks share a task and run in order, so a contraction cut into
    thousands of small tiles does not flood the pool - waits for every task
    to settle and gathers results in submission order; the first raised
    exception (in submission order) then propagates, so no sibling is still
    running when the caller sees it.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    pool = shared_pool(jobs)
    count = min(len(tasks), 2 * jobs)
    bounds = [len(tasks) * index // count for index in range(count + 1)]

    def batch(start: int, stop: int) -> list[object]:
        return [task() for task in tasks[start:stop]]

    futures = [pool.submit(batch, start, stop) for start, stop in zip(bounds, bounds[1:])]
    wait(futures)
    return [result for future in futures for result in future.result()]


__all__ = [
    "JOBS_ENV",
    "default_jobs",
    "parse_jobs",
    "resolve_jobs",
    "run_tasks",
    "shared_pool",
]
