"""Request executors: who runs a call's trial chunks, and how.

An executor owns a dispatch transport with an explicit lifecycle.
:func:`repro.api.simulate` / :func:`repro.api.evaluate_grid` accept one
via ``executor=``; a ``backend="process"`` call without one opens a
:class:`WarmPoolExecutor` for that call (or sweep) and closes it on exit.
The request server and the suite runner's ``--jobs N`` keep one alive
across many calls instead, so pool spawn (numpy/scipy imports in every
worker, ~seconds) is paid once per executor lifetime.

Two executors ship:

* :class:`SerialExecutor` — everything in the calling process.  Zero
  startup, zero IPC; the right choice for small requests and tests.
* :class:`WarmPoolExecutor` — one long-lived
  :class:`~concurrent.futures.ProcessPoolExecutor` reused across every
  call, and the only place in the package that builds a worker pool.
  Workers stay *warm*: their :class:`~repro.core.phased.ProcessSolveCache`
  retains LP round schedules and chain plans across calls, so repeated or
  related requests skip straight past the solve pipeline.  A pool a dead
  worker broke is replaced on next use, and a call whose chunks were in
  flight re-runs them once on the replacement
  (:func:`repro.api.service._run_batched`).

Both are context managers; :func:`make_executor` builds one by name.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

from repro.core.phased import install_solve_cache, solve_cache_stats

__all__ = [
    "RequestExecutor",
    "SerialExecutor",
    "WarmPoolExecutor",
    "make_executor",
    "EXECUTOR_KINDS",
]

#: Executor kinds constructible by name (CLI ``--executor`` choices).
EXECUTOR_KINDS: tuple[str, ...] = ("serial", "warm-pool")

#: Solve-cache capacity installed into pool workers.  A worker serves
#: many chunks and grid cells over its lifetime, so it gets a larger
#: cache than the in-process default (the pool initializer is what makes
#: the setting land in ``spawn``-ed processes).
WORKER_SOLVE_CACHE_ENTRIES = 4096

#: Start method for worker pools.  ``spawn`` is used everywhere (not just
#: where it is the OS default) so results and failure modes are identical
#: across platforms and workers never inherit forked interpreter state.
_MP_START_METHOD = "spawn"


class RequestExecutor:
    """Base request executor: the dispatch-transport contract.

    Attributes
    ----------
    backend:
        Which service dispatch path requests take (``"serial"`` or
        ``"process"``).
    n_workers:
        Pool width for process executors (``None`` = CPU count).
    requests:
        Calls served: one per :func:`~repro.api.service.simulate` or
        :func:`~repro.api.service.evaluate_grid` call, however many
        cells a sweep has.
    """

    kind = "base"
    backend = "serial"
    n_workers: int | None = None

    def __init__(self):
        self.requests = 0

    def acquire(self):
        """Count one call and return the chunk pool it dispatches on
        (``None`` = in-process)."""
        self.requests += 1
        return self.pool()

    def pool(self):
        """The chunk pool, without counting a call (``None`` =
        in-process); long-lived executors return the same pool every
        time."""
        return None

    def close(self) -> None:
        """Release owned resources; the executor is reusable after close
        (the next :meth:`pool` rebuilds them)."""

    def stats(self) -> dict:
        """JSON-ready execution counters (surfaced by ``/healthz``)."""
        return {"kind": self.kind, "backend": self.backend, "requests": self.requests}

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(RequestExecutor):
    """Run every request in the calling process (no pool, no IPC)."""

    kind = "serial"
    backend = "serial"

    def stats(self) -> dict:
        stats = super().stats()
        # In-process execution warms this process's own solve cache.
        stats["solve_cache"] = solve_cache_stats()
        return stats


class WarmPoolExecutor(RequestExecutor):
    """A long-lived worker pool with solve-cache-warm workers.

    The pool is built lazily on first :meth:`pool` / :meth:`acquire` (or
    eagerly via :meth:`prewarm`) and then reused by every later call.
    Workers use the ``spawn`` start method and install the process solve
    cache through the pool initializer, so LP round schedules / chain
    plans computed for one call are hits for the next.

    A worker that dies (an OOM kill, a crash) breaks the whole
    ``ProcessPoolExecutor``.  The next :meth:`pool` replaces a pool that
    has flagged itself broken with a fresh one and counts it in
    ``restarts``; the broken pool is shut down without waiting.

    Thread-safe: the request server handles requests on a thread pool,
    and ``ProcessPoolExecutor`` submissions are themselves thread-safe,
    so many in-flight requests can share the one pool.

    Parameters
    ----------
    n_workers:
        Pool width (``None`` = CPU count).
    solve_cache_entries:
        Capacity installed into each worker's process solve cache.

    Workers inherit the host's ``REPRO_KERNEL_THREADS`` when the pool
    spawns them, and each chunk reads it there; a request carries only
    its resolved discipline.
    """

    kind = "warm-pool"
    backend = "process"

    def __init__(self, n_workers: int | None = None,
                 solve_cache_entries: int = WORKER_SOLVE_CACHE_ENTRIES):
        super().__init__()
        self.n_workers = n_workers
        self.solve_cache_entries = int(solve_cache_entries)
        self.pools_built = 0
        self.restarts = 0
        self._pool = None
        self._lock = threading.Lock()

    def prewarm(self) -> None:
        """Build the pool (replacing a broken one) and force every worker
        process to start now.

        Servers call this before accepting traffic so the first request
        does not absorb the spawn cost.
        """
        pool = self.pool()
        # A map wider than the pool guarantees every worker has started
        # (and run the solve-cache initializer) before this returns.
        n = pool._max_workers
        list(pool.map(_noop, range(2 * n)))

    def pool(self):
        broken = None
        with self._lock:
            if self._pool is not None and _is_broken(self._pool):
                broken, self._pool = self._pool, None
                self.restarts += 1
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=get_context(_MP_START_METHOD),
                    initializer=install_solve_cache,
                    initargs=(self.solve_cache_entries,),
                )
                self.pools_built += 1
            pool = self._pool
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        return pool

    @property
    def warm(self) -> bool:
        """Whether a live pool exists right now (a broken one is not)."""
        pool = self._pool
        return pool is not None and not _is_broken(pool)

    def cache_stats(self) -> dict | None:
        """One warm worker's solve-cache counters (``None`` when cold or
        broken).

        Sampled with a single task, so with ``n_workers > 1`` it reads
        *a* worker, not an aggregate — exact for single-worker pools
        (how the tests observe cross-request reuse), indicative
        otherwise.
        """
        with self._lock:
            pool = self._pool
        if pool is None or _is_broken(pool):
            return None
        try:
            return pool.submit(solve_cache_stats).result()
        except BrokenProcessPool:  # a worker died since the check above
            return None

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def stats(self) -> dict:
        stats = super().stats()
        stats.update(
            pools_built=self.pools_built,
            restarts=self.restarts,
            warm=self.warm,
            n_workers=self.n_workers,
        )
        worker_cache = self.cache_stats()
        if worker_cache is not None:
            stats["worker_solve_cache"] = worker_cache
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "warm" if self.warm else "cold"
        return f"WarmPoolExecutor(n_workers={self.n_workers}, {state})"


def _is_broken(pool) -> bool:
    """Whether a ``ProcessPoolExecutor`` has flagged itself broken (a
    worker died); a broken pool refuses every later submission."""
    return bool(getattr(pool, "_broken", False))


def _noop(_i):
    """Picklable worker warm-up task (module-level for ``spawn``)."""
    return None


def make_executor(kind: str, n_workers: int | None = None,
                  solve_cache_entries: int = WORKER_SOLVE_CACHE_ENTRIES) -> RequestExecutor:
    """Construct an executor by registry name (CLI entry point).

    ``kind`` is one of :data:`EXECUTOR_KINDS`.
    """
    if kind == "serial":
        return SerialExecutor()
    if kind == "warm-pool":
        return WarmPoolExecutor(n_workers, solve_cache_entries=solve_cache_entries)
    raise ValueError(f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}")
