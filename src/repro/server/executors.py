"""Pluggable request executors: who runs a request's trial chunks, and how.

The batch service historically made the transport decision per call —
``backend="process"`` spun up a fresh ``spawn``-method pool, ran one
request's chunks, and tore it down.  For one-shot batch calls that is
fine; for a long-running request server it is the dominant cost (pool
spawn imports numpy/scipy in every worker, ~seconds per request).  A
*request executor* inverts the ownership: the executor owns a dispatch
transport with an explicit lifecycle, and :func:`repro.api.simulate` /
:func:`repro.api.evaluate_grid` accept one via ``executor=`` instead of
constructing pools themselves.

Two executors ship:

* :class:`SerialExecutor` — everything in the calling process.  Zero
  startup, zero IPC; the right choice for small requests and tests.
* :class:`WarmPoolExecutor` — one long-lived
  :class:`~concurrent.futures.ProcessPoolExecutor` (built by
  :func:`repro.api.service.worker_pool`, so workers get the process
  solve cache installed) reused across every request.  Workers stay
  *warm*: their :class:`~repro.core.phased.ProcessSolveCache` retains
  LP round schedules and chain plans across requests, so repeated or
  related requests skip straight past the solve pipeline.

Both are context managers; :func:`default_executor` holds a module-level
default (serial unless replaced) for callers that want executor-style
injection without managing a lifecycle.

The api layer duck-types executors (``backend`` / ``n_workers`` /
``acquire()``), so third-party executors — e.g. a future remote
dispatcher — plug in without touching this module.
"""

from __future__ import annotations

import threading
from concurrent.futures.process import BrokenProcessPool

from repro.api.service import WORKER_SOLVE_CACHE_ENTRIES, worker_pool
from repro.core.phased import solve_cache_stats

__all__ = [
    "RequestExecutor",
    "SerialExecutor",
    "WarmPoolExecutor",
    "default_executor",
    "set_default_executor",
    "make_executor",
    "EXECUTOR_KINDS",
]

#: Executor kinds constructible by name (CLI ``--executor`` choices).
EXECUTOR_KINDS: tuple[str, ...] = ("serial", "warm-pool")


class RequestExecutor:
    """Base request executor: the dispatch-transport contract.

    Attributes
    ----------
    backend:
        Which service dispatch path requests take (``"serial"`` or
        ``"process"``).
    n_workers:
        Pool width for process executors (``None`` = CPU count).
    """

    kind = "base"
    backend = "serial"
    n_workers: int | None = None

    def acquire(self):
        """The chunk pool requests should dispatch on (``None`` = in-process).

        Called once per request by the service layer; long-lived
        executors return the same pool every time.
        """
        return None

    def close(self) -> None:
        """Release owned resources; the executor is reusable after close
        (the next :meth:`acquire` rebuilds them)."""

    def stats(self) -> dict:
        """JSON-ready execution counters (surfaced by ``/healthz``)."""
        return {"kind": self.kind, "backend": self.backend}

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

    def __init__(self):
        self.requests = 0

    def acquire(self):
        self.requests += 1
        return None

    def stats(self) -> dict:
        stats = super().stats()
        stats["requests"] = self.requests
        # In-process execution warms this process's own solve cache.
        stats["solve_cache"] = solve_cache_stats()
        return stats


class WarmPoolExecutor(RequestExecutor):
    """A long-lived worker pool with solve-cache-warm workers.

    The pool is built lazily on first :meth:`acquire` (or eagerly via
    :meth:`prewarm`) and then reused by every subsequent request — the
    per-request pool-spawn cost of the historical
    ``backend="process"`` path is paid once per executor lifetime.
    Workers install the process solve cache through the pool
    initializer, so LP round schedules / chain plans computed for one
    request are hits for the next.

    A worker that dies (an OOM kill, a crash) breaks the whole
    ``ProcessPoolExecutor``.  The next :meth:`acquire` replaces a pool that
    has flagged itself broken with a fresh one and counts it in
    ``restarts``; the broken pool is shut down without waiting.  A request
    whose chunks were in flight when the worker died still fails (its
    result is lost with the worker); requests after it succeed.

    Thread-safe: the request server handles requests on a thread pool,
    and ``ProcessPoolExecutor`` submissions are themselves thread-safe,
    so many in-flight requests can share the one pool.

    Parameters
    ----------
    n_workers:
        Pool width (``None`` = CPU count).
    solve_cache_entries:
        Capacity installed into each worker's process solve cache.

    Each request's resolved ``kernel_threads`` reaches the workers with
    its trial chunks, so one pool serves requests with any thread count.
    """

    kind = "warm-pool"
    backend = "process"

    def __init__(self, n_workers: int | None = None,
                 solve_cache_entries: int = WORKER_SOLVE_CACHE_ENTRIES):
        self.n_workers = n_workers
        self.solve_cache_entries = int(solve_cache_entries)
        self.requests = 0
        self.pools_built = 0
        self.restarts = 0
        self._pool = None
        self._lock = threading.Lock()

    def acquire(self):
        self.requests += 1
        return self._ensure_pool()

    def prewarm(self) -> None:
        """Build the pool and force every worker process to start now.

        A no-op when already warm.  Servers call this before accepting
        traffic so the first request does not absorb the spawn cost.
        """
        pool = self._ensure_pool()
        # A map wider than the pool guarantees every worker has started
        # (and run the solve-cache initializer) before this returns.
        n = pool._max_workers
        list(pool.map(_noop, range(2 * n)))

    def _ensure_pool(self):
        broken = None
        with self._lock:
            if self._pool is not None and _is_broken(self._pool):
                broken, self._pool = self._pool, None
                self.restarts += 1
            if self._pool is None:
                self._pool = worker_pool(
                    self.n_workers,
                    solve_cache_entries=self.solve_cache_entries,
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
            requests=self.requests,
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


_default_lock = threading.Lock()
_default: RequestExecutor | None = None


def default_executor() -> RequestExecutor:
    """The module-level default executor (a :class:`SerialExecutor`
    created on first use, unless replaced)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = SerialExecutor()
        return _default


def set_default_executor(executor: RequestExecutor | None) -> RequestExecutor | None:
    """Replace the module default; returns the previous one (not closed —
    the caller owns both lifecycles).  ``None`` resets to lazy-serial."""
    global _default
    with _default_lock:
        previous, _default = _default, executor
    return previous


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
