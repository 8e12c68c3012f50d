"""Shared phase bookkeeping for grouped batch dispatch of adaptive policies.

The LP-round family (``sem``, ``adapt``, ``layered``, and SUU-C's segment
runs) shares one execution skeleton: solve ``LP1(remaining, target)``,
round it, lay the result out as a :class:`~repro.schedule.oblivious.
FiniteObliviousSchedule`, and walk that schedule row by row until it is
exhausted or the covered jobs complete.  Under grouped dispatch
(:class:`~repro.schedule.base.PhasedPolicy`) that skeleton splits into two
shareable pieces:

* :class:`RoundScheduleCache` — the *expensive* piece, shared across all
  lock-stepped trials of one batch.  Round schedules are memoized by
  ``(target, remaining-set)``; the LP solve / rounding / layout pipeline
  (:func:`round_schedule`) is deterministic (no RNG anywhere in it), so
  every trial entering a round with the same survivor set replays one
  solve.  Each distinct schedule gets a small-integer id, which is what
  phase keys embed: two trials with the same ``(schedule id, step)`` are
  provably about to receive the same assignment row.
* :class:`SemCursor` — the *cheap* per-trial piece: a faithful replica of
  :class:`~repro.core.suu_i_sem.SUUISemPolicy`'s control state (mode,
  round index, schedule id, step cursor).  :func:`sem_phase_key` advances
  a cursor through exactly the scalar policy's control flow (doubling
  rounds, the serial and repeat-last fallbacks) and returns the trial's
  phase key; :func:`sem_row_for_key` maps a key to its assignment row;
  :func:`sem_advance` bumps the step cursor after the row executes.

It is the batch side's only copy of SEM's round logic: grouped ``sem`` and
``layered`` run it, and so does every SUU-C / SUU-T segment run of
:class:`~repro.core.chain_batch.ChainCursorBatch` (``inner="obl"`` and
``"repeat"`` start it in ``repeat`` mode).  The scalar policy stays the
reference the cross-check tests compare it against.

Bit-identity rests on the determinism of the solve pipeline: a memoized
schedule is byte-for-byte the schedule a fresh solve would build for the
same (target, survivor set), so cursor-driven trials reproduce the scalar
assignment sequence exactly.  The scalar policies build their schedules
through the same :func:`round_schedule`, so scalar and batch runs in one
process share its process-wide entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.lp1 import solve_lp1
from repro.core.rounding import round_assignment
from repro.lp.stats import LP_STATS
from repro.schedule.oblivious import FiniteObliviousSchedule

__all__ = [
    "ProcessSolveCache",
    "shared_solve_cache",
    "install_solve_cache",
    "clear_solve_cache",
    "solve_cache_stats",
    "round_schedule",
    "RoundScheduleCache",
    "SemCursor",
    "sem_phase_key",
    "sem_row_for_key",
    "sem_advance",
]

#: Phase key of a trial whose covered jobs have all completed (idle row).
IDLE_KEY = ("idle",)

class ProcessSolveCache:
    """Process-wide memo for deterministic solve pipelines.

    Three kinds of entry live here, each a deterministic function of
    ``(instance, configuration)``:

    * ``"lp1-round"`` — rounded LP1 schedules (:func:`round_schedule`),
      built by SEM rounds, adaptive re-solves, SUU-I-OBL's schedule and
      every :class:`RoundScheduleCache`, scalar and batch alike;
    * ``"chain-plan"`` — SUU-C/SUU-T chain plans (LP2 and its rounding);
    * ``"lower-bound"`` — the lower bound every ``simulate()`` report
      carries.

    The cache outlives batches: entries are keyed by ``(kind, instance
    digest, *configuration)``, so the trials of a batch, the per-trial
    policies of a v1 chain run, a grid sweep's cells, all chunks a worker
    handles and repeat server requests share one solve per distinct key.

    Sharing never changes results: the pipelines behind every entry are
    RNG-free, so a cached value is byte-for-byte what a fresh solve would
    produce — v1 bit-identity is preserved.  Two eviction axes keep
    long-lived workers (grid sweeps, the request server's warm pools)
    from growing unboundedly:

    * **LRU entry eviction** — a lookup refreshes its entry, so the
      ``max_entries`` bound drops the least-recently-*used* schedule, not
      merely the oldest-inserted one (round-1 LPs shared by every batch
      stay resident no matter how many one-off survivor sets stream by).
    * **Per-instance-digest scoping** — every key carries its instance
      digest at position 1; the cache groups entries by digest and, past
      ``max_instances`` distinct instances, drops the least-recently-used
      instance's entries wholesale.  A server that has answered requests
      for thousands of distinct instances keeps only the recent working
      set, and :meth:`evict_instance` lets callers drop one instance
      eagerly.

    The cache is per *process*.  Worker pools install (size) it through
    their initializer (:func:`install_solve_cache`); in-process use hits
    the module-level instance directly.  ``REPRO_SOLVE_CACHE=0`` disables
    it entirely: every lookup then computes afresh, so scalar and batch
    runs each build their own schedules.
    """

    def __init__(self, max_entries: int = 512, max_instances: int = 32):
        self.max_entries = int(max_entries)
        self.max_instances = int(max_instances)
        self._entries: OrderedDict = OrderedDict()
        #: digest -> set of live keys, LRU-ordered by last touch.
        self._digests: OrderedDict = OrderedDict()
        #: Guards the dict/LRU bookkeeping: the request server's handler
        #: threads hit this process-wide cache concurrently.  Misses
        #: compute *outside* the lock — a rare duplicated solve is benign
        #: (the pipelines are deterministic), serializing every thread on
        #: one LP solve is not.
        self._mu = threading.RLock()
        self.solves = 0  # misses that ran a real solve pipeline
        self.hits = 0

    @property
    def enabled(self) -> bool:
        """False when disabled via ``REPRO_SOLVE_CACHE=0`` or size 0."""
        from repro.api.config import solve_cache_enabled

        return self.max_entries > 0 and solve_cache_enabled()

    @staticmethod
    def _digest_of(key):
        # Every caller keys entries as (kind, instance digest, *config).
        return key[1] if isinstance(key, tuple) and len(key) > 1 else None

    def _touch(self, key) -> None:
        """Refresh LRU position of ``key`` and of its instance digest."""
        self._entries.move_to_end(key)
        digest = self._digest_of(key)
        if digest in self._digests:
            self._digests.move_to_end(digest)

    def _forget(self, key) -> None:
        """Remove ``key``'s digest bookkeeping (entry already popped)."""
        digest = self._digest_of(key)
        keys = self._digests.get(digest)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._digests[digest]

    def lookup(self, key, compute):
        """``compute()`` memoized under ``key`` (straight call if disabled)."""
        if not self.enabled:
            self.solves += 1
            return compute()
        with self._mu:
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                self._touch(key)
                return value
        value = compute()
        with self._mu:
            self.solves += 1
            self._entries[key] = value
            digest = self._digest_of(key)
            if digest is not None:
                self._digests.setdefault(digest, set()).add(key)
                self._digests.move_to_end(digest)
                while len(self._digests) > max(1, self.max_instances):
                    self.evict_instance(next(iter(self._digests)))
            while len(self._entries) > self.max_entries:
                old_key, _ = self._entries.popitem(last=False)
                self._forget(old_key)
        return value

    def evict_instance(self, digest) -> int:
        """Drop every entry scoped to ``digest``; returns how many."""
        with self._mu:
            keys = self._digests.pop(digest, None)
            if not keys:
                return 0
            for key in keys:
                self._entries.pop(key, None)
            return len(keys)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._mu:
            self._entries.clear()
            self._digests.clear()
            self.solves = 0
            self.hits = 0


_SHARED_SOLVE_CACHE = ProcessSolveCache()


def shared_solve_cache() -> ProcessSolveCache:
    """This process's cross-batch solve cache."""
    return _SHARED_SOLVE_CACHE


def install_solve_cache(max_entries: int = 512, max_instances: int | None = None) -> None:
    """Size the process-wide solve cache (worker-pool initializer target).

    Module-level so ``ProcessPoolExecutor(initializer=...)`` can ship it
    to ``spawn``-ed workers; each worker then keeps one warm cache across
    every chunk, grid cell, and server request it handles.
    ``max_instances`` bounds how many distinct instance digests stay
    resident (``None`` keeps the current bound).
    """
    _SHARED_SOLVE_CACHE.max_entries = int(max_entries)
    if max_instances is not None:
        _SHARED_SOLVE_CACHE.max_instances = int(max_instances)


def clear_solve_cache() -> None:
    """Reset the process-wide solve cache (test isolation)."""
    _SHARED_SOLVE_CACHE.clear()


def solve_cache_stats() -> dict:
    """Counters of the process-wide cache: entries / instances / solves / hits.

    Module-level (and picklable-return) so worker pools can sample a
    worker's cache through ``pool.submit(solve_cache_stats)`` — how the
    request server's ``/healthz`` surfaces warm-worker reuse.  The
    process-wide LP-wall counters (:mod:`repro.lp.stats`) ride along so
    the served path reports real HiGHS solves and assembly time too.
    """
    stats = {
        "entries": len(_SHARED_SOLVE_CACHE._entries),
        "instances": len(_SHARED_SOLVE_CACHE._digests),
        "solves": _SHARED_SOLVE_CACHE.solves,
        "hits": _SHARED_SOLVE_CACHE.hits,
    }
    stats.update(LP_STATS.snapshot())
    return stats


def round_schedule(instance, target: float, jobs, scale: int) -> FiniteObliviousSchedule:
    """The rounded ``LP1(jobs, target)`` schedule, memoized per process.

    Solves (LP1), rounds it at ``scale`` (Lemma 2) and lays the integral
    assignment out as a :class:`~repro.schedule.oblivious.
    FiniteObliviousSchedule`: the one copy of that pipeline, behind SEM
    rounds, adaptive re-solves, SUU-I-OBL's schedule and every
    :class:`RoundScheduleCache`.  ``jobs`` is a sorted array of distinct
    job ids, or ``None`` for all jobs (keyed as ``arange(n)``: both build
    the same LP).  The result is cached in :func:`shared_solve_cache`
    under ``("lp1-round", digest, scale, target, jobs bytes)``; the
    pipeline is RNG-free and the schedule's table read-only, so callers
    share one schedule safely.
    """
    if jobs is None:
        jobs = np.arange(instance.n_jobs, dtype=np.int64)
    else:
        jobs = np.ascontiguousarray(jobs, dtype=np.int64)
    target, scale = float(target), int(scale)

    def solve() -> FiniteObliviousSchedule:
        relaxation = solve_lp1(instance, jobs=jobs, target=target)
        assignment = round_assignment(relaxation, scale=scale)
        return FiniteObliviousSchedule.from_assignment(assignment)

    return shared_solve_cache().lookup(
        ("lp1-round", instance.digest(), scale, target, jobs.tobytes()), solve
    )


class RoundScheduleCache:
    """Per-batch schedule ids over :func:`round_schedule`.

    One cache serves one batch execution of one policy (phase keys embed
    its schedule ids, which are only meaningful within it).  A local miss
    asks :func:`round_schedule`, which consults the process-wide
    :func:`shared_solve_cache` before solving, so trials, batches, grid
    cells and process-backend worker chunks pay each (instance, target,
    survivor set) pipeline once per process.  :meth:`add` registers any
    other deterministic schedule under a caller-chosen key (SUU-C's
    ``inner="repeat"`` segment schedules), so one table and one id space
    serve every cursor of the batch.

    Attributes
    ----------
    solves:
        Number of *local* cache misses — keys this batch had not seen
        before, registered ``inner="repeat"`` schedules included (some LP1
        misses may be served by the process-wide cache without an actual
        LP solve; see :func:`solve_cache_stats` for that split).  With the
        process cache off (``REPRO_SOLVE_CACHE=0``) the scalar loop pays
        one solve per (trial, round); the difference is the dominant part
        of the grouped-dispatch speedup.
    hits:
        Number of lookups served from this batch's own table.
    """

    def __init__(self, instance, scale: int):
        self.instance = instance
        self.scale = int(scale)
        self.schedules: list[FiniteObliviousSchedule] = []
        self._memo: dict = {}
        self.solves = 0
        self.hits = 0

    def add(self, key, build) -> int:
        """Schedule id for ``key``, calling ``build()`` on its first use.

        ``build`` must be deterministic in ``key``: the first schedule
        registered under a key serves every later lookup of it.
        """
        sid = self._memo.get(key)
        if sid is None:
            sid = len(self.schedules)
            self.schedules.append(build())
            self._memo[key] = sid
            self.solves += 1
        else:
            self.hits += 1
        return sid

    def schedule_id(self, target: float, jobs: np.ndarray) -> int:
        """Schedule id for ``LP1(jobs, target)`` rounded at ``self.scale``.

        ``jobs`` is the sorted array of still-remaining covered jobs (what
        the scalar policies pass to :func:`round_schedule`).
        """
        jobs = np.ascontiguousarray(jobs, dtype=np.int64)
        target = float(target)
        return self.add(
            (target, jobs.tobytes()),
            lambda: round_schedule(self.instance, target, jobs, self.scale),
        )

    def ensure_many(self, requests) -> None:
        """No-op, kept only as a benchmark tracer target.

        ``perfbench/tracer.py`` names it as the ``phased.ensure_many``
        span target, and ``perfbench/test_perfbench.py`` asserts that
        every target exists.  Nothing in the package calls it; delete it
        once the benchmark drops that target.
        """

    def schedule(self, sid: int) -> FiniteObliviousSchedule:
        """The schedule registered under ``sid``."""
        return self.schedules[sid]


class SemCursor:
    """Per-trial replica of SUU-I-SEM's round state.

    Mirrors the mutable fields of a scalar
    :class:`~repro.core.suu_i_sem.SUUISemPolicy` execution — mode
    (``rounds`` / ``serial`` / ``repeat``), round counter, and the cursor
    into the current round's schedule — with the schedule itself replaced
    by an id into a shared :class:`RoundScheduleCache`.

    Parameters
    ----------
    jobs:
        The cursor's job universe (SEM's ``jobs`` argument; all jobs when
        None there) as sorted engine ids: the batch-state columns it reads.
    n_rounds:
        The round budget ``K`` after which the fallback modes engage.
    fallback:
        Mirror of the scalar policy's ``fallback`` flag.
    lp_jobs:
        The same jobs, index-aligned, as ids of the cache's instance (what
        LP1 is solved on).  Defaults to ``jobs``; differs only for SUU-T
        blocks, whose cache holds the block's sub-instance.
    sid:
        Start in ``repeat`` mode on this schedule id instead of in round
        mode: the ``inner="obl"`` and ``inner="repeat"`` segment runs of
        SUU-C, which repeat one fixed schedule until the jobs complete.
    """

    __slots__ = ("jobs", "lp_jobs", "n_rounds", "fallback",
                 "mode", "round", "sid", "step")

    def __init__(self, jobs: np.ndarray, n_rounds: int = 0, fallback: bool = True,
                 *, lp_jobs: np.ndarray | None = None, sid: int | None = None):
        self.jobs = jobs
        self.lp_jobs = jobs if lp_jobs is None else lp_jobs
        self.n_rounds = int(n_rounds)
        self.fallback = bool(fallback)
        self.mode = "rounds" if sid is None else "repeat"
        self.round = 0
        self.sid = sid
        self.step = 0


def _begin_round(cursor: SemCursor, cache: RoundScheduleCache,
                 remaining_jobs: np.ndarray) -> None:
    """Advance to the next doubling round (scalar ``_begin_round``)."""
    cursor.round += 1
    target = 2.0 ** (cursor.round - 2)  # round 1 -> 1/2, doubling after
    cursor.sid = cache.schedule_id(target, remaining_jobs)
    cursor.step = 0


def sem_phase_key(cursor: SemCursor, cache: RoundScheduleCache,
                  remaining_row: np.ndarray, n_machines: int):
    """The trial's phase key, advancing round/mode state exactly like the
    scalar policy's ``assign`` would.

    ``remaining_row`` is the trial's boolean remaining mask (one row of the
    batch state).  May solve a new round's LP through ``cache`` (memoized);
    must be called once per live trial per step, like the protocol says.
    Keys are ``("row", sid, step)`` for schedule rows (in the cache
    instance's ids), ``("serial", job)`` for the serial fallback (an
    engine id) and :data:`IDLE_KEY`.
    """
    if cursor.mode == "serial":
        remaining = cursor.jobs[remaining_row[cursor.jobs]]
        if remaining.size == 0:
            return IDLE_KEY
        return ("serial", int(remaining[0]))

    if cursor.mode == "repeat":
        length = cache.schedule(cursor.sid).length
        if length == 0:
            return IDLE_KEY  # SUU-I-OBL idles on an empty schedule
        return ("row", cursor.sid, cursor.step % length)

    # Round mode: advance to the next round when the current schedule is
    # exhausted (or not yet built).
    while cursor.sid is None or cursor.step >= cache.schedule(cursor.sid).length:
        remaining = cursor.lp_jobs[remaining_row[cursor.jobs]]
        if remaining.size == 0:
            return IDLE_KEY
        if cursor.fallback and cursor.round >= cursor.n_rounds:
            if cursor.jobs.size <= n_machines:
                cursor.mode = "serial"
                return sem_phase_key(cursor, cache, remaining_row, n_machines)
            # m < n: repeat the Kth round's schedule forever.
            cursor.mode = "repeat"
            cursor.step = 0
            if cursor.sid is None or cache.schedule(cursor.sid).length == 0:
                _begin_round(cursor, cache, remaining)  # degenerate guard
                cursor.step = 0
            return sem_phase_key(cursor, cache, remaining_row, n_machines)
        _begin_round(cursor, cache, remaining)
    return ("row", cursor.sid, cursor.step)


def sem_row_for_key(key, cache: RoundScheduleCache, idle_row: np.ndarray,
                    scratch_row: np.ndarray) -> np.ndarray:
    """The shared ``(m,)`` assignment row for a phase key.

    ``idle_row`` is a reusable all-IDLE row; ``scratch_row`` a reusable
    buffer for serial-mode rows (all machines on one job).
    """
    tag = key[0]
    if tag == "idle":
        return idle_row
    if tag == "serial":
        scratch_row.fill(key[1])
        return scratch_row
    return cache.schedule(key[1]).assignment_at(key[2])


def sem_advance(cursor: SemCursor, key) -> None:
    """Post-dispatch cursor bump (the scalar ``self._step += 1``)."""
    if key[0] == "row":
        cursor.step += 1
