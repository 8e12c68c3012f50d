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
  ``(target, remaining-set)``; the LP solve / rounding / layout pipeline is
  deterministic (no RNG anywhere in it), so every trial entering a round
  with the same survivor set replays one solve.  Each distinct schedule
  gets a small-integer id, which is what phase keys embed: two trials with
  the same ``(schedule id, step)`` are provably about to receive the same
  assignment row.
* :class:`SemCursor` — the *cheap* per-trial piece: a faithful replica of
  :class:`~repro.core.suu_i_sem.SUUISemPolicy`'s control state (mode,
  round index, schedule id, step cursor).  :func:`sem_phase_key` advances
  a cursor through exactly the scalar policy's control flow (doubling
  rounds, the serial and repeat-last fallbacks) and returns the trial's
  phase key; :func:`sem_row_for_key` maps a key to its assignment row;
  :func:`sem_advance` bumps the step cursor after the row executes.

Bit-identity rests on the determinism of the solve pipeline: a memoized
schedule is byte-for-byte the schedule the scalar policy would have built
for the same (target, survivor set), so cursor-driven trials reproduce the
scalar assignment sequence exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from repro.core.lp1 import cached_capped_logmass, solve_lp1
from repro.core.rounding import round_assignment
from repro.lp.stats import LP_STATS
from repro.schedule.base import IDLE
from repro.schedule.oblivious import FiniteObliviousSchedule

__all__ = [
    "ProcessSolveCache",
    "shared_solve_cache",
    "install_solve_cache",
    "clear_solve_cache",
    "solve_cache_stats",
    "resolve_lp_reuse",
    "active_lp_reuse",
    "lp_reuse_eps",
    "lp_reuse_context",
    "RoundScheduleCache",
    "SemCursor",
    "sem_phase_key",
    "sem_row_for_key",
    "sem_advance",
]

#: Phase key of a trial whose covered jobs have all completed (idle row).
IDLE_KEY = ("idle",)

# ---------------------------------------------------------------------------
# Survivor-set reuse mode ("collapse the LP wall").
#
# ``exact`` (the default) keeps today's behavior bit for bit: every distinct
# (target, survivor set) runs its own LP1 solve pipeline, memoized exactly.
# ``subset`` additionally allows a new survivor set S' that is a *subset* of
# an already-solved set S (a per-trial predecessor, a coalesced boundary
# union, or the canonical full-job-set anchor) to reuse S's rounded round
# schedule restricted to S''s columns and compacted.  Capped-mass coverage
# is then *exact*: every job of S' keeps its full multiset of (machine,
# step-count) assignments from S, so each still receives >= target capped
# mass, bit for bit.  What reuse can cost is schedule *length* — the
# donor's placement need not balance S''s surviving steps — and eps bounds
# exactly that: a restriction is accepted only when its compacted length is
# within ``(1 + eps)`` of a perfectly balanced repack of the same steps.
# Only schedule length (and hence makespan, statistically) can differ from
# a fresh solve; gate-failing restrictions fall back to their own solves.

#: Recognized ``lp_reuse`` modes.
LP_REUSE_MODES = ("exact", "subset")

#: Default relative length overhead tolerated by a derived round schedule
#: (vs a perfectly balanced repack of its surviving steps).
DEFAULT_LP_REUSE_EPS = 0.25

#: lp_reuse scope installed by :func:`lp_reuse_context` — thread-local,
#: so trial shards (repro.sim.batch, kernel_threads > 1) running
#: concurrent batches in one process never see each other's mode.
_lp_reuse_tls = threading.local()


def resolve_lp_reuse(mode: str | None = None) -> str:
    """Validate ``mode``, consulting ``REPRO_LP_REUSE`` when None.

    Delegates to :func:`repro.api.config.resolve_lp_reuse` — the single
    config-resolution chain shared by every knob (this module keeps the
    name for its long-standing callers).
    """
    # Deferred: repro.api.config is the one env-reading module and lives
    # above this layer (importing it pulls the whole api package).
    from repro.api.config import resolve_lp_reuse as _resolve

    return _resolve(mode)


def active_lp_reuse() -> str:
    """The lp_reuse mode in effect (context override, else environment)."""
    active = getattr(_lp_reuse_tls, "mode", None)
    if active is not None:
        return active
    return resolve_lp_reuse()


def lp_reuse_eps() -> float:
    """Subset-reuse length-overhead tolerance (``REPRO_LP_REUSE_EPS``).

    Delegates to :func:`repro.api.config.lp_reuse_eps`.
    """
    from repro.api.config import lp_reuse_eps as _resolve

    return _resolve()


@contextmanager
def lp_reuse_context(mode: str | None):
    """Scope an lp_reuse mode over a batch run.

    The scope is genuinely thread-local: each trial shard's recursive
    batch run enters its own context on its own thread, so concurrent
    shards never clobber (or prematurely restore) each other's mode.
    """
    previous = getattr(_lp_reuse_tls, "mode", None)
    _lp_reuse_tls.mode = resolve_lp_reuse(mode)
    try:
        yield
    finally:
        _lp_reuse_tls.mode = previous


class ProcessSolveCache:
    """Process-wide memo for deterministic solve pipelines.

    :class:`RoundScheduleCache` (and SUU-C's chain-plan preparation) are
    deterministic functions of ``(instance, configuration)``; within one
    batch they are already memoized, but every batch — and, under the
    process backend, every worker *chunk* — used to start cold and
    re-solve the shared round-1 LP.  This cache outlives batches: entries
    are keyed by ``(kind, instance digest, *configuration)``, so a grid
    sweep's cells (and all chunks a worker handles) share one solve per
    distinct key.

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
    it entirely.
    """

    def __init__(self, max_entries: int = 512, max_instances: int = 32):
        self.max_entries = int(max_entries)
        self.max_instances = int(max_instances)
        self._entries: OrderedDict = OrderedDict()
        #: digest -> set of live keys, LRU-ordered by last touch.
        self._digests: OrderedDict = OrderedDict()
        #: Guards the dict/LRU bookkeeping: trial shards (kernel_threads
        #: > 1) hit this process-wide cache from concurrent threads.
        #: Misses compute *outside* the lock — a rare duplicated solve is
        #: benign (the pipelines are deterministic), serializing every
        #: shard on one LP solve is not.
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

    def peek(self, key):
        """The cached value for ``key`` (refreshing LRU), or None.

        Unlike :meth:`lookup` a miss is free: no compute, no counter.  The
        reuse/coalescing machinery peeks to decide *whether* a solve is
        needed before committing to one.
        """
        if not self.enabled:
            return None
        with self._mu:
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                self._touch(key)
            return value

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
    the served path reports real HiGHS solves, assembly time, subset-reuse
    hits, and coalesced batches too.
    """
    stats = {
        "entries": len(_SHARED_SOLVE_CACHE._entries),
        "instances": len(_SHARED_SOLVE_CACHE._digests),
        "solves": _SHARED_SOLVE_CACHE.solves,
        "hits": _SHARED_SOLVE_CACHE.hits,
    }
    stats.update(LP_STATS.snapshot())
    return stats


class RoundScheduleCache:
    """Memoized LP1-round schedules, shared across lock-stepped trials.

    One cache serves one batch execution of one policy (phase keys embed
    its schedule ids, which are only meaningful within it).  Local misses
    consult the cross-batch :func:`shared_solve_cache` before solving, so
    grid sweeps and process-backend worker chunks pay the shared round-1
    LP once per (instance, target, survivor set) per process rather than
    once per batch.

    Attributes
    ----------
    solves:
        Number of *local* cache misses — lookups this batch had not seen
        before (some may be served by the process-wide cache without an
        actual LP solve; see :func:`solve_cache_stats` for that split).
        The scalar loop would have paid one solve per (trial, round); the
        difference is the dominant part of the grouped-dispatch speedup.
    hits:
        Number of lookups served from this batch's own table.
    """

    #: Donor survivor sets kept per target for subset reuse, most recent last.
    MAX_DONORS_PER_TARGET = 64

    def __init__(self, instance, scale: int):
        self.instance = instance
        self.scale = int(scale)
        self.schedules: list[FiniteObliviousSchedule] = []
        self._memo: dict = {}
        self.solves = 0
        self.hits = 0
        self.reuse_hits = 0
        self.coalesced_batches = 0
        self.coalesced_solves = 0
        #: target -> list of (sorted survivor array, schedule) donors.
        self._donors: dict[float, list] = {}

    def _solve(self, target: float, jobs: np.ndarray) -> FiniteObliviousSchedule:
        relaxation = solve_lp1(self.instance, jobs=jobs, target=target)
        assignment = round_assignment(relaxation, scale=self.scale)
        return FiniteObliviousSchedule.from_assignment(assignment)

    def _shared_key(self, key):
        return ("lp1-round", self.instance.digest(), self.scale) + key

    def _sub_key(self, key, eps: float):
        # Distinct prefix: derived schedules must never serve exact-mode
        # lookups (exact mode stays bit-identical to a cold cache).
        return ("lp1-round-sub", self.instance.digest(), self.scale, eps) + key

    # -- subset reuse ---------------------------------------------------
    def _register_donor(self, target: float, jobs: np.ndarray,
                        schedule: FiniteObliviousSchedule) -> None:
        pool = self._donors.setdefault(float(target), [])
        pool.append((jobs, schedule))
        if len(pool) > self.MAX_DONORS_PER_TARGET:
            del pool[0]

    def _derive_from_donors(self, target: float, jobs: np.ndarray, eps: float):
        """A gate-passing derived schedule for ``jobs``, or None.

        Existing superset donors are tried first (no solve at all), most
        recent first; if none matches or passes the quality gate, the
        *canonical* anchor — the full instance job set, a superset of
        every survivor set that needs exactly one shared solve per
        target, ever — is solved and tried.
        """
        pool = self._donors.get(float(target), [])
        for donor_jobs, schedule in reversed(pool):
            pos = np.searchsorted(donor_jobs, jobs)
            if (pos < donor_jobs.size).all() and (donor_jobs[pos] == jobs).all():
                derived = self._restrict(schedule, jobs, target, eps)
                if derived is not None:
                    return derived
        full = np.arange(self.instance.n_jobs, dtype=np.int64)
        if jobs.size == full.size or any(
            donor_jobs.size == full.size for donor_jobs, _ in pool
        ):
            # The full set is the exact key itself, or the canonical anchor
            # is already registered (and was tried, and failed, above).
            return None
        ukey = (float(target), full.tobytes())
        anchor = shared_solve_cache().lookup(
            self._shared_key(ukey), lambda: self._solve(target, full)
        )
        self._register_donor(target, full, anchor)
        self.coalesced_batches += 1
        LP_STATS.add("coalesced_batches")
        return self._restrict(anchor, jobs, target, eps)

    def _restrict(self, schedule: FiniteObliviousSchedule, jobs: np.ndarray,
                  target: float, eps: float):
        """The donor schedule restricted to ``jobs``, rebalanced and gated.

        The restriction keeps, for every surviving job, its donor step
        counts per machine — so each job still receives >= ``target``
        capped mass — and drops steps the donor spent on departed jobs.
        That alone is imbalanced: a fresh LP1 *minimizes* the max machine
        load, while a restriction inherits placement balanced for the
        donor's full set.  So steps are then greedily relocated from
        over- to under-loaded machines, choosing at each move the job
        whose capped-logmass delta between the two machines is largest
        (least mass damage first) and never letting any job's mass drop
        below ``target``.  The rebalanced length approaches the perfectly
        balanced repack a fresh solve would produce.

        The quality gate bounds the only real cost of reuse: the result
        is returned only when the final length is within ``(1 + eps)`` of
        the ceil-balanced repack of the same steps (and every requested
        job actually appears — vacuously true for donors built from LP1
        supersets, where mass >= target forces at least one step).
        Returns None when the gate fails.
        """
        m = schedule.table.shape[1]
        keep = np.isin(schedule.table, jobs)
        counts = np.zeros((m, jobs.size), dtype=np.int64)
        for i in range(m):
            vals = schedule.table[keep[:, i], i]
            np.add.at(counts[i], np.searchsorted(jobs, vals), 1)
        if (counts.sum(axis=0) == 0).any():
            return None
        ell = cached_capped_logmass(self.instance, target)[:, jobs]
        loads = counts.sum(axis=1)
        ideal = -(-int(loads.sum()) // m)  # ceil balance
        slack = (counts * ell).sum(axis=0) - target
        while True:
            a = int(np.argmax(loads))
            b = int(np.argmin(loads))
            if loads[a] <= ideal or loads[b] >= ideal:
                break
            delta = ell[b] - ell[a]
            movable = (counts[a] > 0) & (slack + delta >= 0.0)
            if not movable.any():
                break
            j = int(np.argmax(np.where(movable, delta, -np.inf)))
            counts[a, j] -= 1
            counts[b, j] += 1
            loads[a] -= 1
            loads[b] += 1
            slack[j] += delta[j]
        length = int(loads.max())
        if length > (1.0 + eps) * ideal:
            return None
        out = np.full((length, m), IDLE, dtype=np.int64)
        for i in range(m):
            col = np.repeat(jobs, counts[i])
            out[: col.size, i] = col
        return FiniteObliviousSchedule(out)

    def _obtain(self, key, count: bool = True) -> FiniteObliviousSchedule:
        """The schedule for ``key = (target, jobs_bytes)`` honoring the
        active lp_reuse mode (shared-cache first, then derivation from a
        donor or a grown union anchor, then a fresh solve).

        ``count=False`` suppresses the reuse-hit counters: ``ensure_many``
        warms keys through this method, and the follow-up ``schedule_id``
        call will count the (single) reuse when it peeks the warmed entry.
        """
        target = key[0]
        jobs = np.frombuffer(key[1], dtype=np.int64)
        shared = shared_solve_cache()
        if active_lp_reuse() == "subset":
            schedule = shared.peek(self._shared_key(key))
            if schedule is not None:
                self._register_donor(target, jobs, schedule)
                return schedule
            eps = lp_reuse_eps()
            sub_key = self._sub_key(key, eps)
            schedule = shared.peek(sub_key)
            if schedule is None:
                derived = self._derive_from_donors(target, jobs, eps)
                if derived is not None:
                    schedule = shared.lookup(sub_key, lambda: derived)
            if schedule is not None:
                if count:
                    self.reuse_hits += 1
                    LP_STATS.add("reuse_hits")
                return schedule
        schedule = shared.lookup(
            self._shared_key(key), lambda: self._solve(target, jobs)
        )
        if active_lp_reuse() == "subset":
            self._register_donor(target, jobs, schedule)
        return schedule

    def schedule_id(self, target: float, jobs: np.ndarray) -> int:
        """Schedule id for ``LP1(jobs, target)`` rounded at ``self.scale``.

        ``jobs`` is the sorted array of still-remaining covered jobs (what
        the scalar policies pass to ``solve_lp1``).
        """
        jobs = np.ascontiguousarray(jobs, dtype=np.int64)
        key = (float(target), jobs.tobytes())
        sid = self._memo.get(key)
        if sid is None:
            schedule = self._obtain(key)
            sid = len(self.schedules)
            self.schedules.append(schedule)
            self._memo[key] = sid
            self.solves += 1
        else:
            self.hits += 1
        return sid

    # -- coalesced boundary solves --------------------------------------
    def ensure_many(self, requests) -> None:
        """Warm the caches for several upcoming ``(target, jobs)`` lookups.

        Called by ``begin_step`` pre-passes under ``lp_reuse="subset"``
        when a lock-step boundary is about to request multiple distinct
        survivor-set schedules.  Purely a cache-warming step — the
        subsequent serial :meth:`schedule_id` calls assign ids and produce
        identical results whether or not this ran.

        Per target, the *union* of the missing survivor sets is solved
        once and registered as a donor (its composition is much closer to
        this round's sets than the canonical full-set anchor, so
        restrictions from it pass the quality gate more often); every miss
        then warms through the donor machinery, with gate failures falling
        back to their own solves.  In exact mode there is nothing to warm:
        each miss is solved where the serial walk first needs it.
        """
        if active_lp_reuse() != "subset":
            return
        pending: dict = {}
        for target, jobs in requests:
            jobs = np.ascontiguousarray(jobs, dtype=np.int64)
            key = (float(target), jobs.tobytes())
            if key not in self._memo and key not in pending:
                pending[key] = jobs
        if not pending:
            return
        shared = shared_solve_cache()
        eps = lp_reuse_eps()

        misses: dict = {}
        for key, jobs in pending.items():
            hit = shared.peek(self._shared_key(key))
            if hit is not None:
                self._register_donor(key[0], jobs, hit)
                continue
            if shared.peek(self._sub_key(key, eps)) is not None:
                continue
            misses[key] = jobs
        if not misses:
            return

        by_target: dict = {}
        for key, jobs in misses.items():
            by_target.setdefault(key[0], []).append((key, jobs))
        for target, group in by_target.items():
            if len(group) < 2:
                continue
            # One union-anchor solve per boundary group: a donor whose
            # composition is much closer to this round's survivor sets
            # than the canonical full-set anchor, so restrictions from
            # it pass the quality gate more often.
            union = group[0][1]
            for _, jobs in group[1:]:
                union = np.union1d(union, jobs)
            union = np.ascontiguousarray(union, dtype=np.int64)
            ukey = (target, union.tobytes())
            schedule = shared.lookup(
                self._shared_key(ukey), lambda u=union, t=target: self._solve(t, u)
            )
            self._register_donor(target, union, schedule)
            self.coalesced_batches += 1
            self.coalesced_solves += len(group)
            LP_STATS.add("coalesced_batches")
            LP_STATS.add("coalesced_solves", len(group))
        # Every miss then warms serially through the donor machinery;
        # gate-failing restrictions fall back to their own solves.
        for key in misses:
            self._obtain(key, count=False)

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
    universe_mask:
        Boolean mask over all jobs: the cursor's job universe (SEM's
        ``jobs`` argument; all jobs when None there).
    n_rounds:
        The round budget ``K`` after which the fallback modes engage.
    fallback:
        Mirror of the scalar policy's ``fallback`` flag.
    """

    __slots__ = ("universe_mask", "universe_size", "n_rounds", "fallback",
                 "mode", "round", "sid", "step")

    def __init__(self, universe_mask: np.ndarray, n_rounds: int, fallback: bool):
        self.universe_mask = universe_mask
        self.universe_size = int(universe_mask.sum())
        self.n_rounds = int(n_rounds)
        self.fallback = bool(fallback)
        self.mode = "rounds"  # rounds | serial | repeat
        self.round = 0
        self.sid: int | None = None
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
    """
    if cursor.mode == "serial":
        remaining = np.flatnonzero(remaining_row & cursor.universe_mask)
        if remaining.size == 0:
            return IDLE_KEY
        return ("serial", int(remaining[0]))

    if cursor.mode == "repeat":
        length = cache.schedule(cursor.sid).length
        return ("row", cursor.sid, cursor.step % length)

    # Round mode: advance to the next round when the current schedule is
    # exhausted (or not yet built).
    while cursor.sid is None or cursor.step >= cache.schedule(cursor.sid).length:
        remaining = np.flatnonzero(remaining_row & cursor.universe_mask)
        if remaining.size == 0:
            return IDLE_KEY
        if cursor.fallback and cursor.round >= cursor.n_rounds:
            if cursor.universe_size <= n_machines:
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
