"""Array-based chain cursors: batch-native SUU-C execution (discipline v2).

Under RNG discipline v1, SUU-C and SUU-T run *per trial*: bit-identity
with the serial path forces each trial to replay its own scalar policy
and ``_ChainState`` objects (see :mod:`repro.sim.batch`), so a batch of
``B`` trials pays ``B`` full Python policy steps per timestep and — the
real cost — ``B`` independent LP1 solves for every segment SEM run.  That
is why BENCH_3 measured ``suu-c`` at ~1x while ``sem`` hit 25x.

Discipline v2 drops the bit-identity constraint (statistical equivalence
only), which unlocks the batch-native layout this module implements:

* **Chain cursors as matrices.**  Per-trial ``_ChainState`` objects become
  ``(n_trials, n_chains)`` int arrays — ``chain_pos`` (current item),
  ``tau`` (supersteps into the current block), ``delay_remaining`` (pause
  countdowns), plus per-trial superstep/phase vectors.  Chain start delays
  arrive as one ``(n_trials, n_chains)`` matrix drawn from the batch's
  :class:`~repro.util.rng.BatchStreams`.
* **Signature-grouped boundary stepping.**  Superstep boundaries — the
  chain-cursor advance after an expansion drains, and the preamble that
  starts newly-due chains and recovers expired pauses before the next
  build — run as whole-batch numpy transitions over ``(trials, chains)``
  matrices instead of a per-trial Python walk.  The resulting superstep is
  then *encoded*: each trial's full ``(chain → block item, tau)``
  signature becomes one small int vector whose bytes key a lazily-built
  transition memo, so every distinct signature is compiled (flattened into
  shared expansion rows, congestion measured, preludes laid out) exactly
  once and scattered back to all trials that reached it — across trials
  *and* timesteps.
* **Solo-row preludes.**  Plans built with ``unit > 1`` (the
  non-polynomial-``t_LP2`` rounding trick of Section 4) re-insert the
  rounded-away steps as solo prelude rows whenever a block is entered or
  retried.  A block is entering exactly when its ``tau`` is 0, so prelude
  rows are a pure function of the signature: they are compiled into the
  signature's row list, ahead of the expansion, in chain order — exactly
  the scalar policy's solo-queue emission order.
* **Inner cursors for every registered subroutine.**  Segment-boundary
  long-job runs are array cursors for all three ``inner`` options:
  ``"sem"`` replays SUU-I-SEM's doubling rounds through lightweight
  per-trial cursors over one shared :class:`~repro.core.phased.
  RoundScheduleCache` (one LP solve per distinct (target, survivor set));
  ``"obl"`` solves ``LP1(jobs, 1/2)`` once per distinct pending set and
  repeats it; ``"repeat"`` repeats the plan's rounded LP2 columns with no
  new solve at all (:func:`long_repeat_schedule`, shared with the scalar
  policy for byte-identical layouts).

The execution semantics replicate the scalar :class:`~repro.core.suu_c.
SUUCPolicy` transition for transition — same superstep builds, same solo
preludes, same pause registration segments, same fallback triggers, same
inner-subroutine control flow — so that given equal delays and equal
thresholds, array cursors and object cursors produce *identical*
executions (the test suite checks exactly this), and under fresh v2
randomness the makespan distribution matches v1's.  Every configuration
— preludes, ``inner="obl"`` and ``inner="repeat"`` included — runs on
this path under v2.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.phased import RoundScheduleCache
from repro.core.suu_i_sem import paper_round_count
from repro.errors import ReproError
from repro.schedule.base import IDLE, IntegralAssignment
from repro.schedule.oblivious import FiniteObliviousSchedule
from repro.schedule.pseudo import Pause

__all__ = ["ChainCursorBatch", "long_repeat_schedule", "prelude_rows"]

# Per-trial phase codes.
_SUPER = 0
_SEM = 1
_FALLBACK = 2


def long_repeat_schedule(plan, jobs, n_machines: int, n_jobs: int):
    """The ``inner="repeat"`` segment schedule for one pending long-job set.

    Lays the plan's rounded LP2 columns for ``jobs`` (plan-local ids) out
    machine by machine — the exact
    :meth:`~repro.schedule.oblivious.FiniteObliviousSchedule.
    from_assignment` layout — for the caller to repeat until the jobs
    complete.  No LP is solved: this is the Lin–Rajaraman-style "repeat
    the assignment you already have" inner subroutine.  Shared by the
    scalar policy and the array cursors so both execute byte-identical
    schedules.
    """
    steps = dict(plan.long_steps)
    x = np.zeros((n_machines, n_jobs), dtype=np.int64)
    for j in jobs:
        j = int(j)
        for i, cnt in steps.get(j, ()):
            x[i, j] = cnt
    return FiniteObliviousSchedule.from_assignment(
        IntegralAssignment(x=x, jobs=tuple(int(j) for j in jobs), target=0.0)
    )


def prelude_rows(block, job: int, n_machines: int) -> list[np.ndarray]:
    """The solo rows re-inserted when ``block`` is entered or retried.

    Row ``r`` runs ``job`` on every machine whose rounded-away remainder
    exceeds ``r``, idling the rest — one real timestep per row.  Shared by
    the scalar policy's solo queue and the array cursors' signature
    compiler so both emit byte-identical rows (``job`` is already in the
    caller's id space: plan-local for the scalar path, engine-global for
    the cursors).
    """
    rows = []
    for r in range(block.prelude_length):
        row = np.full(n_machines, IDLE, dtype=np.int64)
        for i, cnt in block.prelude:
            if cnt > r:
                row[i] = job
        rows.append(row)
    return rows


class _SegmentSemCursor:
    """One trial's cursor through a segment SUU-I-SEM run.

    A faithful replica of :class:`~repro.core.suu_i_sem.SUUISemPolicy`'s
    control state (doubling rounds, serial/repeat-last fallbacks) over the
    long jobs of one segment, with schedules shared through the batch's
    :class:`RoundScheduleCache`.  ``jobs_local`` are ids in the cache's
    (sub-)instance — what LP1 is solved on — and ``jobs_global`` are the
    corresponding engine ids; both ascending, index-aligned.
    """

    __slots__ = (
        "jobs_global", "jobs_local", "universe_size", "n_rounds",
        "mode", "round", "sid", "step",
    )

    def __init__(self, jobs_global, jobs_local, n_machines):
        self.jobs_global = jobs_global
        self.jobs_local = jobs_local
        self.universe_size = int(jobs_local.size)
        self.n_rounds = paper_round_count(self.universe_size, n_machines)
        self.mode = "rounds"  # rounds | serial | repeat
        self.round = 0
        self.sid: int | None = None
        self.step = 0


class _RepeatCursor:
    """One trial's cursor through an ``inner="obl"``/``"repeat"`` run.

    Both subroutines repeat one fixed finite schedule until the segment's
    long jobs complete; the only difference is where the schedule comes
    from (``"sem-row"``: an ``LP1(jobs, 1/2)`` solve in the shared round
    cache; ``"rep-row"``: the plan's LP2 columns, registered locally).
    """

    __slots__ = ("tag", "sid", "length", "step")

    def __init__(self, tag: str, sid: int, length: int):
        self.tag = tag
        self.sid = sid
        self.length = length
        self.step = 0


class ChainCursorBatch:
    """Array-based cursors driving ``n_trials`` lock-stepped SUU-C runs.

    One instance serves one batch execution of one chain plan (for SUU-T,
    one per forest block).  The owning policy calls :meth:`prepare_step`
    once per engine step (from its ``begin_step`` hook) with the trials it
    is driving; :meth:`key_of` then returns each trial's precomputed phase
    key and :meth:`dispatch` maps a key to its shared assignment row.

    Parameters
    ----------
    plan:
        The shared, trial-independent ``_ChainPlan`` (preludes allowed:
        ``unit > 1`` plans compile their solo rows into the signatures).
    instance:
        The (sub-)instance the plan was prepared on — LP1 segment solves
        run against it.
    delays:
        ``(n_trials, n_chains)`` chain start delays (already scaled by the
        plan's unit).
    n_machines:
        Engine machine count (equals the sub-instance's for SUU-T blocks).
    job_map:
        Maps the plan's job ids to engine job ids (identity for SUU-C;
        the block's global ids for SUU-T).
    n_engine_jobs:
        Width of the engine's job axis (the *global* job count — larger
        than the plan's for SUU-T blocks).
    scale:
        LP1 rounding scale for segment SEM runs.
    inner:
        Segment subroutine for long jobs: ``"sem"``, ``"obl"`` or
        ``"repeat"`` (mirrors :class:`~repro.core.suu_c.SUUCPolicy`).
    enable_segments / enable_fallback:
        The owning policy's ablation flags (delays are already drawn).
    """

    def __init__(
        self,
        plan,
        instance,
        delays: np.ndarray,
        *,
        n_machines: int,
        job_map: np.ndarray,
        n_engine_jobs: int,
        scale: int,
        inner: str = "sem",
        enable_segments: bool = True,
        enable_fallback: bool = True,
    ):
        B, C = delays.shape
        if C != len(plan.programs):
            raise ValueError(
                f"delays have {C} chains but the plan has {len(plan.programs)}"
            )
        if inner not in ("sem", "obl", "repeat"):
            raise ValueError(f"unknown inner subroutine {inner!r}")
        self.plan = plan
        self.delays = np.ascontiguousarray(delays, dtype=np.int64)
        self.n_trials = B
        self.n_chains = C
        self.m = int(n_machines)
        self.job_map = np.ascontiguousarray(job_map, dtype=np.int64)
        self.gamma = int(plan.gamma)
        self.inner = inner
        self.enable_segments = bool(enable_segments)
        self.enable_fallback = bool(enable_fallback)
        self.congestion_limit = float(plan.congestion_limit)
        self.superstep_limit = float(plan.superstep_limit)
        self.topo_global = self.job_map[np.asarray(plan.topo, dtype=np.int64)]

        self._n_items_arr = np.array(
            [len(p.items) for p in plan.programs], dtype=np.int64
        )

        # Flattened chain-program tables: item kind / length / job /
        # effective block length ("need"), padded to the longest chain so
        # the boundary transitions index them as (trials, chains) gathers.
        # Alongside them, CSR spans of each block's (machine, count)
        # pairs — item slot (c, p) flattens to c * P + p, pairs keep
        # their tuple order — feed the kernel-side signature expansion.
        P = max(1, int(self._n_items_arr.max()) if C else 1)
        self._kind = np.full((C, P), kernels.KIND_END, dtype=np.int8)
        self._ilen = np.zeros((C, P), dtype=np.int64)
        self._need = np.ones((C, P), dtype=np.int64)
        self._ijob = np.zeros((C, P), dtype=np.int64)
        self._prelude_len = np.zeros((C, P), dtype=np.int64)
        step_indptr = np.zeros(C * P + 1, dtype=np.int64)
        pre_indptr = np.zeros(C * P + 1, dtype=np.int64)
        step_pairs: list[tuple[int, int]] = []
        pre_pairs: list[tuple[int, int]] = []
        for c, prog in enumerate(plan.programs):
            for p in range(P):
                cp = c * P + p
                if p < len(prog.items):
                    item = prog.items[p]
                    self._ijob[c, p] = self.job_map[item.job]
                    self._ilen[c, p] = item.length
                    if isinstance(item, Pause):
                        self._kind[c, p] = kernels.KIND_PAUSE
                    else:
                        self._kind[c, p] = kernels.KIND_BLOCK
                        self._need[c, p] = max(1, item.length)
                        self._prelude_len[c, p] = item.prelude_length
                        step_pairs.extend(item.steps)
                        pre_pairs.extend(item.prelude)
                step_indptr[cp + 1] = len(step_pairs)
                pre_indptr[cp + 1] = len(pre_pairs)
        self._step_indptr = step_indptr
        self._pre_indptr = pre_indptr
        step_flat = np.array(step_pairs, dtype=np.int64).reshape(-1, 2)
        pre_flat = np.array(pre_pairs, dtype=np.int64).reshape(-1, 2)
        self._step_machine = np.ascontiguousarray(step_flat[:, 0])
        self._step_count = np.ascontiguousarray(step_flat[:, 1])
        self._pre_machine = np.ascontiguousarray(pre_flat[:, 0])
        self._pre_count = np.ascontiguousarray(pre_flat[:, 1])
        #: Signature encoding base: ``pos * tmult + tau`` is collision-free
        #: because ``tau`` never reaches a block's effective length.
        self._tmult = int(self._need.max()) + 1 if C else 2

        # The ISSUE's matrices: chain cursors as (n_trials, n_chains) ints.
        self.chain_pos = np.zeros((B, C), dtype=np.int64)
        self.tau = np.zeros((B, C), dtype=np.int64)
        self.delay_remaining = np.zeros((B, C), dtype=np.int64)  # pause countdowns
        self.started = np.zeros((B, C), dtype=bool)
        self.superstep = np.zeros(B, dtype=np.int64)
        self.phase = np.zeros(B, dtype=np.int8)
        self.sig = np.full(B, -1, dtype=np.int64)  # current expansion id
        self.ptr = np.zeros(B, dtype=np.int64)
        #: Per-trial phase key for the current engine step (``key_of``).
        self._keys: list = [("idle",)] * B

        # Superstep expansions memoized by encoded (chain -> item, tau)
        # signature bytes — the transition memo shared across trials and
        # timesteps.  Each entry is one (rows, machines) matrix laid out
        # [prelude solo rows..., expansion rows...], built by
        # kernels.expand_signature.
        self._sig_ids: dict[bytes, int] = {}
        self._sig_rows: list[np.ndarray] = []
        self._sig_congestion: list[int] = []
        self._sig_n_prelude: list[int] = []
        # Row counts as a capacity-doubled array (vector-indexed every
        # step; rebuilding per compile would be quadratic in signatures).
        self._sig_len_np = np.zeros(64, dtype=np.int64)

        # Segment bookkeeping: per trial, segment -> pending long jobs
        # (global ids), and the trial's active segment-inner cursor.
        self._pending: list[dict[int, list[int]]] = [dict() for _ in range(B)]
        self._sem: list = [None] * B
        self.sem_left = np.zeros(B, dtype=np.int64)
        self._in_sem = np.zeros((B, int(n_engine_jobs)), dtype=bool)
        self._prev_remaining: np.ndarray | None = None
        self._seen_t = -1

        self._cache = RoundScheduleCache(instance, scale)
        self._local_schedules: list[FiniteObliviousSchedule] = []
        self._local_ids: dict[bytes, int] = {}
        self._row_memo: dict[tuple, np.ndarray] = {}
        self._idle_row = np.full(self.m, IDLE, dtype=np.int64)
        self._max_spins = int(self.superstep_limit) + self.gamma + 1_000

        self.stats = {
            "t_star": plan.t_star,
            "gamma": plan.gamma,
            "unit": plan.unit,
            "horizon": plan.horizon,
            "n_long_jobs": plan.n_long_jobs,
            "max_congestion": 0,
            "supersteps": 0,
            "sem_runs": 0,
            "fallback": False,
        }

        # Local→global lookup for segment job translation.
        self._g2l = None

    # ------------------------------------------------------------------
    # Per-step batch bookkeeping
    # ------------------------------------------------------------------
    def _batch_step_update(self, state) -> None:
        """Fold the last step's completions into the SEM-run counters.

        Runs once per engine step (from :meth:`prepare_step`): one
        vectorized diff of the batch remaining matrix replaces a per-trial
        ``remaining[jobs].any()`` scan per step.
        """
        cur = state.remaining
        if self._prev_remaining is None:
            self._prev_remaining = np.array(cur, dtype=bool)
            self._seen_t = state.t
            return
        completed = self._prev_remaining & ~cur
        if completed.any():
            rows, cols = np.nonzero(completed & self._in_sem)
            if rows.size:
                np.subtract.at(self.sem_left, rows, 1)
                self._in_sem[rows, cols] = False
        np.copyto(self._prev_remaining, cur)
        self._seen_t = state.t

    # ------------------------------------------------------------------
    # Signature-grouped boundary stepping (the scalar policy's
    # transitions, as whole-batch matrix updates)
    # ------------------------------------------------------------------
    def _register_deferred(self, trials, deferred, s_arr) -> None:
        """Queue deferred pause jobs under their registration segment."""
        if deferred is None:
            return
        mask, jobs = deferred
        rows, cols = np.nonzero(mask)
        for i, j in zip(rows.tolist(), cols.tolist()):
            b = int(trials[i])
            segment = int(s_arr[i]) // self.gamma
            self._pending[b].setdefault(segment, []).append(int(jobs[i, j]))

    def _finish_superstep(self, F: np.ndarray, state) -> None:
        """Advance chain cursors of trials ``F`` whose expansions drained.

        The ``(trials, chains)`` transition itself — block tallies, pause
        countdowns, item advance/entry — runs in
        :func:`repro.kernels.chain_finish` on gathered cursor copies,
        scattered back here.
        """
        pos = self.chain_pos[F]
        tau = self.tau[F]
        dr = self.delay_remaining[F]
        into_pause, pause_jobs = kernels.chain_finish(
            F, pos, tau, dr, self.started[F], state.remaining,
            self._kind, self._ilen, self._need, self._ijob,
            self._n_items_arr,
        )
        deferred = (into_pause, pause_jobs) if into_pause.any() else None
        self.chain_pos[F] = pos
        self.tau[F] = tau
        self.delay_remaining[F] = dr

        s_new = self.superstep[F] + 1
        self.superstep[F] = s_new
        top = int(s_new.max())
        if top > self.stats["supersteps"]:
            self.stats["supersteps"] = top
        self.sig[F] = -1
        self.ptr[F] = 0
        self._register_deferred(F, deferred, s_new)

        over = np.zeros(F.size, dtype=bool)
        if self.enable_fallback:
            over = s_new > self.superstep_limit
            if over.any():
                self.stats["fallback"] = True
                self.phase[F[over]] = _FALLBACK
        if self.enable_segments:
            at_segment = (s_new % self.gamma == 0) & ~over
            for i in np.flatnonzero(at_segment).tolist():
                b = int(F[i])
                segment = int(s_new[i]) // self.gamma - 1
                pending = [
                    j
                    for j in self._pending[b].pop(segment, [])
                    if state.remaining[b, j]
                ]
                if pending:
                    self._start_sem(b, pending)

    def _build_superstep(self, Bs: np.ndarray, state) -> list:
        """Start due chains, recover pauses, and assign signatures.

        Returns the trials that still need a key this step (signature
        assigned or fallback entered); trials keyed directly (the one-shot
        prelude-then-fallback quirk) are excluded.
        """
        nit = self._n_items_arr
        pos = self.chain_pos[Bs]
        # The scalar loop's pre-build check: a live trial whose chains
        # have all finished is an inconsistent execution.
        if bool((pos >= nit).all(axis=1).any()):
            raise ReproError(
                "SUU-C chains all finished but jobs remain; "
                "inconsistent execution state"
            )
        tau = self.tau[Bs]
        dr = self.delay_remaining[Bs]
        std = self.started[Bs]
        s = self.superstep[Bs]

        # Chain starts, expired-pause recovery (resolved by the
        # segment-boundary SEM run), and the (chain -> block item, tau)
        # signature encoding run as one kernel transition over the
        # gathered (trials, chains) cursors.
        pause1, pause1_jobs, pause2, pause2_jobs, enc = kernels.chain_build(
            Bs, pos, tau, dr, std, self.delays[Bs], s, state.remaining,
            self._kind, self._ilen, self._need, self._ijob, nit,
            self._tmult,
        )

        self.chain_pos[Bs] = pos
        self.tau[Bs] = tau
        self.delay_remaining[Bs] = dr
        self.started[Bs] = std
        self._register_deferred(
            Bs, (pause1, pause1_jobs) if pause1.any() else None, s
        )
        self._register_deferred(
            Bs, (pause2, pause2_jobs) if pause2.any() else None, s
        )

        again: list = []
        keys = self._keys
        for i, b in enumerate(Bs.tolist()):
            sig_bytes = enc[i].tobytes()
            sid = self._sig_ids.get(sig_bytes)
            if sid is None:
                sid = self._compile_signature(sig_bytes, enc[i])
            congestion = self._sig_congestion[sid]
            if congestion > self.stats["max_congestion"]:
                self.stats["max_congestion"] = congestion
            if self.enable_fallback and congestion > self.congestion_limit:
                self.stats["fallback"] = True
                self.phase[b] = _FALLBACK
                if self._sig_n_prelude[sid] > 0:
                    # The scalar loop drains exactly one already-queued
                    # prelude solo row before it notices the fallback
                    # phase; replicate that one-shot emission.
                    keys[b] = ("xfb", sid)
                else:
                    again.append(b)
            else:
                self.sig[b] = sid
                self.ptr[b] = 0
                again.append(b)
        return again

    def _compile_signature(self, sig_bytes: bytes, enc_row: np.ndarray) -> int:
        """Flatten one distinct superstep signature into shared rows.

        Entering blocks (``tau == 0``) contribute their prelude solo rows
        first, in chain order — the scalar policy's solo-queue emission
        order — followed by the congestion-expansion rows.  The row
        construction itself runs in :func:`repro.kernels.expand_signature`
        over the flat CSR tables built at construction; this method owns
        the memo bookkeeping.
        """
        rows, n_prelude, congestion = kernels.expand_signature(
            enc_row, self._tmult, self._ijob, self._prelude_len,
            self._pre_indptr, self._pre_machine, self._pre_count,
            self._step_indptr, self._step_machine, self._step_count,
            self.m, IDLE,
        )
        sid = len(self._sig_rows)
        self._sig_ids[sig_bytes] = sid
        self._sig_rows.append(rows)
        self._sig_congestion.append(int(congestion))
        self._sig_n_prelude.append(int(n_prelude))
        if sid >= self._sig_len_np.size:
            grown = np.zeros(2 * self._sig_len_np.size, dtype=np.int64)
            grown[: self._sig_len_np.size] = self._sig_len_np
            self._sig_len_np = grown
        self._sig_len_np[sid] = rows.shape[0]
        return sid

    # ------------------------------------------------------------------
    # Segment inner runs
    # ------------------------------------------------------------------
    def _start_sem(self, b: int, jobs_global: list[int]) -> None:
        jobs_global = np.array(sorted(jobs_global), dtype=np.int64)
        if self._g2l is None:
            g2l = np.full(int(self.job_map.max()) + 1, -1, dtype=np.int64)
            g2l[self.job_map] = np.arange(self.job_map.size)
            self._g2l = g2l
        jobs_local = self._g2l[jobs_global]
        if self.inner == "sem":
            self._sem[b] = _SegmentSemCursor(jobs_global, jobs_local, self.m)
        elif self.inner == "obl":
            # SUU-I-OBL solves LP1(jobs, 1/2) once at entry and repeats
            # the rounded schedule; the solve is shared per distinct
            # pending set through the round cache.
            sid = self._cache.schedule_id(0.5, jobs_local)
            self._sem[b] = _RepeatCursor(
                "sem-row", sid, self._cache.schedule(sid).length
            )
        else:  # "repeat": the plan's LP2 columns, no new solve
            lid = self._local_schedule_id(jobs_local)
            self._sem[b] = _RepeatCursor(
                "rep-row", lid, self._local_schedules[lid].length
            )
        self.sem_left[b] = jobs_global.size
        self._in_sem[b, jobs_global] = True
        self.phase[b] = _SEM
        self.stats["sem_runs"] += 1

    def _local_schedule_id(self, jobs_local: np.ndarray) -> int:
        """Register the ``inner="repeat"`` schedule for one pending set."""
        key = np.ascontiguousarray(jobs_local, dtype=np.int64).tobytes()
        lid = self._local_ids.get(key)
        if lid is None:
            schedule = long_repeat_schedule(
                self.plan, jobs_local, self.m, int(self.job_map.size)
            )
            lid = len(self._local_schedules)
            self._local_schedules.append(schedule)
            self._local_ids[key] = lid
        return lid

    def _sem_begin_round(self, cur: _SegmentSemCursor, remaining_local) -> None:
        cur.round += 1
        target = 2.0 ** (cur.round - 2)  # round 1 -> 1/2, doubling after
        cur.sid = self._cache.schedule_id(target, remaining_local)
        cur.step = 0

    def _sem_key(self, b: int, remaining_row: np.ndarray):
        cur = self._sem[b]
        if type(cur) is _RepeatCursor:
            if cur.length == 0:
                return ("idle",)
            return (cur.tag, cur.sid, cur.step % cur.length)
        if cur.mode == "serial":
            for gj in cur.jobs_global:
                if remaining_row[gj]:
                    return ("sem-serial", int(gj))
            return ("idle",)  # unreachable while sem_left > 0
        if cur.mode == "repeat":
            length = self._cache.schedule(cur.sid).length
            return ("sem-row", cur.sid, cur.step % length)
        while cur.sid is None or cur.step >= self._cache.schedule(cur.sid).length:
            remaining_local = cur.jobs_local[remaining_row[cur.jobs_global]]
            if remaining_local.size == 0:
                return ("idle",)
            if cur.round >= cur.n_rounds:
                if cur.universe_size <= self.m:
                    cur.mode = "serial"
                    return self._sem_key(b, remaining_row)
                cur.mode = "repeat"
                cur.step = 0
                if cur.sid is None or self._cache.schedule(cur.sid).length == 0:
                    self._sem_begin_round(cur, remaining_local)
                    cur.step = 0
                return self._sem_key(b, remaining_row)
            self._sem_begin_round(cur, remaining_local)
        return ("sem-row", cur.sid, cur.step)

    # ------------------------------------------------------------------
    # The phased-protocol surface
    # ------------------------------------------------------------------
    def prepare_step(self, state, members) -> None:
        """Advance every member trial to its next emitted row.

        Called once per engine step (before any ``phase_key`` query) with
        the trials this cursor is driving.  Signature-grouped stepping
        happens here: finish/build transitions run as whole-batch matrix
        updates, distinct signatures advance once through the memo, and
        the resulting keys are scattered into :meth:`key_of`'s table.
        """
        if state.t != self._seen_t:
            self._batch_step_update(state)
        pending = np.asarray(members, dtype=np.int64)
        keys = self._keys
        for _ in range(self._max_spins):
            if pending.size == 0:
                return
            ph = self.phase[pending]
            again: list = []

            fb = pending[ph == _FALLBACK]
            if fb.size:
                self._fallback_keys(fb, state)

            sem = pending[ph == _SEM]
            for b in sem.tolist():
                if self.sem_left[b] > 0:
                    keys[b] = self._sem_key(b, state.remaining[b])
                else:
                    self.phase[b] = _SUPER
                    again.append(b)

            sup = pending[ph == _SUPER]
            if sup.size:
                sid = self.sig[sup]
                has = sid >= 0
                built = sup[has]
                if built.size:
                    sids = sid[has]
                    room = self.ptr[built] < self._sig_len_np[sids]
                    emit = built[room]
                    for b, s_, p_ in zip(
                        emit.tolist(),
                        sids[room].tolist(),
                        self.ptr[emit].tolist(),
                    ):
                        keys[b] = ("x", s_, p_)
                    drained = built[~room]
                    if drained.size:
                        self._finish_superstep(drained, state)
                        again.extend(drained.tolist())
                fresh = sup[~has]
                if fresh.size:
                    again.extend(self._build_superstep(fresh, state))
            pending = np.asarray(again, dtype=np.int64)
        raise ReproError(
            f"SUU-C made no progress after {self._max_spins} internal transitions"
        )

    def key_of(self, trial: int):
        """Trial ``trial``'s phase key, computed by :meth:`prepare_step`.

        Keys group trials receiving identical rows this step: ``("x", sig,
        ptr)`` for signature rows (preludes + expansion), ``("xfb", sig)``
        for the one-shot prelude row preceding a congestion fallback,
        ``("sem-row", sid, step)`` / ``("rep-row", lid, step)`` /
        ``("sem-serial", job)`` for segment inner rows, ``("fb", job)``
        for the serial fallback, ``("idle",)`` otherwise.
        """
        return self._keys[trial]

    def _fallback_keys(self, fb: np.ndarray, state) -> None:
        runnable = (
            (state.remaining[fb] & state.eligible[fb])[:, self.topo_global]
        )
        any_run = runnable.any(axis=1)
        first = np.argmax(runnable, axis=1)
        keys = self._keys
        for i, b in enumerate(fb.tolist()):
            if any_run[i]:
                keys[b] = ("fb", int(self.topo_global[first[i]]))
            else:
                keys[b] = ("idle",)

    def dispatch(self, key, trials) -> np.ndarray:
        """The shared row for ``key``; advances the member trials' cursors."""
        tag = key[0]
        if tag == "x":
            self.ptr[np.asarray(trials, dtype=np.int64)] += 1
            return self._sig_rows[key[1]][key[2]]
        if tag == "sem-row" or tag == "rep-row":
            for b in trials:
                self._sem[b].step += 1
            row = self._row_memo.get(key)
            if row is None:
                if tag == "sem-row":
                    local = self._cache.schedule(key[1]).assignment_at(key[2])
                else:
                    local = self._local_schedules[key[1]].assignment_at(key[2])
                row = np.where(local >= 0, self.job_map[np.maximum(local, 0)], IDLE)
                self._row_memo[key] = row
            return row
        if tag == "xfb":
            # One-shot: the first queued prelude row of a superstep whose
            # congestion triggered the fallback (see _build_superstep).
            return self._sig_rows[key[1]][0]
        if tag == "idle":
            return self._idle_row
        # "sem-serial" / "fb": every machine on one job.
        row = self._row_memo.get(key)
        if row is None:
            row = np.full(self.m, key[1], dtype=np.int64)
            self._row_memo[key] = row
        return row
