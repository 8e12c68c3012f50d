"""SUU-C: the disjoint-chains algorithm (Section 4, Theorem 9).

Construction (all at ``start()``):

1. Solve (LP2) and round it (Lemma 6) into an integral assignment whose
   load and chain lengths are ``O(t_LP2)``.
2. Compile each chain into a *chain program* ``Σ_k``: one oblivious block
   per short job (repeated adaptively until the job completes); each long
   job (length ``d̂_j > γ = t_LP2 / log2(n+m)``) becomes a *pause* of ``γ``
   supersteps.
3. If ``t_LP2`` exceeds ``poly(n, m)``, round block step counts down to
   multiples of ``Δ = ceil(t_LP2 / nm)`` and re-insert the lost steps as
   solo *preludes* (real steps executing only that job) — the trick of
   Section 4 that keeps the delay range polynomial.
4. Draw one random start delay per chain from ``{0, Δ, ..., H}`` (``H`` =
   assignment load); Theorem 7 gives congestion
   ``O(log(n+m)/log log(n+m))`` whp.

Execution (per engine step): chains advance superstep by superstep; each
superstep is *flattened* into ``c(s)`` real steps (one per unit of
congestion).  After every segment of ``γ`` supersteps, the policy suspends
the chains and runs SUU-I-SEM on the long jobs whose pauses started in that
segment, resuming once they complete.  If congestion or runtime exceeds
the high-probability bounds, the policy falls back to the trivial
``O(n)``-approximation (all machines on one eligible job at a time), which
the paper invokes with probability at most ``1/n``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.api.registry import register_policy
from repro.core.chain_batch import (
    ChainCursorBatch,
    long_repeat_schedule,
    prelude_rows,
)
from repro.core.lp2 import round_lp2, solve_lp2
from repro.core.phased import shared_solve_cache
from repro.core.rounding import PAPER_SCALE
from repro.core.suu_i_sem import SUUISemPolicy
from repro.errors import ReproError
from repro.instance.chains import extract_chains
from repro.schedule.base import IDLE, PhasedPolicy, SimulationState
from repro.schedule.oblivious import RepeatingObliviousPolicy
from repro.schedule.pseudo import JobBlock, Pause, build_chain_programs, draw_delays

__all__ = ["SUUCPolicy"]


@dataclass(frozen=True)
class _ChainPlan:
    """Trial-independent SUU-C preparation (everything before the delays).

    The LP2 solve, Lemma 6 rounding, and chain-program compilation depend
    only on the instance and the policy's configuration — no randomness —
    so trials and batches share one plan through the process solve cache
    (:meth:`SUUCPolicy.prepare_plan`) instead of re-solving per trial.
    """

    chains: tuple
    t_star: float
    gamma: int
    unit: int
    programs: tuple
    horizon: int
    n_long_jobs: int
    congestion_limit: float
    superstep_limit: float
    topo: tuple
    #: Rounded LP2 columns of the long (paused) jobs, as
    #: ``((job, ((machine, steps), ...)), ...)`` — the raw material of the
    #: ``inner="repeat"`` segment subroutine (no re-solve, just repeat).
    long_steps: tuple = ()


@dataclass
class _ChainState:
    """Mutable execution cursor for one chain program."""

    items: tuple
    pos: int = 0
    tau: int = 0
    pause_left: int = 0
    started: bool = False
    entering: bool = False

    @property
    def done(self) -> bool:
        return self.pos >= len(self.items)

    @property
    def item(self):
        return self.items[self.pos]


@register_policy("suu-c", default_for=("chains",))
class SUUCPolicy(PhasedPolicy):
    """The chains algorithm of Theorem 9 as an adaptive policy.

    Parameters
    ----------
    scale:
        Lemma 6 rounding scale (paper: 6).
    enable_delays:
        Random chain start delays (Theorem 7).  Disabling is the E-DELAY
        ablation: congestion may grow to Θ(number of chains).
    enable_segments:
        Long-job handling.  Disabling treats every job as short, so very
        long blocks serialize entire machines (the A-SEG ablation).
    enable_fallback:
        Switch to the serial ``O(n)``-approximation when congestion or the
        superstep count exceeds their high-probability bounds.
    congestion_factor, length_factor:
        Constants in those bounds (the paper only fixes them up to O(·)).
    inner:
        Independent-jobs subroutine for segment long-job runs: ``"sem"``
        (the paper's SUU-I-SEM, giving the ``log log`` inner factor),
        ``"obl"`` (solve LP1 on the pending long jobs once and repeat the
        schedule until done — the Lin–Rajaraman style ``log n`` inner
        factor, used as the Table 1 comparator), or ``"repeat"`` (repeat
        the already-rounded LP2 columns of the pending jobs with no new
        solve at all — the cheapest oblivious-inner variant).
    chains:
        Explicit chain list (job id lists).  Default: extracted from the
        instance's precedence graph, which must be disjoint chains.

    Attributes
    ----------
    stats:
        Per-execution diagnostics (congestion profile, superstep count,
        number of SEM segment runs, fallback trigger), populated as the
        execution proceeds; read by the experiment harness.  Under
        discipline v2 grouped dispatch these are the array cursors'
        batch-wide stats.

    Grouped batch dispatch covers discipline v2 only: v1 rows depend on
    each trial's own chain delays, so the batch kernel runs one scalar
    policy per trial there (see :mod:`repro.sim.batch`); their segment
    SEM rounds still share each LP1 schedule through the process solve
    cache (:func:`~repro.core.phased.round_schedule`).
    """

    name = "SUU-C"
    phased_disciplines = ("v2",)

    def __init__(
        self,
        scale: int = PAPER_SCALE,
        *,
        enable_delays: bool = True,
        enable_segments: bool = True,
        enable_fallback: bool = True,
        congestion_factor: float = 16.0,
        length_factor: float = 64.0,
        inner: str = "sem",
        chains=None,
    ):
        if inner not in ("sem", "obl", "repeat"):
            raise ValueError(
                f"inner must be 'sem', 'obl' or 'repeat', got {inner!r}"
            )
        self.scale = int(scale)
        self.enable_delays = bool(enable_delays)
        self.enable_segments = bool(enable_segments)
        self.enable_fallback = bool(enable_fallback)
        self.congestion_factor = float(congestion_factor)
        self.length_factor = float(length_factor)
        self.inner = inner
        self.explicit_chains = chains
        self.stats: dict = {}
        self._instance = None
        #: Array-cursor engine under RNG discipline v2 (None on v1 paths).
        self._v2: ChainCursorBatch | None = None

    # ------------------------------------------------------------------
    def _plan_cache_key(self, instance) -> tuple:
        """Cross-batch memo key: everything :meth:`_prepare` depends on."""
        chains_key = (
            None
            if self.explicit_chains is None
            else tuple(tuple(map(int, c)) for c in self.explicit_chains)
        )
        return (
            "chain-plan",
            instance.digest(),
            self.scale,
            self.enable_segments,
            self.congestion_factor,
            self.length_factor,
            chains_key,
        )

    def prepare_plan(self, instance) -> _ChainPlan:
        """:meth:`_prepare` through the cross-batch process solve cache.

        The plan is an immutable pure function of ``(instance, config)``,
        so worker chunks and grid cells share one LP2 solve per distinct
        key instead of re-solving per batch.
        """
        return shared_solve_cache().lookup(
            self._plan_cache_key(instance), lambda: self._prepare(instance)
        )

    def _prepare(self, instance) -> _ChainPlan:
        """The trial-independent construction: LP2, rounding, programs.

        Deterministic (consumes no randomness), so one plan can be shared
        verbatim by every trial of a batch.
        """
        n, m = instance.n_jobs, instance.n_machines
        if self.explicit_chains is not None:
            chains = [list(map(int, c)) for c in self.explicit_chains]
        else:
            chains = extract_chains(instance.graph)

        relaxation = solve_lp2(instance, chains)
        assignment = round_lp2(relaxation, scale=self.scale)
        t_star = relaxation.t_star

        log_nm = max(1.0, math.log2(n + m))
        gamma = max(1, int(math.ceil(t_star / log_nm)))
        gamma_for_programs = gamma if self.enable_segments else None

        poly_cap = n * m
        unit = 1 if t_star <= poly_cap else int(math.ceil(t_star / poly_cap))

        programs = build_chain_programs(
            chains, assignment, gamma=gamma_for_programs, unit=unit
        )
        # Long (paused) jobs keep their rounded LP2 columns in the plan so
        # the inner="repeat" subroutine can replay them without a solve.
        x = assignment.x
        long_steps = []
        if gamma_for_programs is not None:
            for chain in chains:
                for j in chain:
                    if int(x[:, j].max()) > gamma_for_programs:
                        long_steps.append((
                            int(j),
                            tuple(
                                (int(i), int(x[i, j]))
                                for i in np.nonzero(x[:, j])[0]
                            ),
                        ))
        horizon = assignment.load
        loglog = math.log2(max(2.0, math.log2(max(4.0, float(n + m)))))
        congestion_limit = max(
            4.0, self.congestion_factor * math.log2(n + m) / max(1.0, loglog)
        )
        superstep_limit = self.length_factor * (
            t_star + horizon + gamma + n + m + 16.0
        )
        return _ChainPlan(
            chains=tuple(tuple(c) for c in chains),
            t_star=t_star,
            gamma=gamma,
            unit=unit,
            programs=tuple(programs),
            horizon=horizon,
            n_long_jobs=sum(
                1 for p in programs for it in p.items if isinstance(it, Pause)
            ),
            congestion_limit=congestion_limit,
            superstep_limit=superstep_limit,
            topo=tuple(instance.graph.topological_order()),
            long_steps=tuple(long_steps),
        )

    def start(self, instance, rng) -> None:
        self._instance = instance
        self._rng = rng
        self._v2 = None
        plan = self.prepare_plan(instance)
        self._plan = plan
        self._programs = plan.programs
        self._gamma = plan.gamma
        self._unit = plan.unit
        self._congestion_limit = plan.congestion_limit
        self._superstep_limit = plan.superstep_limit
        self._topo = plan.topo

        delays = draw_delays(
            len(plan.chains), plan.horizon, rng, unit=plan.unit,
            enabled=self.enable_delays,
        )
        self._delays = delays

        self._chain_states = [_ChainState(items=p.items) for p in plan.programs]
        self._s = 0  # next superstep to build
        self._expansion: list[np.ndarray] = []
        self._exp_ptr = 0
        self._in_flight = False
        self._solo: deque[np.ndarray] = deque()
        self._pause_by_segment: dict[int, list[int]] = {}
        self._phase = "super"  # super | sem | fallback
        self._sem_policy: SUUISemPolicy | None = None
        self._sem_jobs: np.ndarray | None = None
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)

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

    # ------------------------------------------------------------------
    # Chain bookkeeping helpers
    # ------------------------------------------------------------------
    def _enter_item(self, cs: _ChainState, deferred_pauses: list[int]) -> None:
        """Initialize the chain's current item after entering it."""
        if cs.done:
            return
        item = cs.item
        if isinstance(item, JobBlock):
            cs.tau = 0
            cs.entering = True
        else:
            cs.pause_left = item.length
            deferred_pauses.append(item.job)

    def _advance(self, cs: _ChainState, deferred_pauses: list[int]) -> None:
        cs.pos += 1
        self._enter_item(cs, deferred_pauses)

    def _register_pauses(self, jobs: list[int], superstep: int) -> None:
        if not jobs:
            return
        segment = superstep // self._gamma
        self._pause_by_segment.setdefault(segment, []).extend(jobs)

    def _enqueue_prelude(self, block: JobBlock) -> None:
        if block.prelude_length == 0:
            return
        self._solo.extend(
            prelude_rows(block, block.job, self._instance.n_machines)
        )

    # ------------------------------------------------------------------
    def _build_superstep(self, state: SimulationState) -> None:
        """Prepare the expansion (flattened rows) of superstep ``self._s``."""
        s = self._s
        m = self._instance.n_machines
        deferred: list[int] = []

        for cs, delay in zip(self._chain_states, self._delays):
            if not cs.started and delay <= s:
                cs.started = True
                self._enter_item(cs, deferred)
            # Re-check pauses that expired while their job was incomplete
            # (resolved by the segment-boundary SEM run).
            if (
                cs.started
                and not cs.done
                and isinstance(cs.item, Pause)
                and cs.pause_left == 0
                and not state.remaining[cs.item.job]
            ):
                self._advance(cs, deferred)
        self._register_pauses(deferred, s)

        per_machine: list[list[int]] = [[] for _ in range(m)]
        for cs in self._chain_states:
            if not (cs.started and not cs.done):
                continue
            item = cs.item
            if isinstance(item, Pause):
                continue
            if cs.entering:
                self._enqueue_prelude(item)
                cs.entering = False
            for i in item.machines_at(cs.tau):
                per_machine[i].append(item.job)

        congestion = max((len(lst) for lst in per_machine), default=0)
        self.stats["max_congestion"] = max(self.stats["max_congestion"], congestion)
        if self.enable_fallback and congestion > self._congestion_limit:
            self.stats["fallback"] = True
            self._phase = "fallback"
            return
        rows: list[np.ndarray] = []
        for r in range(congestion):
            row = self._idle.copy()
            for i in range(m):
                if r < len(per_machine[i]):
                    row[i] = per_machine[i][r]
            rows.append(row)
        self._expansion = rows
        self._exp_ptr = 0
        self._in_flight = True

    def _finish_superstep(self, state: SimulationState) -> None:
        """Advance chain cursors after superstep ``self._s`` fully executed."""
        deferred: list[int] = []
        for cs in self._chain_states:
            if not (cs.started and not cs.done):
                continue
            item = cs.item
            if isinstance(item, JobBlock):
                cs.tau += 1
                if cs.tau >= max(1, item.length):
                    if state.remaining[item.job]:
                        cs.tau = 0
                        cs.entering = True  # retry the block (re-insert prelude)
                    else:
                        self._advance(cs, deferred)
            else:
                if cs.pause_left > 0:
                    cs.pause_left -= 1
                if cs.pause_left == 0 and not state.remaining[item.job]:
                    self._advance(cs, deferred)
        self._s += 1
        self.stats["supersteps"] = self._s
        self._in_flight = False
        self._register_pauses(deferred, self._s)

        if self.enable_fallback and self._s > self._superstep_limit:
            self.stats["fallback"] = True
            self._phase = "fallback"
            return
        if self.enable_segments and self._s % self._gamma == 0:
            segment = self._s // self._gamma - 1
            pending = [
                j
                for j in self._pause_by_segment.pop(segment, [])
                if state.remaining[j]
            ]
            if pending:
                self._start_sem(pending)

    def _start_sem(self, jobs: list[int]) -> None:
        self._sem_jobs = np.array(sorted(jobs), dtype=np.int64)
        if self.inner == "sem":
            self._sem_policy = SUUISemPolicy(jobs=jobs, scale=self.scale)
        elif self.inner == "obl":
            from repro.core.suu_i_obl import SUUIOblPolicy

            self._sem_policy = SUUIOblPolicy(jobs=jobs, scale=self.scale)
        else:  # "repeat": re-run the plan's rounded LP2 columns, no solve
            self._sem_policy = RepeatingObliviousPolicy(
                long_repeat_schedule(
                    self._plan, self._sem_jobs, self._instance.n_machines,
                    self._instance.n_jobs,
                )
            )
        self._sem_policy.start(self._instance, self._rng.spawn(1)[0])
        self._phase = "sem"
        self.stats["sem_runs"] += 1

    def _fallback_assign(self, state: SimulationState) -> np.ndarray:
        for j in self._topo:
            if state.remaining[j] and state.eligible[j]:
                row = self._idle.copy()
                row[:] = j
                return row
        return self._idle

    # ------------------------------------------------------------------
    def assign(self, state: SimulationState) -> np.ndarray:
        if self._instance is None:
            raise RuntimeError("policy used before start()")
        if self._phase == "fallback":
            return self._fallback_assign(state)

        # Internal machinery may advance through several zero-length
        # supersteps (all chains paused/delayed) before emitting a real
        # step; bound the loop so bugs surface as errors, not hangs.
        max_spins = int(self._superstep_limit) + self._gamma + 1_000
        for _ in range(max_spins):
            if self._solo:
                return self._solo.popleft()
            if self._phase == "fallback":
                return self._fallback_assign(state)
            if self._phase == "sem":
                if bool(state.remaining[self._sem_jobs].any()):
                    return self._sem_policy.assign(state)
                self._phase = "super"
                continue
            if self._in_flight:
                if self._exp_ptr < len(self._expansion):
                    row = self._expansion[self._exp_ptr]
                    self._exp_ptr += 1
                    return row
                self._finish_superstep(state)
                continue
            if all(cs.done for cs in self._chain_states):
                if state.remaining.any():
                    raise ReproError(
                        "SUU-C chains all finished but jobs remain; "
                        "inconsistent execution state"
                    )
                return self._idle
            self._build_superstep(state)
        raise ReproError(
            f"SUU-C made no progress after {max_spins} internal transitions"
        )

    # ------------------------------------------------------------------
    # Grouped batch dispatch (discipline v2): array-based chain cursors
    # keyed by signature (see core.chain_batch)
    # ------------------------------------------------------------------
    def _draw_v2_delays(
        self, streams, n_trials: int, plan: _ChainPlan, *key: int
    ) -> np.ndarray:
        """One ``(n_trials, n_chains)`` delay matrix from the v2 streams.

        Same distribution as v1's per-trial
        :func:`~repro.schedule.pseudo.draw_delays` (uniform over
        ``{0, Δ, ..., ⌊H/Δ⌋·Δ}``), drawn batch-wide.  ``key``
        distinguishes independent draws (SUU-T passes its block index).
        Split out so tests can inject v1-drawn delays and cross-check the
        array cursors bit-for-bit against the object cursors.
        """
        n_chains = len(plan.chains)
        if not self.enable_delays or plan.horizon <= 0:
            return np.zeros((n_trials, n_chains), dtype=np.int64)
        slots = plan.horizon // plan.unit + 1
        return streams.policy_integers(n_trials, n_chains, slots, *key) * plan.unit

    def start_phased_v2(self, instance, streams, n_trials: int) -> None:
        plan = self.prepare_plan(instance)
        self._instance = instance
        delays = self._draw_v2_delays(streams, n_trials, plan)
        self._v2 = ChainCursorBatch(
            plan,
            instance,
            delays,
            n_machines=instance.n_machines,
            job_map=np.arange(instance.n_jobs, dtype=np.int64),
            n_engine_jobs=instance.n_jobs,
            scale=self.scale,
            inner=self.inner,
            enable_segments=self.enable_segments,
            enable_fallback=self.enable_fallback,
        )
        self.stats = self._v2.stats

    def begin_step(self, state) -> None:
        # Signature-grouped stepping: all live trials advance to their
        # next emitted row in one vectorized pass per engine step.
        self._v2.prepare_step(state, np.flatnonzero(state.active))

    def phase_key(self, trial: int, state):
        return self._v2.key_of(trial)

    def assign_group(self, state, trials) -> np.ndarray:
        return self._v2.dispatch(self._v2.key_of(int(trials[0])), trials)
