"""SUU-I-SEM: the semioblivious ``O(log log min{m, n})``-approximation
(Theorem 4).

The schedule runs in rounds.  Round 1 executes the oblivious schedule from
the rounded ``LP1(J, 1/2)`` solution once.  Round ``k`` (``2 <= k <= K``)
re-solves ``LP1(J_k, 2^(k-2))`` on the still-uncompleted jobs ``J_k`` —
targets *double* every round — and executes the resulting schedule once.
``K = ceil(log log min{m, n}) + 3`` rounds suffice except with tiny
probability; if jobs survive all ``K`` rounds:

* ``n <= m``: run the remaining jobs one at a time, each on **all**
  machines, until done (a trivial ``O(n)``-approximation, entered with
  probability at most ``1/n``);
* ``m < n``: keep repeating the round-``K`` schedule (each pass clears a
  surviving job with probability at least ``1 - 1/m^2``).

The competitive-analysis insight behind the doubling: a job alive at the
start of round ``k`` must have hidden threshold ``theta_j > 2^(k-3)``, so
the *offline* optimum itself had to give it that much mass — each round is
therefore ``O(T_OFF)`` long on the same hidden input.
"""

from __future__ import annotations

import math

import numpy as np

from repro.api.registry import register_policy
from repro.core.lp1 import solve_lp1
from repro.core.phased import (
    RoundScheduleCache,
    SemCursor,
    sem_advance,
    sem_phase_key,
    sem_row_for_key,
)
from repro.core.rounding import PAPER_SCALE, round_assignment
from repro.schedule.base import IDLE, PhasedPolicy, SimulationState
from repro.schedule.oblivious import FiniteObliviousSchedule

__all__ = ["SUUISemPolicy", "paper_round_count"]


def paper_round_count(n_jobs: int, n_machines: int) -> int:
    """``K = ceil(log2 log2 min{m, n}) + 3`` with small-value guards."""
    v = min(n_jobs, n_machines)
    if v <= 2:
        return 3  # log log v <= 0
    return int(math.ceil(math.log2(math.log2(v)))) + 3


@register_policy("sem", aliases=("suu-i-sem",), default_for=("independent",))
class SUUISemPolicy(PhasedPolicy):
    """The semioblivious doubling-rounds policy of Theorem 4.

    Parameters
    ----------
    jobs:
        Optional job universe (default: all jobs).  Used when SUU-C runs
        SEM on the long jobs of a segment.
    scale:
        Lemma 2 rounding scale.
    n_rounds:
        Override for ``K`` (the ablation bench sweeps this); ``None`` uses
        the paper's value.
    fallback:
        Disable to keep doubling forever instead of switching to the
        post-``K`` fallbacks (ablation only; the paper's analysis needs the
        fallback).

    Attributes
    ----------
    rounds_used:
        Number of LP rounds started during the last execution (diagnostic,
        read by the experiment harness).  Under grouped batch dispatch the
        policy drives many trials at once and this is the *maximum* round
        any trial reached.
    """

    name = "SUU-I-SEM"

    def __init__(
        self,
        jobs=None,
        scale: int = PAPER_SCALE,
        n_rounds: int | None = None,
        fallback: bool = True,
    ):
        self.jobs = None if jobs is None else tuple(sorted(set(int(j) for j in jobs)))
        self.scale = int(scale)
        self.n_rounds_override = n_rounds
        self.fallback = bool(fallback)
        self.rounds_used = 0
        self._instance = None
        self._universe: np.ndarray | None = None
        self._K = 0
        self._round = 0
        self._schedule: FiniteObliviousSchedule | None = None
        self._step = 0
        self._mode = "rounds"  # rounds | serial | repeat_last
        self._idle: np.ndarray | None = None
        self._all_machines: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _universe_and_rounds(self, instance) -> tuple[np.ndarray, int, int]:
        """The (mask, size, round budget K) triple both entry points need."""
        n = instance.n_jobs
        if self.jobs is None:
            universe = np.ones(n, dtype=bool)
            n_universe = n
        else:
            universe = np.zeros(n, dtype=bool)
            universe[list(self.jobs)] = True
            n_universe = len(self.jobs)
        K = (
            self.n_rounds_override
            if self.n_rounds_override is not None
            else paper_round_count(n_universe, instance.n_machines)
        )
        return universe, n_universe, K

    def start(self, instance, rng) -> None:
        self._instance = instance
        self._universe, self._n_universe, self._K = self._universe_and_rounds(
            instance
        )
        self._round = 0
        self.rounds_used = 0
        self._schedule = None
        self._step = 0
        self._mode = "rounds"
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)
        self._all_machines = np.empty(instance.n_machines, dtype=np.int64)

    def _remaining_universe(self, state: SimulationState) -> np.ndarray:
        return np.nonzero(state.remaining & self._universe)[0]

    def _begin_round(self, remaining_jobs: np.ndarray) -> None:
        """Solve the next round's LP and lay out its schedule."""
        self._round += 1
        self.rounds_used = self._round
        target = 2.0 ** (self._round - 2)  # round 1 -> 1/2, doubling after
        relaxation = solve_lp1(self._instance, jobs=remaining_jobs, target=target)
        assignment = round_assignment(relaxation, scale=self.scale)
        self._schedule = FiniteObliviousSchedule.from_assignment(assignment)
        self._step = 0

    def assign(self, state: SimulationState) -> np.ndarray:
        if self._instance is None:
            raise RuntimeError("policy used before start()")

        if self._mode == "serial":
            remaining = self._remaining_universe(state)
            if remaining.size == 0:
                return self._idle
            self._all_machines.fill(int(remaining[0]))
            return self._all_machines

        if self._mode == "repeat_last":
            row = self._schedule.assignment_at(self._step % self._schedule.length)
            self._step += 1
            return row

        # Round mode: advance to the next round when the current schedule
        # is exhausted (or not yet built).
        while self._schedule is None or self._step >= self._schedule.length:
            remaining = self._remaining_universe(state)
            if remaining.size == 0:
                return self._idle
            if self.fallback and self._round >= self._K:
                if self._n_universe <= self._instance.n_machines:
                    self._mode = "serial"
                    return self.assign(state)
                # m < n: repeat the Kth round's schedule forever.
                self._mode = "repeat_last"
                self._step = 0
                if self._schedule is None or self._schedule.length == 0:
                    self._begin_round(remaining)  # degenerate guard
                    self._mode = "repeat_last"
                    self._step = 0
                return self.assign(state)
            self._begin_round(remaining)
        row = self._schedule.assignment_at(self._step)
        self._step += 1
        return row

    # ------------------------------------------------------------------
    # Grouped batch dispatch (PhasedPolicy protocol)
    # ------------------------------------------------------------------
    def start_phased(self, instance, trial_rngs) -> None:
        # The scalar start() never touches its rng, so there is no
        # per-trial randomness to replay; all trials share one memoized
        # round-schedule cache and keep only a SemCursor each.
        self._instance = instance
        universe, _, K = self._universe_and_rounds(instance)
        self._universe = universe
        self._cache = RoundScheduleCache(instance, self.scale)
        self._cursors = [
            SemCursor(universe, K, self.fallback) for _ in trial_rngs
        ]
        self._pending = [None] * len(self._cursors)
        self.rounds_used = 0
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)
        self._all_machines = np.empty(instance.n_machines, dtype=np.int64)

    def phase_key(self, trial: int, state):
        cursor = self._cursors[trial]
        key = sem_phase_key(
            cursor,
            self._cache,
            state.remaining[trial],
            self._instance.n_machines,
        )
        if cursor.round > self.rounds_used:
            self.rounds_used = cursor.round
        self._pending[trial] = key
        return key

    def assign_group(self, state, trials) -> np.ndarray:
        key = self._pending[trials[0]]
        row = sem_row_for_key(key, self._cache, self._idle, self._all_machines)
        for k in trials:
            sem_advance(self._cursors[k], key)
        return row
