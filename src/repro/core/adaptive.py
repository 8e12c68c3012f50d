"""Fully adaptive LP policy — exploring the paper's concluding conjecture.

The conclusion states: *"we believe that a fully adaptive schedule should
be able to trim an O(log log(min{m,n})) factor from our bounds"*.  This
module implements the natural candidate: re-derive the LP assignment as
jobs complete instead of committing to oblivious rounds.

:class:`SUUIAdaptiveLPPolicy` keeps a rounded ``LP1(remaining, 1/2)``
schedule in hand and *re-solves as soon as the remaining set has shrunk
enough* (by a configurable factor, default 2) or the schedule runs out.
Compared to SUU-I-SEM it never "wastes" steps finishing a round whose jobs
have mostly completed, and it never doubles targets — adaptivity replaces
the doubling.  No approximation guarantee is known (that is exactly the
open question); the A-ADAPT ablation measures it against SEM and greedy.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_policy
# perfbench/tracer.py wraps these two import sites; the live calls run in round_schedule.
from repro.core.lp1 import solve_lp1  # noqa: F401
from repro.core.phased import RoundScheduleCache, round_schedule
from repro.core.rounding import PAPER_SCALE, round_assignment  # noqa: F401
from repro.schedule.base import IDLE, PhasedPolicy, SimulationState
from repro.schedule.oblivious import FiniteObliviousSchedule

__all__ = ["SUUIAdaptiveLPPolicy"]


@register_policy("adapt", aliases=("suu-i-adapt", "adaptive"))
class SUUIAdaptiveLPPolicy(PhasedPolicy):
    """Re-solve the LP whenever enough jobs have completed.

    Parameters
    ----------
    resolve_factor:
        Re-solve when ``remaining <= last_solved_count / resolve_factor``.
        ``1.0`` re-solves after every completion (most adaptive, most LP
        time); large values degenerate toward SUU-I-OBL.
    target:
        Per-schedule mass target ``L`` (default 1/2 as in round 1 of SEM).

    Attributes
    ----------
    lp_solves:
        Number of re-solves in the last execution (diagnostic).  A
        re-solve served by the process solve cache counts too, so this is
        the policy's adaptivity, not its LP cost (``report.lp_stats``
        counts real solves).  Under grouped dispatch it counts the
        batch's *distinct* re-solves.
    """

    name = "SUU-I-ADAPT"

    def __init__(
        self,
        resolve_factor: float = 2.0,
        target: float = 0.5,
        scale: int = PAPER_SCALE,
        jobs=None,
    ):
        if resolve_factor < 1.0:
            raise ValueError(f"resolve_factor must be >= 1, got {resolve_factor}")
        self.resolve_factor = float(resolve_factor)
        self.target = float(target)
        self.scale = int(scale)
        self.jobs = None if jobs is None else tuple(sorted(set(int(j) for j in jobs)))
        self.lp_solves = 0
        self._instance = None

    def _universe_mask(self, n: int) -> np.ndarray:
        if self.jobs is None:
            return np.ones(n, dtype=bool)
        mask = np.zeros(n, dtype=bool)
        mask[list(self.jobs)] = True
        return mask

    def start(self, instance, rng) -> None:
        self._instance = instance
        self._universe = self._universe_mask(instance.n_jobs)
        self.lp_solves = 0
        self._schedule: FiniteObliviousSchedule | None = None
        self._step = 0
        self._solved_count = -1
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)

    def _resolve(self, remaining_jobs: np.ndarray) -> None:
        self._schedule = round_schedule(
            self._instance, self.target, remaining_jobs, self.scale
        )
        self._step = 0
        self._solved_count = remaining_jobs.size
        self.lp_solves += 1

    def assign(self, state: SimulationState) -> np.ndarray:
        if self._instance is None:
            raise RuntimeError("policy used before start()")
        remaining = np.nonzero(state.remaining & self._universe)[0]
        if remaining.size == 0:
            return self._idle
        stale = (
            self._schedule is None
            or self._step >= self._schedule.length
            or remaining.size * self.resolve_factor <= self._solved_count
        )
        if stale:
            self._resolve(remaining)
        row = self._schedule.assignment_at(self._step)
        self._step += 1
        return row

    # ------------------------------------------------------------------
    # Grouped batch dispatch (PhasedPolicy protocol)
    # ------------------------------------------------------------------
    def start_phased(self, instance, n_trials: int) -> None:
        # start() never touches its rng; trials keep a (schedule id, step,
        # solved-count) cursor each and share one memoized solve cache.
        # Re-solves hit the cache whenever another trial already adapted
        # to the same survivor set, so self.lp_solves counts *distinct*
        # LPs solved across the batch (the scalar count is per trial).
        self._instance = instance
        self._universe = self._universe_mask(instance.n_jobs)
        self._cache = RoundScheduleCache(instance, self.scale)
        self._sid = [None] * n_trials
        self._pos = [0] * n_trials
        self._solved_counts = [-1] * n_trials
        self._pending = [None] * n_trials
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)

    def phase_key(self, trial: int, state):
        remaining = np.flatnonzero(state.remaining[trial] & self._universe)
        if remaining.size == 0:
            key = ("idle",)
        else:
            sid = self._sid[trial]
            stale = (
                sid is None
                or self._pos[trial] >= self._cache.schedule(sid).length
                or remaining.size * self.resolve_factor
                <= self._solved_counts[trial]
            )
            if stale:
                sid = self._cache.schedule_id(self.target, remaining)
                self._sid[trial] = sid
                self._pos[trial] = 0
                self._solved_counts[trial] = remaining.size
                self.lp_solves = self._cache.solves
            key = ("row", sid, self._pos[trial])
        self._pending[trial] = key
        return key

    def assign_group(self, state, trials) -> np.ndarray:
        key = self._pending[trials[0]]
        if key[0] == "idle":
            return self._idle
        row = self._cache.schedule(key[1]).assignment_at(key[2])
        for k in trials:
            self._pos[k] += 1
        return row
