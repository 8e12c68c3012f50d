"""Level-by-level scheduling for layered (and general) DAGs.

The paper motivates SUU with MapReduce, whose dependency graph is a
complete bipartite DAG — "equivalent to two phases of independent jobs".
This module generalizes that observation: partition any DAG by longest-path
depth and run SUU-I-SEM on one level at a time.  Every edge goes from a
strictly lower to a higher level, so sequential level execution is always
precedence-safe.  For a DAG of depth ``D`` this gives an
``O(D log log min{m, n})`` guarantee against the per-level optima — not a
paper theorem (general DAGs are open there), but the natural extension the
introduction gestures at, and the right tool for MapReduce-shaped
workloads.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_policy
from repro.core.phased import (
    IDLE_KEY,
    RoundScheduleCache,
    SemCursor,
    sem_advance,
    sem_phase_key,
    sem_row_for_key,
)
from repro.core.rounding import PAPER_SCALE
from repro.core.suu_i_sem import SUUISemPolicy, paper_round_count
from repro.errors import ReproError
from repro.schedule.base import IDLE, PhasedPolicy, SimulationState

__all__ = ["LayeredPolicy"]


@register_policy("layered", default_for=("general",))
class LayeredPolicy(PhasedPolicy):
    """Sequential SUU-I-SEM over longest-path levels of any DAG.

    Attributes
    ----------
    stats:
        ``n_levels`` and per-level SEM round counts for the last *scalar*
        execution (grouped batch dispatch drives many trials at once and
        does not populate it).
    """

    name = "SUU-LAYERED"

    def __init__(self, scale: int = PAPER_SCALE):
        self.scale = int(scale)
        self.stats: dict = {}
        self._instance = None

    def start(self, instance, rng) -> None:
        self._instance = instance
        self._rng = rng
        levels = instance.graph.levels()
        self._level_jobs = [
            np.nonzero(levels == lvl)[0] for lvl in range(int(levels.max()) + 1)
        ]
        self._level_idx = -1
        self._sub: SUUISemPolicy | None = None
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)
        self.stats = {"n_levels": len(self._level_jobs), "rounds_per_level": []}

    def assign(self, state: SimulationState) -> np.ndarray:
        if self._instance is None:
            raise RuntimeError("policy used before start()")
        while True:
            if self._sub is not None and bool(
                state.remaining[self._level_jobs[self._level_idx]].any()
            ):
                return self._sub.assign(state)
            if self._sub is not None:
                self.stats["rounds_per_level"].append(self._sub.rounds_used)
            nxt = self._level_idx + 1
            if nxt >= len(self._level_jobs):
                if state.remaining.any():
                    raise ReproError("layered policy ran out of levels early")
                return self._idle
            self._level_idx = nxt
            self._sub = SUUISemPolicy(
                jobs=self._level_jobs[nxt].tolist(), scale=self.scale
            )
            self._sub.start(self._instance, self._rng.spawn(1)[0])

    # ------------------------------------------------------------------
    # Grouped batch dispatch (PhasedPolicy protocol)
    # ------------------------------------------------------------------
    def start_phased(self, instance, n_trials: int) -> None:
        self._instance = instance
        levels = instance.graph.levels()
        self._level_jobs = [
            np.nonzero(levels == lvl)[0] for lvl in range(int(levels.max()) + 1)
        ]
        # Every trial's cursor for a level shares the level's job array;
        # one solve cache serves all levels (keys embed the level's job
        # set, so levels can never collide).
        self._cache = RoundScheduleCache(instance, self.scale)
        self._trial_level = [-1] * n_trials
        self._trial_cursor: list[SemCursor | None] = [None] * n_trials
        self._pending = [None] * n_trials
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)
        self._all_machines = np.empty(instance.n_machines, dtype=np.int64)

    def _enter_level(self, trial: int, level: int) -> SemCursor:
        """Fresh per-level SEM cursor.

        The scalar path hands each level's sub-policy a spawned child
        generator.  SEM never reads it and nothing draws from the trial's
        policy generator afterwards, so the cursor needs no spawn to stay
        bit-identical to a scalar run.
        """
        self._trial_level[trial] = level
        jobs = self._level_jobs[level]
        cursor = SemCursor(
            jobs, paper_round_count(jobs.size, self._instance.n_machines)
        )
        self._trial_cursor[trial] = cursor
        return cursor

    def phase_key(self, trial: int, state):
        remaining_row = state.remaining[trial]
        level, cursor = self._trial_level[trial], self._trial_cursor[trial]
        while cursor is None or not remaining_row[self._level_jobs[level]].any():
            level += 1
            if level >= len(self._level_jobs):
                if remaining_row.any():
                    raise ReproError("layered policy ran out of levels early")
                self._pending[trial] = IDLE_KEY
                return self._pending[trial]
            cursor = self._enter_level(trial, level)
        key = sem_phase_key(
            cursor, self._cache, remaining_row, self._instance.n_machines
        )
        self._pending[trial] = key
        return key

    def assign_group(self, state, trials) -> np.ndarray:
        key = self._pending[trials[0]]
        row = sem_row_for_key(key, self._cache, self._idle, self._all_machines)
        for k in trials:
            cursor = self._trial_cursor[k]
            if cursor is not None:
                sem_advance(cursor, key)
        return row
