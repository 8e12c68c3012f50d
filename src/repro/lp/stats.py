"""Process-wide LP-wall counters: where solver time actually goes.

The LP layer's cost has to be *observable*: how many LPs HiGHS really
solved, and how long pure-Python / numpy model assembly took before
HiGHS ever ran.  This module holds those counters in one process-wide,
thread-safe object:

* ``lp_solves`` — calls into the HiGHS backend (:func:`repro.lp.solver.
  solve_lp`).  The ground truth for "distinct LP solves": caches reduce
  *this* number, never just their own hit counters.
* ``assembly_seconds`` — wall-clock spent writing the CSC arrays HiGHS
  consumes: :func:`repro.core.lp1.assemble_lp1` for every (LP1), and
  :meth:`repro.lp.model.LinearProgram.build_arrays` for every program
  built row by row ((LP2) and the stochastic baselines).

Thread safety matters because LPs are solved on several threads at once:
the request server's handler threads each drive their own HiGHS
instance, and these counters are the state they share.

The counters are cumulative per process.  Callers that want per-run
attribution snapshot before and diff after (:meth:`LPWallStats.snapshot`
/ :func:`lp_stats_delta`) — that is how :func:`repro.api.simulate`
reports per-request LP stats, including from pool workers (each worker
diffs its own counters around its chunk).
"""

from __future__ import annotations

import threading

__all__ = ["LPWallStats", "LP_STATS", "lp_stats_snapshot", "lp_stats_delta", "reset_lp_stats"]

#: The counter fields, in reporting order.
FIELDS = ("lp_solves", "assembly_seconds")


class LPWallStats:
    """Thread-safe additive counters (see module docstring for fields)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.lp_solves = 0
        self.assembly_seconds = 0.0

    def add(self, field: str, amount=1) -> None:
        """Atomically add ``amount`` to ``field``."""
        if field not in FIELDS:
            raise ValueError(f"unknown LP stats field {field!r}")
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def snapshot(self) -> dict:
        """A consistent copy of every counter."""
        with self._lock:
            return {name: getattr(self, name) for name in FIELDS}

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        with self._lock:
            self.lp_solves = 0
            self.assembly_seconds = 0.0


#: The process-wide instance every LP layer component reports into.
LP_STATS = LPWallStats()


def lp_stats_snapshot() -> dict:
    """Snapshot of the process-wide counters (picklable, pool-submittable)."""
    return LP_STATS.snapshot()


def lp_stats_delta(before: dict, after: dict | None = None) -> dict:
    """Per-run attribution: ``after - before`` field by field.

    ``after`` defaults to a fresh snapshot, so the usual pattern is
    ``before = lp_stats_snapshot(); ...work...; delta = lp_stats_delta(before)``.
    """
    if after is None:
        after = lp_stats_snapshot()
    return {name: after[name] - before[name] for name in FIELDS}


def reset_lp_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    LP_STATS.reset()
