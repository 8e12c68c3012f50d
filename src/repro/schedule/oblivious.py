"""Finite oblivious schedules.

A finite oblivious schedule fixes, for every timestep ``0..length-1``, the
full machine-to-job assignment in advance — no dependence on which jobs have
completed.  The LP-based algorithms build one from an
:class:`~repro.schedule.base.IntegralAssignment` by laying out each
machine's step budget job-by-job (the order is arbitrary per the paper; we
sort by job id for determinism).
"""

from __future__ import annotations

import numpy as np

from repro.schedule.base import (
    IDLE,
    BatchSimulationState,
    IntegralAssignment,
    SimulationState,
    VectorizedPolicy,
)

__all__ = ["FiniteObliviousSchedule", "RepeatingObliviousPolicy"]


class FiniteObliviousSchedule:
    """A fixed table of assignments: ``table[t, i]`` = job or IDLE.

    Parameters
    ----------
    table:
        Integer array of shape ``(length, m)``.
    """

    def __init__(self, table: np.ndarray):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
        if table.ndim != 2:
            raise ValueError(f"schedule table must be 2-D, got shape {table.shape}")
        if (table < IDLE).any():
            raise ValueError("schedule table entries must be >= IDLE (-1)")
        table.setflags(write=False)
        self.table = table

    @classmethod
    def from_assignment(cls, assignment: IntegralAssignment) -> "FiniteObliviousSchedule":
        """Lay out an integral assignment machine-by-machine.

        Machine ``i`` runs job ``j`` for ``x[i, j]`` consecutive steps, jobs
        in increasing id order; machines with less total work idle at the
        tail.  The schedule length is the assignment's load.
        """
        x = assignment.x
        loads = x.sum(axis=1, dtype=np.int64)
        length = int(loads.max()) if x.size else 0
        table = np.full((length, x.shape[0]), IDLE, dtype=np.int64)
        # Every step in row-major (machine, job) order; a step's time is
        # its running index minus its machine's first slot.
        machines, jobs = np.nonzero(x)
        steps = x[machines, jobs]
        slot_machine = np.repeat(machines, steps)
        first_slot = np.cumsum(loads) - loads
        times = np.arange(slot_machine.size) - first_slot[slot_machine]
        table[times, slot_machine] = np.repeat(jobs, steps)
        return cls(table)

    @property
    def length(self) -> int:
        """Number of timesteps the schedule spans."""
        return self.table.shape[0]

    @property
    def n_machines(self) -> int:
        """Number of machines the schedule drives."""
        return self.table.shape[1]

    def assignment_at(self, t: int) -> np.ndarray:
        """The assignment row for local time ``t`` (read-only view)."""
        if not (0 <= t < self.length):
            raise IndexError(f"step {t} outside schedule of length {self.length}")
        return self.table[t]

    def mass_per_step(self, ell: np.ndarray) -> np.ndarray:
        """Log mass delivered to each job at each step, shape ``(length, n)``.

        Row ``t`` holds the mass every job receives during step ``t``
        (assuming no job has completed).  Used by the exact oblivious-repeat
        sampler and by schedule-quality tests.
        """
        length, m = self.table.shape
        n = ell.shape[1]
        out = np.zeros((length, n), dtype=np.float64)
        for i in range(m):
            col = self.table[:, i]
            mask = col >= 0
            if mask.any():
                np.add.at(out, (np.nonzero(mask)[0], col[mask]), ell[i, col[mask]])
        return out


class RepeatingObliviousPolicy(VectorizedPolicy):
    """Run a finite oblivious schedule in a loop until all jobs complete.

    This is the execution model of SUU-I-OBL (Theorem 3): the schedule from
    the rounded LP1 solution is repeated; each full pass gives every job a
    constant success probability, so ``O(log n)`` passes suffice whp.

    Oblivious schedules are the canonical vectorizable family: the
    assignment depends only on the timestep, so the batched form is one
    broadcast row shared by every trial.
    """

    name = "repeat-oblivious"

    def __init__(self, schedule: FiniteObliviousSchedule):
        if schedule.length == 0:
            raise ValueError("cannot repeat an empty schedule")
        self.schedule = schedule
        self._step = 0

    def start(self, instance, rng) -> None:
        if instance.n_machines != self.schedule.n_machines:
            raise ValueError(
                f"schedule drives {self.schedule.n_machines} machines but the "
                f"instance has {instance.n_machines}"
            )
        self._step = 0

    def assign(self, state: SimulationState) -> np.ndarray:
        row = self.schedule.assignment_at(self._step % self.schedule.length)
        self._step += 1
        return row

    def assign_batch(self, state: BatchSimulationState) -> np.ndarray:
        # Lock-stepped trials all sit at global time state.t, so the scalar
        # step counter is simply the timestep.
        row = self.schedule.assignment_at(state.t % self.schedule.length)
        return np.broadcast_to(row, (state.n_trials, row.size))
