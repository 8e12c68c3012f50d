"""Finite oblivious schedules.

A finite oblivious schedule fixes, for every timestep ``0..length-1``, the
full machine-to-job assignment in advance — no dependence on which jobs have
completed.  The LP-based algorithms build one from an
:class:`~repro.schedule.base.IntegralAssignment` by laying out each
machine's step budget job-by-job (the order is arbitrary per the paper; we
sort by job id for determinism).

Repeating a schedule until every job completes is SUU-I-OBL's execution
model (:class:`RepeatingObliviousPolicy`).  On independent jobs under SUU*
thresholds (and, by Theorem 10, for SUU's distribution) that run has a
closed form: a job completes at the first step at which its running mass
reaches its threshold, so
:meth:`FiniteObliviousSchedule.repeat_completions` finds every completion
by threshold lookup, bit-identical to stepping the engine.  The batch
engine and the exact sampler
(:func:`repro.sim.montecarlo.sample_oblivious_repeat_makespans`) both use
it.
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

#: Cells (jobs x steps) of running mass :meth:`FiniteObliviousSchedule.
#: repeat_completions` holds at once: whole passes, at least one.
_BLOCK_CELLS = 1 << 16


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
        (assuming no job has completed), each job's machines summed in
        ascending order from 0.0 — the additions of the engines' step, so
        the sums are bit-equal to theirs.
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

    def repeat_completions(
        self, ell: np.ndarray, theta: np.ndarray, max_steps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Completion steps of independent jobs when this schedule repeats
        from step 0, under SUU* thresholds.

        Row ``b`` of ``theta`` (shape ``(B, n)``) is one trial's thresholds.
        Job ``j`` completes at the first step whose mass for it is positive
        and whose running mass reaches ``theta[b, j]`` (a threshold <= 0
        therefore completes at the job's first step with positive mass).
        The running masses are built by the engines' own float additions:
        the :meth:`mass_per_step` sums added one step at a time from 0.0,
        in blocks of whole passes that each continue the previous block's
        sums (so memory stays bounded by the block, not the horizon), and
        one ``np.searchsorted`` per job and block finds the step.  The
        result is bit-identical to stepping the engine.

        Returns ``(completion_times, busy)``: the ``(B, n)`` 1-based
        completion steps and the ``(B,)`` machine-steps spent on
        uncompleted jobs.  A job that does not complete within
        ``max_steps`` steps reads 0, so a trial finished within the horizon
        iff its row has no 0 (only such rows' busy counts are whole).  When
        the schedule is empty, or some job gets no positive mass in a pass,
        no trial can finish: the routine returns at once with every entry
        0.  Job ids must lie in ``[-1, n)``.
        """
        B, n = theta.shape
        length = self.length
        completion = np.zeros((B, n), dtype=np.int64)
        busy = np.zeros(B, dtype=np.int64)
        per_step = self.mass_per_step(ell).T  # (n, length)
        if length == 0 or not (per_step > 0.0).any(axis=1).all():
            return completion, busy
        passes = max(1, _BLOCK_CELLS // (n * length))
        width = passes * length
        # Each job's running mass and running cell count (its busy
        # machine-steps) over one block, after a leading carry column.
        sums = np.zeros((n, width + 1), dtype=np.float64)
        block = np.tile(per_step, passes)
        rows, machines = np.nonzero(self.table >= 0)
        cells = np.bincount(
            self.table[rows, machines] * length + rows, minlength=n * length
        ).reshape(n, length)
        counts = np.zeros((n, width + 1), dtype=np.int64)
        np.cumsum(np.tile(cells, passes), axis=1, out=counts[:, 1:])
        # For non-negative sums, "> 0" is ">= the smallest positive float".
        tiny = np.nextafter(0.0, 1.0)
        pending = [np.arange(B)] * n
        start = 0
        while start < max_steps and any(p.size for p in pending):
            sums[:, 0] = sums[:, -1]  # the previous block's running sums
            sums[:, 1:] = block
            # Sequential additions, as the engines accrue mass.
            np.cumsum(sums, axis=1, out=sums)
            steps = min(width, max_steps - start)
            for j, trials in enumerate(pending):
                if not trials.size:
                    continue
                at = np.searchsorted(
                    sums[j, 1 : steps + 1], np.maximum(theta[trials, j], tiny)
                )
                done = at < steps
                finished, at = trials[done], at[done] + 1
                completion[finished, j] = start + at
                busy[finished] += start // width * counts[j, -1] + counts[j, at]
                pending[j] = trials[~done]
            start += steps
        return completion, busy


class RepeatingObliviousPolicy(VectorizedPolicy):
    """Run a finite oblivious schedule in a loop until all jobs complete.

    This is the execution model of SUU-I-OBL (Theorem 3): the schedule from
    the rounded LP1 solution is repeated; each full pass gives every job a
    constant success probability, so ``O(log n)`` passes suffice whp.

    Oblivious schedules are the canonical vectorizable family: the
    assignment depends only on the timestep, so the batched form is one
    broadcast row shared by every trial.  The policy also declares what it
    repeats (:attr:`repeated_schedule`), which lets the batch engine
    compute threshold-driven runs on independent jobs in closed form
    (:meth:`FiniteObliviousSchedule.repeat_completions`) instead of
    stepping them.  A subclass that builds its schedule in ``start`` sets
    ``self.schedule`` there; one whose rows are not this repeat must
    override :attr:`repeated_schedule` to return None.
    """

    name = "repeat-oblivious"

    def __init__(self, schedule: FiniteObliviousSchedule):
        if schedule.length == 0:
            raise ValueError("cannot repeat an empty schedule")
        self.schedule: FiniteObliviousSchedule | None = schedule
        self._step = 0

    @property
    def repeated_schedule(self) -> FiniteObliviousSchedule | None:
        """The schedule this policy repeats from step 0 (None before it
        has one)."""
        return self.schedule

    def start(self, instance, rng) -> None:
        if instance.n_machines != self.schedule.n_machines:
            raise ValueError(
                f"schedule drives {self.schedule.n_machines} machines but the "
                f"instance has {instance.n_machines}"
            )
        self._step = 0

    def _row(self, t: int) -> np.ndarray:
        """The assignment at timestep ``t``: the schedule's row ``t`` mod
        its length (an empty schedule idles every machine)."""
        if self.schedule is None:
            raise RuntimeError("policy used before start()")
        if self.schedule.length == 0:
            return np.full(self.schedule.n_machines, IDLE, dtype=np.int64)
        return self.schedule.assignment_at(t % self.schedule.length)

    def assign(self, state: SimulationState) -> np.ndarray:
        row = self._row(self._step)
        self._step += 1
        return row

    def assign_batch(self, state: BatchSimulationState) -> np.ndarray:
        # Lock-stepped trials all sit at global time state.t, so the scalar
        # step counter is simply the timestep.
        row = self._row(state.t)
        return np.broadcast_to(row, (state.n_trials, row.size))
