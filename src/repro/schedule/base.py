"""Scheduling policies and simulation state.

The paper defines a schedule as a function from history and time to an
assignment of machines to jobs.  We realize schedules as *policies*: objects
the simulator queries once per unit timestep.  The policy sees a
:class:`SimulationState` snapshot (time, remaining/eligible job sets,
accrued log mass) — exactly the information the paper allows a
polynomial-time schedule to condition on — and returns one job id (or
:data:`IDLE`) per machine.

Contract
--------
* ``start(instance, rng)`` is called once before the first step.  All
  randomness a policy uses must come from the ``rng`` it is given, so runs
  are reproducible.
* ``assign(state)`` is called exactly once per simulated timestep, in time
  order.  Policies may keep internal counters; the engine never rewinds.
* Assigning a machine to a *completed* job is allowed (the machine idles —
  the paper's ``⊥`` convention for concise schedules).  Assigning to a job
  whose predecessors are incomplete raises
  :class:`~repro.errors.ScheduleViolationError` in the engine.
* State snapshots are **live read-only views**: the engine mutates the
  underlying buffers in place between steps, so a snapshot is only valid
  *during* the ``assign`` call it was passed to.  Policies that need
  history must copy what they keep (``state.remaining.copy()``); writing
  to a snapshot raises (``writeable=False``).

Batched execution
-----------------
:class:`VectorizedPolicy` extends the contract to the trial-vectorized
kernel in :mod:`repro.sim.batch`: ``assign_batch`` receives a
:class:`BatchSimulationState` holding ``(rows, n_jobs)`` masks and
returns a ``(rows, m)`` assignment — one row per concurrently simulated
trial, all at the same global timestep (row ``b`` is trial
``state.trials[b]``; finished trials may be dropped between steps).  A
policy advertising batch support must be a *deterministic* function of
the instance and the state it is shown; that is what makes the batch
kernel's makespans trial-for-trial identical to the scalar SUU* engine
under shared thresholds (the rng passed to ``start_batch`` exists for
forward compatibility and must not influence assignments if that
guarantee is to hold).

Phase-grouped execution
-----------------------
:class:`PhasedPolicy` is the middle ground for *adaptive* policies, whose
assignments depend on which jobs completed in each trial and therefore
cannot be one broadcast row.  Their per-trial control state is coarse — a
round index, a segment index, a cursor into a solved schedule — so at any
global timestep the live trials fall into a small number of *phases* that
each map to one assignment row.  The batch kernel asks ``phase_key`` for
every live trial, partitions trials by key, and calls ``assign_group``
once per distinct key instead of once per trial; see
:mod:`repro.sim.batch` for the dispatch loop and the RNG discipline the
implementation must uphold.

A phased policy is started from the trial count alone
(:meth:`PhasedPolicy.start_phased`).  Under RNG discipline ``"v2"`` (see
:mod:`repro.util.rng`) a policy that defines
``start_phased_v2(instance, streams, n_trials)`` is started by it instead,
to draw matrix-valued policy randomness from the batch's
:class:`~repro.util.rng.BatchStreams` — SUU-C/SUU-T draw all chain delays
as one ``(n_trials, n_chains)`` matrix and run array-based chain cursors.

A phased policy declares the disciplines its grouped dispatch covers in
:attr:`PhasedPolicy.phased_disciplines`.  Under any other discipline the
batch kernel runs it like a policy with neither protocol: one scalar
policy per trial, lock-stepped (SUU-C/SUU-T under v1, whose rows depend
on each trial's own delay stream).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.util.rng import DISCIPLINES

__all__ = [
    "IDLE",
    "SimulationState",
    "BatchSimulationState",
    "Policy",
    "VectorizedPolicy",
    "PhasedPolicy",
    "supports_batch",
    "supports_phased",
    "IntegralAssignment",
]

#: Assignment value meaning "machine stays idle this step".
IDLE: int = -1


@dataclass(frozen=True)
class SimulationState:
    """Snapshot of an execution the policy may condition on.

    The arrays are *live read-only views* of the engine's buffers
    (``writeable=False``): they reflect the current step during the
    ``assign`` call and are mutated in place afterwards.  Copy anything
    you keep across steps.

    Attributes
    ----------
    t:
        Current timestep (0-based; the assignment returned will be executed
        during step ``t``).
    remaining:
        Boolean mask over jobs: True while a job is not yet complete.
    eligible:
        Boolean mask: True when a job is remaining *and* all its
        predecessors have completed.
    mass_accrued:
        Total log mass delivered to each job so far.  (Under SUU semantics
        this is bookkeeping a schedule could compute itself from its own
        history; exposing it keeps policies simple without leaking the
        hidden thresholds of SUU*.)
    """

    t: int
    remaining: np.ndarray
    eligible: np.ndarray
    mass_accrued: np.ndarray

    @property
    def n_remaining(self) -> int:
        """Number of uncompleted jobs."""
        return int(self.remaining.sum())


@dataclass(frozen=True)
class BatchSimulationState:
    """Snapshot of lock-stepped executions at one timestep, one row each.

    The batched analogue of :class:`SimulationState`: every per-job array
    gains a leading row axis.  Snapshots are live read-only views with
    the same lifetime rule — valid only during the ``assign_batch`` call.

    Row ``b`` shows batch trial ``trials[b]``.  The rows may shrink
    between steps: once fewer than half of them are live, the engine
    drops the finished trials (live-row stepping), so a policy must size
    its output by :attr:`n_trials` and find per-trial state through
    ``trials``.  Grouped (phased) dispatch keeps every row, so there
    ``trials`` is ``arange(B)`` and row ``b`` is trial ``b``.

    Attributes
    ----------
    t:
        Current global timestep (all trials advance in lock step; a
        finished trial keeps its row until the engine drops finished rows
        between steps).
    remaining / eligible / mass_accrued:
        Shape ``(rows, n_jobs)`` — row ``b`` is trial ``trials[b]``'s view.
    active:
        Shape ``(rows,)`` — True while row ``b``'s trial has remaining
        jobs.  Assignments returned for inactive rows are ignored.
    trials:
        Shape ``(rows,)``, int64, ascending — the batch trial index of
        each row (also in a trial shard, which shows a span of them).
    """

    t: int
    remaining: np.ndarray
    eligible: np.ndarray
    mass_accrued: np.ndarray
    active: np.ndarray
    trials: np.ndarray

    @property
    def n_trials(self) -> int:
        """Number of rows shown (trials not yet dropped)."""
        return int(self.remaining.shape[0])


class Policy(abc.ABC):
    """Base class for scheduling policies.

    Subclasses must implement :meth:`assign`; :meth:`start` defaults to a
    no-op for stateless policies.
    """

    #: Human-readable name used in results and experiment tables.
    name: str = "policy"

    def start(self, instance, rng: np.random.Generator) -> None:
        """Prepare for a fresh execution of ``instance``.

        Called once per simulation before any :meth:`assign` call.  Policies
        that solve LPs or draw random delays do so here.
        """

    @abc.abstractmethod
    def assign(self, state: SimulationState) -> np.ndarray:
        """Return this step's assignment: array of shape ``(m,)``.

        Entry ``i`` is the job machine ``i`` runs during step ``state.t``,
        or :data:`IDLE`.
        """
        raise NotImplementedError


class VectorizedPolicy(Policy):
    """A policy that can drive many trials at once (the batch protocol).

    Subclasses implement :meth:`assign_batch`; :meth:`start_batch` defaults
    to the scalar :meth:`Policy.start` because the preparation work
    (LP solves, schedule layout, instance caching) is trial-independent for
    every vectorizable policy — doing it *once* per batch rather than once
    per trial is a large part of the batch kernel's speedup.

    Determinism contract: assignments must be a pure function of
    ``(instance, state)``.  The batch kernel relies on this to guarantee
    that, under SUU* semantics with a shared threshold matrix, batched
    makespans equal the scalar engine's trial for trial.  Capability
    detection is structural (:func:`supports_batch`), so third-party
    policies may implement the two methods without subclassing.
    """

    def start_batch(self, instance, rng: np.random.Generator, n_trials: int) -> None:
        """Prepare for a fresh batch of ``n_trials`` lock-stepped trials."""
        self.start(instance, rng)

    @abc.abstractmethod
    def assign_batch(self, state: BatchSimulationState) -> np.ndarray:
        """Return assignments for every row: shape ``(state.n_trials, m)``.

        Row ``b``, entry ``i`` is the job machine ``i`` runs during step
        ``state.t`` of trial ``state.trials[b]``, or :data:`IDLE`.  Rows
        of inactive trials are ignored by the engine.  The row count may
        shrink between steps as finished trials are dropped.
        """
        raise NotImplementedError


class PhasedPolicy(Policy):
    """An adaptive policy whose trials can be *grouped by phase* each step.

    Adaptive policies condition on per-trial completion history, so a
    single broadcast ``assign_batch`` row cannot drive them.  But their
    per-trial control state is typically coarse — SEM's round index and
    cursor into the round's solved schedule, LAYERED's level, SUU-C's
    superstep — so many lock-stepped trials share one assignment row at
    any global timestep.  The phased protocol exposes exactly that
    structure to the batch kernel:

    * :meth:`start_phased` prepares per-trial control state for
      ``n_trials`` lock-stepped trials.  It receives no generators: a
      policy grouped under v1 must draw no randomness of its own (SEM,
      LAYERED and ADAPT draw none), since its grouped rows must equal the
      per-trial loop's.  Trial-independent preparation (LP solves,
      rounding) should be done once here, not once per trial.  Under v2
      an optional ``start_phased_v2(instance, streams, n_trials)``, when
      defined, starts the policy instead and draws any randomness from
      the batch streams as whole-batch matrices, one row per trial.
    * ``begin_step(state)`` is an *optional* hook the kernel calls once
      per step, before any ``phase_key`` query, when the policy defines
      it.  Policies whose per-step bookkeeping vectorizes across trials
      (SUU-C/SUU-T's signature-grouped boundary stepping under discipline
      v2) advance all live trials here in one batch pass and answer the
      subsequent per-trial ``phase_key`` calls from a precomputed table.
    * :meth:`phase_key` is called once per *live* trial per step, in
      ascending trial order.  It returns a hashable key such that two
      trials with equal keys receive identical assignment rows this step.
      It may advance the trial's internal bookkeeping (begin a round,
      enter a level) — the kernel guarantees the call order.
    * :meth:`assign_group` is called once per distinct key with the trial
      indices that returned it; it returns their assignments and advances
      those trials' step cursors.

    Keys never need to be comparable across policies — only within one
    execution.  A policy whose rows depend on per-trial randomness under
    some discipline leaves that discipline out of
    :attr:`phased_disciplines`; the kernel then gives every trial its own
    scalar policy instead.
    """

    #: RNG disciplines whose batches this policy's grouped dispatch covers.
    phased_disciplines: tuple[str, ...] = DISCIPLINES

    def start_phased(self, instance, n_trials: int) -> None:
        """Prepare per-trial state for ``n_trials`` lock-stepped trials."""
        raise NotImplementedError

    @abc.abstractmethod
    def phase_key(self, trial: int, state: BatchSimulationState):
        """Return trial ``trial``'s phase key for the current step.

        Trials returning equal keys must produce identical assignment rows
        this step.  Called exactly once per live trial per step, ascending.
        """
        raise NotImplementedError

    @abc.abstractmethod
    def assign_group(self, state: BatchSimulationState, trials: np.ndarray) -> np.ndarray:
        """Assignments for one phase group.

        ``trials`` holds the (ascending) indices that returned the same
        :meth:`phase_key` this step.  Returns shape ``(len(trials), m)``,
        or ``(m,)`` to broadcast one shared row to the whole group.
        """
        raise NotImplementedError


def supports_batch(policy) -> bool:
    """True when ``policy`` implements the batched-assignment protocol.

    Structural check (not ``isinstance``): any object with callable
    ``assign_batch`` and ``start_batch`` attributes qualifies, so the
    protocol can be adopted without inheriting :class:`VectorizedPolicy`.
    """
    return callable(getattr(policy, "assign_batch", None)) and callable(
        getattr(policy, "start_batch", None)
    )


def supports_phased(policy, discipline: str | None = None) -> bool:
    """True when ``policy`` implements the phase-grouped dispatch protocol.

    Structural, like :func:`supports_batch`: callable ``phase_key``,
    ``assign_group`` and ``start_phased`` attributes qualify without
    inheriting :class:`PhasedPolicy`.  With ``discipline`` given, the
    policy's ``phased_disciplines`` (all disciplines when absent) must
    also cover it.
    """
    if not (
        callable(getattr(policy, "phase_key", None))
        and callable(getattr(policy, "assign_group", None))
        and callable(getattr(policy, "start_phased", None))
    ):
        return False
    return discipline is None or discipline in getattr(
        policy, "phased_disciplines", DISCIPLINES
    )


@dataclass(frozen=True)
class IntegralAssignment:
    """An integral machine-to-job step allocation ``{x_ij}``.

    This is the object the LP roundings produce: ``x[i, j]`` is the number
    of unit steps machine ``i`` dedicates to job ``j``.  It is *not* yet a
    schedule — :class:`~repro.schedule.oblivious.FiniteObliviousSchedule`
    lays the steps out on a timeline.

    Attributes
    ----------
    x:
        Step counts, shape ``(m, n)``, dtype int64.  Columns of jobs outside
        the assignment's job subset are zero.
    jobs:
        The job subset the assignment covers.
    target:
        The log-mass target ``L`` each covered job was guaranteed.
    """

    x: np.ndarray
    jobs: tuple[int, ...]
    target: float

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 2 or x.dtype.kind not in "iu":
            raise ValueError("x must be a 2-D integer matrix")
        if (x < 0).any():
            raise ValueError("assignment entries must be nonnegative")

    @property
    def load(self) -> int:
        """Maximum steps any machine is assigned: ``max_i sum_j x_ij``."""
        return int(self.x.sum(axis=1).max()) if self.x.size else 0

    @property
    def machine_loads(self) -> np.ndarray:
        """Per-machine total steps ``sum_j x_ij``."""
        return self.x.sum(axis=1)

    @property
    def lengths(self) -> np.ndarray:
        """Per-job lengths ``d_j = max_i x_ij`` (the paper's job length)."""
        return self.x.max(axis=0)

    def mass_per_job(self, ell: np.ndarray) -> np.ndarray:
        """Log mass each job receives under log-mass matrix ``ell``."""
        return (self.x * ell).sum(axis=0)
