"""The trial-vectorized batch simulation kernel.

:func:`run_policy_batch` advances *all* Monte Carlo trials of one policy
simultaneously: the execution state becomes ``(n_trials, n_jobs)`` arrays,
every step does whole-batch numpy work, and the per-step Python overhead —
the thing that made ``run_policy``-in-a-loop scale as
``O(trials x steps)`` in interpreter time — is paid once per *timestep*
instead of once per trial-step.

Why this is sound
-----------------
The paper's SUU* reformulation (Appendix A / Theorem 10) makes every
execution a *deterministic* function of the pre-drawn thresholds
``theta_j = -log2 r_j``.  Trials therefore never interact: stacking them
along a leading axis and advancing in lock step computes exactly the same
per-trial trajectories as running them one at a time — provided the policy
itself is a deterministic function of the state it is shown, which is the
:class:`~repro.schedule.base.VectorizedPolicy` contract.  Common-random-
number pairing (`compare_policies`) survives unchanged because the shared
thresholds remain the coupling variable.

Theorem 10 also says SUU's per-step coin flips and SUU*'s thresholds give
every policy the same distribution of histories.  The v2 discipline uses
that as its sampler: a ``suu`` batch draws its thresholds once, like a
``suu_star`` one, and each step touches only the cells machines were
assigned to (:func:`repro.kernels.drive_step`).  The scalar engine keeps
both rules, and is how the repo tests the theorem itself.

Closed form for repeated schedules
----------------------------------
A policy that repeats one finite oblivious schedule from step 0 (SUU-I-OBL,
:class:`~repro.schedule.oblivious.RepeatingObliviousPolicy`) declares it as
``repeated_schedule``.  When such a batch's completions come from a
threshold matrix (``suu_star``, and ``suu`` under v2) and the instance has
no edges, nothing a trial does changes what the machines run, so job
``j`` completes at the first step whose running mass reaches its
threshold: :meth:`~repro.schedule.oblivious.FiniteObliviousSchedule.
repeat_completions` finds that step by one ``np.searchsorted`` per job
over the running sums, built with the step kernel's own float additions,
instead of stepping.  Makespans, completion times and busy machine-steps
are bit-identical to stepping, and so are the errors: a table with an
out-of-range job id raises the step's ``ScheduleViolationError`` (checked
up front, so also for a row no trial would reach), and a batch with
trials past ``max_steps`` raises the same ``SimulationHorizonError`` —
at once when the schedule is empty or starves a job.  The route is found
through the declared attribute, never the policy's name or its
``assign_batch``, so a wrapped ``assign_batch`` (a tracer's) takes it
too.  v1 ``suu`` (per-trial coin flips) and every other policy step.

Live-row stepping
-----------------
A batch's makespans have a long tail (an oblivious repeat runs its
schedule for O(log n) passes w.h.p.), so stepping every row until the
slowest trial finishes spends most of the kernel's row work on finished
trials.  The engine therefore steps only the rows of live trials: once
fewer than half of the rows it steps are live, it gathers the live rows
of every state array and keeps a row → trial map, exposed to policies as
:attr:`BatchSimulationState.trials`; completion times and busy counts are
scattered back into full-size results.  Vectorized policies are row-wise
and per-trial dispatch looks each row's policy up through the map, so
both compact; grouped dispatch keeps every row, because phased policies
index their per-trial state by trial id.  Compaction changes which rows
exist, never what a trial draws, so samples are unchanged.

Grouped dispatch for adaptive policies
--------------------------------------
Adaptive policies (``sem``, ``suu-c``, ``suu-t``, ``layered``, ``adapt``)
condition on per-trial completion history, so one broadcast
``assign_batch`` row cannot drive them.  Their per-trial control state is
nevertheless *coarse* — a round index, a level, a cursor into a solved
round schedule — which is what the :class:`~repro.schedule.base.
PhasedPolicy` protocol exposes.  Each step the kernel asks ``phase_key``
for every live trial, partitions the live trials by key (the groups are a
partition: every live trial lands in exactly one group), and calls
``assign_group`` once per distinct key.  Trials in lock step through the
same solved schedule therefore cost one row lookup instead of one policy
call each, and — the dominant win — the per-trial LP solves collapse:
trial-independent preparation happens once in ``start_phased``, and
per-round LP solutions are memoized by (target, remaining-set) so every
trial entering a round with the same survivor set reuses one solve.

RNG disciplines (v1 serial replay, v2 batch native)
---------------------------------------------------
The kernel supports two versioned RNG disciplines, resolved by
:func:`repro.util.rng.resolve_discipline` (explicit argument, then the
``REPRO_DISCIPLINE`` environment variable, then ``"v1"``):

Under **v1** (the default) the kernel consumes randomness *exactly* like
the serial estimators: one child generator per trial
(``rng.spawn(n_trials)``), and per trial the engine's
``spawn(2) -> (policy_rng, outcome_rng)`` split.  Under ``suu_star``,
trial ``k``'s thresholds are drawn from its own ``outcome_rng``; under
``suu``, each trial's per-step uniforms are drawn from its ``outcome_rng``
in the engine's order (scheduled jobs ascending).  Per-trial policies are
started with their trial's ``policy_rng``.  Phased policies are started
from the trial count alone: the grouped ones (SEM, LAYERED, ADAPT) draw
no randomness of their own, so a phased batch spawns only the outcome
generators a draw reads.  Serial, vectorized, phase-grouped and
per-trial execution therefore produce **bit-identical** makespan samples,
and the Monte Carlo front ends route every policy through this kernel.

Under **v2** (a documented break: different streams, same distributions)
outcome randomness is drawn in whole-batch blocks from the per-run
:class:`~repro.util.rng.BatchStreams` spawn tree instead of replaying the
serial tree trial by trial: :func:`run_policy_batch` draws one
``(n_trials, n_jobs)`` threshold matrix per batch under *either*
semantics (Theorem 10; so v2 ``suu`` and v2 ``suu_star`` are one stream)
and every route steps against it, and a phased policy that defines
``start_phased_v2`` (SUU-C, SUU-T) is started by it with the streams, to
draw matrix-valued internal randomness (SUU-C's chain-delay matrix).
Rows are addressed by global trial index, so v2 samples are
deterministic in the seed and invariant under backend and chunk layout —
they just differ from v1's.  The per-trial ``Generator.random(k)`` loop in
``_draw_suu_completions`` runs under v1 only; removing it from the hot
path is the reason v2 exists.

Per-trial dispatch
------------------
Policies that support neither protocol (e.g. internally randomized
per-step ones), and phased policies under a discipline their grouped
dispatch does not cover (SUU-C/SUU-T under v1, whose rows depend on each
trial's own chain delays), run one scalar policy per trial, lock-stepped
through the same engine: each step every live trial's policy is asked for
its row.  Each trial's policy is started with its v1 ``policy_rng`` under
either discipline; the outcome side follows the discipline like every
other route, so under v2 row ``k`` steps against row ``k`` of the batch's
threshold matrix and equals the scalar engine run with ``suu_star`` on
that row.  :func:`run_policy_batch` is therefore safe to call with any
policy.

Trial shards
------------
Each trial is a deterministic function of its own thresholds, so
splitting a batch's rows across threads never changes a sample; it saves
time only where every step is whole-batch numpy work.  The thread cap is
therefore a host setting, not an argument: each call reads
``REPRO_KERNEL_THREADS`` (:func:`repro.api.config.resolve_kernel_threads`,
default 1).  Shards run on one route alone: a vectorized batch that
steps against a threshold matrix (v2, or ``suu_star``), given a policy
class or factory, with the cap above 1.  Its rows split into at most
``min(threads, n_trials, os.cpu_count())`` contiguous spans, one thread
each, each stepped by its own policy started as the unsharded batch
starts its one; every span's rows keep their batch trial ids, and the
horizon error counts the unfinished trials of the whole batch.  The
closed form, grouped, per-trial and v1 coin-flip batches run serially
whatever the cap says: measured on two cores, shards there were mostly
neutral or slower (README, "Trial parallelism").
"""

from __future__ import annotations

import copy
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from concurrent.futures import ThreadPoolExecutor

from repro import kernels
from repro.errors import ScheduleViolationError, SimulationHorizonError
from repro.instance.instance import SUUInstance
from repro.schedule.base import (
    IDLE,
    BatchSimulationState,
    Policy,
    SimulationState,
    supports_batch,
    supports_phased,
)
from repro.schedule.oblivious import FiniteObliviousSchedule
from repro.sim.engine import DEFAULT_MAX_STEPS, _readonly_view, draw_thresholds
from repro.sim.results import MakespanStats
from repro.util.rng import (
    BatchStreams,
    SpawnedRngs,
    ensure_rng,
    resolve_discipline,
    run_seed_sequence,
)

__all__ = ["BatchSimResult", "run_policy_batch"]


@dataclass(frozen=True)
class BatchSimResult:
    """Outcome of ``n_trials`` simulated executions of one policy.

    The batched analogue of :class:`~repro.sim.results.SimResult`: every
    scalar field gains a leading trial axis.

    Attributes
    ----------
    makespans:
        Per-trial makespan, shape ``(n_trials,)``, int64.
    completion_times:
        Per-trial, per-job completion step (1-based), shape
        ``(n_trials, n_jobs)``.
    busy_machine_steps:
        Per-trial machine-steps spent on uncompleted jobs.
    semantics:
        ``"suu"`` or ``"suu_star"``.
    policy_name:
        The executing policy's ``name``.
    vectorized:
        True when trials shared rows (broadcast or phase-grouped
        dispatch); False when every trial ran its own scalar policy
        (per-trial dispatch; see the module docstring).
    discipline:
        The RNG discipline the samples were drawn under (``"v1"`` or
        ``"v2"``; see the module docstring).
    """

    makespans: np.ndarray
    completion_times: np.ndarray
    busy_machine_steps: np.ndarray
    semantics: str
    policy_name: str
    vectorized: bool
    discipline: str = "v1"

    @property
    def n_trials(self) -> int:
        """Number of simulated trials."""
        return int(self.makespans.size)

    def stats(self, label: str | None = None) -> MakespanStats:
        """The makespan samples as :class:`~repro.sim.results.MakespanStats`."""
        return MakespanStats(
            samples=self.makespans, policy_name=label or self.policy_name
        )


def run_policy_batch(
    instance: SUUInstance,
    policy,
    n_trials: int | None = None,
    rng=None,
    *,
    semantics: str = "suu",
    max_steps: int = DEFAULT_MAX_STEPS,
    thresholds: np.ndarray | None = None,
    trial_rngs=None,
    discipline: str | None = None,
    streams: BatchStreams | None = None,
) -> BatchSimResult:
    """Execute ``n_trials`` independent runs of ``policy``, vectorized.

    Each call reads the host's trial-shard cap, ``REPRO_KERNEL_THREADS``
    (default 1; a bad value raises on every route).  Only a vectorized
    policy, given as a class or factory, that steps against a threshold
    matrix runs in trial shards (module docstring, "Trial shards");
    every other batch runs serially.  Samples are bit-identical either
    way.

    Parameters
    ----------
    policy:
        A :class:`~repro.schedule.base.Policy` instance, a ``Policy``
        subclass, or a zero-argument factory.  Batch-capable policies (see
        :func:`~repro.schedule.base.supports_batch`) drive all trials at
        once; phased policies (:func:`~repro.schedule.base.supports_phased`)
        go through grouped dispatch under the disciplines they declare;
        the rest run one scalar policy per trial, lock-stepped — built by
        the class/factory, or deep-copied from a passed instance (whose
        ``start`` must fully reset it).
    n_trials:
        Number of trials; may be omitted when ``trial_rngs`` is given.
    rng:
        Seed or generator for the per-trial RNG tree (with ``trial_rngs``
        given it is only consulted under discipline v2, as the streams
        root when ``streams`` is omitted).  An integer seed or ``None``
        builds the trial generators on first use
        (:class:`~repro.util.rng.SpawnedRngs`); a ``Generator`` or
        ``SeedSequence`` spawns them, advancing its spawn counter.
    semantics:
        ``"suu"`` or ``"suu_star"``, with the same meaning as
        :func:`~repro.sim.engine.run_policy`.  Under discipline v2 every
        route samples ``"suu"`` as SUU* thresholds (Theorem 10), so the
        two semantics give byte-equal samples from one seed; v1 ``"suu"``
        flips each trial's coins step by step.
    thresholds:
        Optional pre-drawn SUU* threshold matrix, shape
        ``(n_trials, n_jobs)`` (ignored under ``"suu"``); row ``k`` plays
        the role of scalar ``run_policy``'s ``thresholds`` for trial ``k``.
    trial_rngs:
        Optional per-trial generators (one per trial), exactly the
        ``rng.spawn(n_trials)`` children the serial estimators build.  This
        is how the Monte Carlo front ends keep batched results bit-identical
        to their serial paths.  Any sequence is used as it is — a lazy
        :class:`~repro.util.rng.SpawnedRngs` builds only the generators
        the run reads — and any other iterable is listed first.
    discipline:
        RNG discipline: ``"v1"`` (serial replay, bit-identical to the
        scalar path), ``"v2"`` (batch-native streams; statistically
        equivalent, different samples), or ``None`` to resolve through the
        ``REPRO_DISCIPLINE`` environment variable (default v1).
    streams:
        Pre-built v2 :class:`~repro.util.rng.BatchStreams` (the service
        passes offset-rebased streams so worker chunks read their global
        rows).  Ignored under v1; built from ``rng`` when omitted under v2.

    Raises
    ------
    ScheduleViolationError
        At any step of any trial: if the policy returns a malformed
        assignment (wrong shape, non-integer dtype, or a job id outside
        ``[-1, n_jobs)``), or assigns a machine to a job whose
        predecessors have not all completed.  A closed-form batch (see
        the module docstring) checks its whole table up front.
    SimulationHorizonError
        If any trial exceeds ``max_steps``.
    """
    if semantics not in ("suu", "suu_star"):
        raise ValueError(f"unknown semantics {semantics!r}")
    discipline = resolve_discipline(discipline)
    if trial_rngs is not None:
        if not isinstance(trial_rngs, Sequence):
            trial_rngs = list(trial_rngs)
        if n_trials is not None and n_trials != len(trial_rngs):
            raise ValueError(
                f"n_trials={n_trials} disagrees with {len(trial_rngs)} trial_rngs"
            )
        n_trials = len(trial_rngs)
    if n_trials is None or n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if trial_rngs is None and (rng is None or isinstance(rng, numbers.Integral)):
        # One root for the trial tree and the v2 streams; the trial
        # generators are built on first use.
        rng = run_seed_sequence(rng)
        trial_rngs = SpawnedRngs(rng, n_trials)
    if discipline == "v2" and streams is None:
        if trial_rngs is not None and rng is None:
            # Fresh OS entropy here would make v2 silently
            # irreproducible; the v2 contract is determinism in the seed.
            raise ValueError(
                "discipline='v2' with pre-spawned trial_rngs needs a seed "
                "root: pass streams=BatchStreams(run_seed_sequence(seed)) "
                "(offset-rebased for chunks) or the run's rng/seed"
            )
        # Derive the v2 spawn-tree root before the v1 tree consumes the
        # generator, so both trees hang off the same per-run entropy.
        streams = BatchStreams(run_seed_sequence(rng))
    if trial_rngs is None:
        trial_rngs = list(ensure_rng(rng).spawn(n_trials))
    if discipline != "v2":
        streams = None

    n = instance.n_jobs
    if thresholds is not None:
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.shape != (n_trials, n):
            raise ValueError(
                f"thresholds must have shape ({n_trials}, {n}), "
                f"got {thresholds.shape}"
            )
    # The batch's one threshold matrix, which every route steps against:
    # the caller's under suu_star, else v2's whole-batch draw (Theorem 10:
    # under v2 either semantics samples SUU* thresholds).  None under v1
    # otherwise, where every trial draws from its own outcome_rng.
    theta = thresholds if semantics == "suu_star" else None
    if theta is None and streams is not None:
        theta = streams.thresholds(n_trials, n)

    if isinstance(policy, Policy):
        probe, factory = policy, None
    else:
        factory = policy
        probe = factory()
    # Imported here: the repro.api package, which holds the one settings
    # reader, imports this module.
    from repro.api.config import resolve_kernel_threads

    threads = resolve_kernel_threads()
    if supports_batch(probe):
        result = _run_vectorized(
            instance, probe, factory, threads, trial_rngs, semantics,
            max_steps, theta, discipline,
        )
    elif supports_phased(probe, discipline):
        result = _run_phased(
            instance, probe, trial_rngs, semantics, max_steps, theta,
            discipline, streams,
        )
    else:
        result = _run_per_trial(
            instance, probe, factory, trial_rngs, semantics, max_steps,
            theta, discipline,
        )
    # Every route stops at the horizon; an unfinished trial has a job
    # without a completion step.  Counted here, over the whole batch, so
    # trial shards raise what one serial batch would.
    live = int(np.count_nonzero((result.completion_times == 0).any(axis=1)))
    if live:
        raise SimulationHorizonError(
            f"{probe.name!r} exceeded max_steps={max_steps} with "
            f"{live} of {n_trials} trials unfinished",
            steps=max(max_steps, 0),
        )
    return result


def _run_per_trial(
    instance, probe, factory, trial_rngs, semantics, max_steps, theta,
    discipline,
) -> BatchSimResult:
    """Per-trial dispatch: one scalar policy per trial, lock-stepped.

    Each trial's policy is started with the ``policy_rng`` of the engine's
    ``spawn(2)`` split, exactly like a scalar run.  Trials step against
    the batch's threshold matrix ``theta`` when there is one; otherwise
    (v1) each replays its own ``outcome_rng``."""
    B, n = len(trial_rngs), instance.n_jobs
    outcome_rngs = None
    if theta is None:
        pairs = [r.spawn(2) for r in trial_rngs]
        policy_rngs = [policy_rng for policy_rng, _ in pairs]
        theta, outcome_rngs = _v1_outcomes(
            [outcome for _, outcome in pairs], semantics, n
        )
    else:
        # spawn(1)[0] is the same child as spawn(2)[0]: the policy_rng,
        # without the outcome_rng a threshold-stepped trial never reads.
        policy_rngs = [r.spawn(1)[0] for r in trial_rngs]
    policies = [
        factory() if factory is not None else copy.deepcopy(probe)
        for _ in range(B)
    ]
    for policy, policy_rng in zip(policies, policy_rngs):
        policy.start(instance, policy_rng)
    dispatch = _PerTrialDispatch(policies, probe.name, B, instance.n_machines)
    return _drive_batch(
        instance, probe.name, dispatch, B, semantics, max_steps, theta,
        outcome_rngs, discipline, vectorized=False,
    )


class _PerTrialDispatch:
    """The kernel's assignment callable for per-trial dispatch.

    Each step it shows every live row's policy (trial ``state.trials[r]``'s
    own) that row of the batch state, as the scalar engine's
    :class:`SimulationState`, and checks the returned row the way the
    scalar engine does before writing it into the ``(rows, m)`` buffer (a
    float row would otherwise be silently truncated to job ids).
    Inactive rows keep IDLE.
    """

    def __init__(self, policies, name: str, n_trials: int, n_machines: int):
        self._policies = policies
        self._name = name
        self._out = np.empty((n_trials, n_machines), dtype=np.int64)

    def __call__(self, state: BatchSimulationState) -> np.ndarray:
        out = self._out[: state.n_trials]
        out.fill(IDLE)
        m = out.shape[1]
        for k in np.flatnonzero(state.active):
            row = np.asarray(self._policies[state.trials[k]].assign(SimulationState(
                t=state.t,
                remaining=state.remaining[k],
                eligible=state.eligible[k],
                mass_accrued=state.mass_accrued[k],
            )))
            if row.shape != (m,):
                raise ScheduleViolationError(
                    f"{self._name!r} returned assignment of shape "
                    f"{row.shape}, expected ({m},)"
                )
            if row.dtype.kind not in "iu":
                raise ScheduleViolationError(
                    f"{self._name!r} returned non-integer assignment dtype "
                    f"{row.dtype}"
                )
            out[k] = row
        return out


def _v1_outcomes(outcome_rngs, semantics, n):
    """``(theta, outcome_rngs)`` replaying the scalar engine's outcome draws
    for a v1 batch without a threshold matrix.

    ``outcome_rngs`` holds each trial's ``outcome_rng`` of the engine's
    ``spawn(2) -> (policy_rng, outcome_rng)`` split.  Under ``suu_star``
    each trial draws one ``draw_thresholds`` row from its ``outcome_rng``;
    under ``suu`` the ``outcome_rngs`` feed the per-step coin flips."""
    if semantics != "suu_star":
        return None, outcome_rngs
    theta = np.empty((len(outcome_rngs), n), dtype=np.float64)
    for k, outcome_rng in enumerate(outcome_rngs):
        theta[k] = draw_thresholds(n, outcome_rng)
    return theta, None


def _run_vectorized(
    instance, policy, factory, threads, trial_rngs, semantics, max_steps,
    theta, discipline,
) -> BatchSimResult:
    """The broadcast path: one ``assign_batch`` call drives all trials
    (in trial shards on up to ``threads`` threads when it steps against
    thresholds), or the closed form computes a declared repeated
    schedule's batch."""
    B, n = len(trial_rngs), instance.n_jobs

    # v1 mirrors run_policy's per-trial ``spawn(2) -> (policy_rng,
    # outcome_rng)`` split.  With a threshold matrix (the caller's, or the
    # v2 streams') no per-trial outcome randomness is consumed at all, so
    # only the lead trial's policy_rng needs spawning.
    outcome_rngs = None
    if theta is not None:
        policy_rng = trial_rngs[0].spawn(2)[0]
    else:
        pairs = [r.spawn(2) for r in trial_rngs]
        policy_rng = pairs[0][0]
        theta, outcome_rngs = _v1_outcomes(
            [outcome for _, outcome in pairs], semantics, n
        )
    policy.start_batch(instance, policy_rng, B)
    schedule = getattr(policy, "repeated_schedule", None)
    if (
        theta is not None
        and instance.graph.n_edges == 0
        and isinstance(schedule, FiniteObliviousSchedule)
    ):
        return _run_closed_form(
            instance, policy.name, schedule, theta, semantics, max_steps,
            discipline,
        )
    n_shards = min(threads, B, os.cpu_count() or 1)
    if theta is not None and factory is not None and n_shards > 1:
        return _run_shards(
            instance, policy.name, factory, policy_rng, n_shards, semantics,
            max_steps, theta, discipline,
        )
    return _drive_batch(
        instance, policy.name, policy.assign_batch, B, semantics, max_steps,
        theta, outcome_rngs, discipline,
    )


def _run_shards(
    instance, policy_name, factory, policy_rng, n_shards, semantics,
    max_steps, theta, discipline,
) -> BatchSimResult:
    """Step contiguous spans of ``theta``'s rows on ``n_shards`` threads,
    each with its own policy from ``factory``, started as the unsharded
    batch starts its one (the lead trial's ``policy_rng``, the whole
    batch's trial count).

    A violation raises exactly the serial batch's error: the first
    span's error need not be it (a later span can fail at an earlier
    step), so on any span's ``ScheduleViolationError`` the whole batch
    is stepped once more serially, with a fresh policy, to raise it."""
    B = len(theta)
    cuts = np.linspace(0, B, n_shards + 1).astype(int)
    spans = [
        (int(lo), int(hi)) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo
    ]

    def run_span(span):
        lo, hi = span
        shard_policy = factory()
        shard_policy.start_batch(instance, policy_rng, B)
        return _drive_batch(
            instance, policy_name, shard_policy.assign_batch, hi - lo,
            semantics, max_steps, theta[lo:hi], None, discipline, first=lo,
        )

    try:
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(pool.map(run_span, spans))
    except ScheduleViolationError:
        serial = factory()
        serial.start_batch(instance, policy_rng, B)
        _drive_batch(
            instance, policy_name, serial.assign_batch, B, semantics,
            max_steps, theta, None, discipline,
        )
        raise
    return BatchSimResult(
        makespans=np.concatenate([p.makespans for p in parts]),
        completion_times=np.concatenate(
            [p.completion_times for p in parts], axis=0
        ),
        busy_machine_steps=np.concatenate(
            [p.busy_machine_steps for p in parts]
        ),
        semantics=semantics,
        policy_name=policy_name,
        vectorized=True,
        discipline=discipline,
    )


def _run_closed_form(
    instance, policy_name, schedule, theta, semantics, max_steps, discipline,
) -> BatchSimResult:
    """The closed-form route: a repeated schedule's completions by
    threshold lookup (see module docstring), up to ``max_steps`` steps.

    The whole table is range-checked up front, so a bad row raises even
    when no trial would have reached it."""
    if (schedule.table >= instance.n_jobs).any():
        raise ScheduleViolationError(
            f"{policy_name!r} assigned an out-of-range job id"
        )
    completion_times, busy = schedule.repeat_completions(
        instance.ell, theta, max_steps
    )
    return BatchSimResult(
        makespans=completion_times.max(axis=1),
        completion_times=completion_times,
        busy_machine_steps=busy,
        semantics=semantics,
        policy_name=policy_name,
        vectorized=True,
        discipline=discipline,
    )


class _GroupedDispatch:
    """Per-step phase grouping: one ``assign_group`` call per distinct key.

    The kernel's assignment callable for phased policies.  Each step it
    invokes the policy's optional ``begin_step`` hook once (policies with
    batch-wide per-step work — SUU-C/SUU-T's signature-grouped boundary
    stepping — vectorize it there instead of repeating it per trial), then
    queries ``phase_key`` for every live trial (ascending order — part of
    the protocol contract), partitions the live trials by key, and fills
    one ``(n_trials, m)`` assignment buffer group by group.  Inactive
    trials keep IDLE rows, which the engine ignores.
    """

    def __init__(self, policy, n_trials: int, n_machines: int):
        self._policy = policy
        self._begin_step = getattr(policy, "begin_step", None)
        self._out = np.empty((n_trials, n_machines), dtype=np.int64)

    def __call__(self, state: BatchSimulationState) -> np.ndarray:
        policy = self._policy
        if self._begin_step is not None:
            self._begin_step(state)
        out = self._out
        out.fill(IDLE)
        groups: dict = {}
        for k in np.flatnonzero(state.active):
            k = int(k)
            groups.setdefault(policy.phase_key(k, state), []).append(k)
        for members in groups.values():
            idx = np.asarray(members, dtype=np.int64)
            rows = np.asarray(policy.assign_group(state, idx))
            # Writing into the int64 buffer would silently truncate float
            # job ids, so the dtype guard the driver applies to broadcast
            # assignments must run here, pre-copy.
            if rows.dtype.kind not in "iu":
                raise ScheduleViolationError(
                    f"{policy.name!r} returned non-integer group assignment "
                    f"dtype {rows.dtype}"
                )
            # A single (m,) row broadcasts across the whole group.
            out[idx] = rows
        return out


def _run_phased(
    instance, policy, trial_rngs, semantics, max_steps, theta,
    discipline, streams,
) -> BatchSimResult:
    """The grouped-dispatch path for :class:`PhasedPolicy` implementations.

    Under v2 a policy that defines ``start_phased_v2`` is started by it
    with the batch streams (its internal randomness is matrix-valued and
    chunk-invariant); any other is started from the trial count.  Only v1
    ``suu`` coin flips and v1 ``suu_star`` without given thresholds read
    per-trial generators, so only those batches spawn them."""
    B, n = len(trial_rngs), instance.n_jobs
    start_v2 = (
        getattr(policy, "start_phased_v2", None) if streams is not None else None
    )
    if start_v2 is not None:
        start_v2(instance, streams, B)
    else:
        policy.start_phased(instance, B)
    outcome_rngs = None
    if theta is None:
        theta, outcome_rngs = _v1_outcomes(
            [r.spawn(2)[1] for r in trial_rngs], semantics, n
        )
    dispatch = _GroupedDispatch(policy, B, instance.n_machines)
    # Phased policies index their per-trial state by trial id, so grouped
    # dispatch keeps every row.
    return _drive_batch(
        instance, policy.name, dispatch, B, semantics, max_steps, theta,
        outcome_rngs, discipline, compact=False,
    )


def _drive_batch(
    instance, policy_name, assign, B, semantics, max_steps, theta,
    outcome_rngs, discipline="v1", vectorized=True, compact=True, first=0,
) -> BatchSimResult:
    """The lock-stepped all-trials engine (see module docstring).

    ``assign`` is the per-step assignment callable — ``assign_batch`` for
    vectorized policies, a :class:`_GroupedDispatch` for phased ones, a
    :class:`_PerTrialDispatch` for the rest — mapping the shared
    :class:`BatchSimulationState` to ``(rows, m)`` job ids.
    Completions come from the ``(B, n)`` threshold matrix ``theta`` when
    it is given (``suu_star``, and ``suu`` under v2 by Theorem 10), and
    otherwise from the per-trial ``outcome_rngs``' coin flips (v1 ``suu``).

    Live-row stepping: with ``compact`` set, a step that finds fewer than
    half of its rows live first gathers the live rows of every state array
    (``theta`` and ``outcome_rngs`` too) and of the row → trial map
    ``trials``, writing the finished rows' completion times and busy
    counts into the full-size results.  Halving bounds the gathers to
    log2(B) and their total work to under two copies of the initial state.
    Every trial keeps its own thresholds or generator, so samples do not
    change.  Grouped dispatch passes ``compact=False``: phased policies
    index their per-trial state by trial id.  ``first`` is the batch trial
    id of row 0 (a trial shard's span start): ``trials`` and the
    precedence error name batch trials, not rows of the span.  Stepping
    stops after ``max_steps`` steps; an unfinished trial keeps zero
    completion steps, and :func:`run_policy_batch` raises for it.

    The step body itself lives in :mod:`repro.kernels`: one
    ``drive_step`` call per step on the threshold path, which touches only
    the ``(rows, m)`` assigned cells and sums their masses in a zeroed
    ``(B * n,)`` scratch allocated here once per batch (compacted rows use
    its prefix); an ``accrue`` / rng draw / ``commit`` split on the
    coin-flip path, whose per-trial generator draws sit between the two.
    """
    n, m = instance.n_jobs, instance.n_machines
    ell = instance.ell
    graph = instance.graph
    succ_indptr, succ_indices = graph.successors_csr()

    remaining = np.ones((B, n), dtype=bool)
    indeg = np.repeat(graph.in_degree_array()[None, :], B, axis=0)
    eligible = remaining & (indeg == 0)
    mass_accrued = np.zeros((B, n), dtype=np.float64)
    completion_times = np.zeros((B, n), dtype=np.int64)
    busy = np.zeros(B, dtype=np.int64)
    active = np.ones(B, dtype=bool)
    trials = np.arange(first, first + B, dtype=np.int64)
    # The full-size results; the working arrays above are these until the
    # first compaction.
    all_completion_times, all_busy = completion_times, busy
    # Independent instances can never trip the precedence check (eligible
    # is identically remaining), so the kernels skip the validation
    # gather and the in-degree bookkeeping.
    independent = graph.n_edges == 0

    state = BatchSimulationState(
        t=0,
        remaining=_readonly_view(remaining),
        eligible=_readonly_view(eligible),
        mass_accrued=_readonly_view(mass_accrued),
        active=_readonly_view(active),
        trials=_readonly_view(trials),
    )

    # The threshold step reads theta and writes the state through flat
    # views, and sums step masses in a scratch it leaves zeroed.
    coin_flips = theta is None
    if not coin_flips:
        theta = np.ascontiguousarray(theta)
        scratch = np.zeros(B * n, dtype=np.float64)

    t = 0
    live = B
    while live and t < max_steps:
        if compact and live * 2 < trials.size:
            done = ~active
            finished = trials[done] - first
            all_completion_times[finished] = completion_times[done]
            all_busy[finished] = busy[done]
            keep = np.flatnonzero(active)
            trials, active = trials[keep], active[keep]
            remaining, eligible = remaining[keep], eligible[keep]
            indeg, mass_accrued = indeg[keep], mass_accrued[keep]
            completion_times, busy = completion_times[keep], busy[keep]
            if theta is not None:
                theta = theta[keep]
            if outcome_rngs is not None:
                outcome_rngs = [outcome_rngs[k] for k in keep]
            for name, arr in (
                ("remaining", remaining), ("eligible", eligible),
                ("mass_accrued", mass_accrued), ("active", active),
                ("trials", trials),
            ):
                object.__setattr__(state, name, _readonly_view(arr))
        rows = trials.size
        object.__setattr__(state, "t", t)
        a = np.asarray(assign(state))
        if a.shape != (rows, m):
            raise ScheduleViolationError(
                f"{policy_name!r} returned batch assignment of shape "
                f"{a.shape}, expected ({rows}, {m})"
            )
        if a.dtype.kind not in "iu":
            raise ScheduleViolationError(
                f"{policy_name!r} returned non-integer assignment dtype {a.dtype}"
            )
        a = np.ascontiguousarray(a, dtype=np.int64)

        if coin_flips:
            # The per-trial Generator draws in _draw_suu_completions keep
            # v1 bit-identical to the serial engine, so this path splits
            # the step around them.
            status, vb, vi, step_mass = kernels.accrue(
                a, ell, remaining, eligible, busy, independent
            )
            if status != kernels.OK:
                _raise_violation(status, policy_name, a, vb, vi, t, trials)
            done_now = _draw_suu_completions(step_mass, outcome_rngs)
            mass_accrued += step_mass
            t += 1
            kernels.commit(
                done_now, t, completion_times, remaining, eligible, indeg,
                succ_indptr, succ_indices, active, independent,
            )
        else:
            # Slots 3-4 (``u``, ``mode``) are reserved: the threshold rule
            # is the only one.
            status, vb, vi = kernels.drive_step(
                a, ell, theta, None, 0, t + 1, remaining, eligible,
                indeg, mass_accrued, completion_times, busy, active,
                succ_indptr, succ_indices, independent, scratch,
            )
            if status != kernels.OK:
                _raise_violation(status, policy_name, a, vb, vi, t, trials)
            t += 1
        live = int(np.count_nonzero(active))

    if trials.size < B:
        all_completion_times[trials - first] = completion_times
        all_busy[trials - first] = busy
    return BatchSimResult(
        makespans=all_completion_times.max(axis=1),
        completion_times=all_completion_times,
        busy_machine_steps=all_busy,
        semantics=semantics,
        policy_name=policy_name,
        vectorized=vectorized,
        discipline=discipline,
    )


def _raise_violation(status, policy_name, a, b, i, t, trials):
    """Raise the ScheduleViolationError a kernel reported as a status code.

    ``b`` is the offending row; the message names its batch trial."""
    if status == kernels.BAD_RANGE:
        raise ScheduleViolationError(
            f"{policy_name!r} assigned an out-of-range job id"
        )
    raise ScheduleViolationError(
        f"{policy_name!r} assigned machine {int(i)} to job "
        f"{int(a[b, i])} whose predecessors are incomplete "
        f"(t={t}, trial={int(trials[b])})"
    )


def _draw_suu_completions(step_mass, outcome_rngs) -> np.ndarray:
    """Per-step SUU coin flips, consuming each trial's rng like the scalar
    engine (one ``random(k)`` call over that trial's scheduled jobs,
    ascending) so batched ``suu`` runs stay bit-identical to serial ones."""
    scheduled = step_mass > 0.0
    counts = scheduled.sum(axis=1)
    total = int(counts.sum())
    done_now = np.zeros_like(scheduled)
    if total == 0:
        return done_now
    u = np.empty(total, dtype=np.float64)
    offset = 0
    for b in np.flatnonzero(counts):
        k = int(counts[b])
        u[offset : offset + k] = outcome_rngs[b].random(k)
        offset += k
    rows, cols = np.nonzero(scheduled)  # row-major: trial-major, jobs ascending
    failed = u >= np.power(2.0, -step_mass[rows, cols])
    done_now[rows[failed], cols[failed]] = True
    return done_now
