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

Live-row stepping
-----------------
A batch's makespans have a long tail (SUU-I-OBL repeats its schedule for
O(log n) passes w.h.p.), so stepping every row until the slowest trial
finishes spends most of the kernel's row work on finished trials.  The
engine therefore steps only the rows of live trials: once fewer than half
of the rows it steps are live, it gathers the live rows of every state
array and keeps a row → trial map, exposed to policies as
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
in the engine's order (scheduled jobs ascending).  Phased policies
additionally receive the per-trial ``policy_rng`` list in ``start_phased``
and must draw any internal randomness (per-level spawns) from trial
``k``'s generator in the scalar order; per-trial policies are started
with it.  Serial, vectorized, phase-grouped and per-trial execution
therefore produce **bit-identical** makespan samples, and the Monte Carlo
front ends route every policy through this kernel.

Under **v2** (a documented break: different streams, same distributions)
outcome randomness is drawn in whole-batch blocks from the per-run
:class:`~repro.util.rng.BatchStreams` spawn tree instead of replaying the
serial tree trial by trial: one ``(n_trials, n_jobs)`` threshold matrix
per batch under *either* semantics (Theorem 10; so v2 ``suu`` and v2
``suu_star`` are one stream, and v2 ``suu`` samples drawn before this
sampler cannot be reproduced), and v2-capable phased policies
(:meth:`~repro.schedule.base.PhasedPolicy.start_phased_v2`) receive the
streams to draw matrix-valued internal randomness (SUU-C's chain-delay
matrix).  Rows are addressed by global trial index, so v2 samples are
deterministic in the seed and invariant under backend and chunk layout —
they just differ from v1's.  The per-trial ``Generator.random(k)`` loop in
``_draw_suu_completions`` is what this removes; it is the reason v2 exists.

Per-trial dispatch
------------------
Policies that support neither protocol (e.g. internally randomized
per-step ones), and phased policies under a discipline their grouped
dispatch does not cover (SUU-C/SUU-T under v1, whose rows depend on each
trial's own chain delays), run one scalar policy per trial, lock-stepped
through the same engine: each step every live trial's policy is asked for
its row.  Trials share no rows on this path, so it consumes the v1 RNG
tree under either discipline — ``suu`` keeps its per-trial coin flips
even under v2 — and :func:`run_policy_batch` is safe to call with any
policy.
"""

from __future__ import annotations

import copy
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
from repro.sim.engine import DEFAULT_MAX_STEPS, _readonly_view, draw_thresholds
from repro.sim.results import MakespanStats
from repro.util.rng import (
    BatchStreams,
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
    kernel_threads: int | None = None,
) -> BatchSimResult:
    """Execute ``n_trials`` independent runs of ``policy``, vectorized.

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
        root when ``streams`` is omitted).
    semantics:
        ``"suu"`` or ``"suu_star"``, with the same meaning as
        :func:`~repro.sim.engine.run_policy`.  Under discipline v2,
        vectorized and phased policies sample ``"suu"`` as SUU*
        thresholds (Theorem 10), so the two semantics give byte-equal
        samples from one seed; per-trial dispatch and v1 flip each
        trial's coins step by step.
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
    kernel_threads:
        CPU threads for this one batch (``None`` resolves through
        ``REPRO_KERNEL_THREADS``, default 1).  With ``threads > 1`` the
        batch is split into ``min(threads, n_trials, os.cpu_count())``
        contiguous trial shards along the service's chunk seam, one
        thread each (requires a policy class/factory — a shared policy
        *instance* cannot be sharded and runs serially).  Sharding is
        bit-identical to
        ``kernel_threads=1``: trials are independent rows, v1 shards
        slice the per-trial RNG tree, and v2's Philox streams are
        addressed by global trial index (shard ``lo`` rebases
        via ``streams.with_offset``), so shard boundaries are invisible
        in the samples.

    Raises
    ------
    ScheduleViolationError
        At any step of any trial: if the policy returns a malformed
        assignment (wrong shape, non-integer dtype, or a job id outside
        ``[-1, n_jobs)``), or assigns a machine to a job whose
        predecessors have not all completed.
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

    if isinstance(policy, Policy):
        probe, factory = policy, None
    else:
        factory = policy
        probe = factory()

    # The threads axis: shard trials across a thread pool, along the
    # service's chunk seam.  Imported here: the repro.api package, which
    # holds the unified knob chain, imports this module.
    from repro.api.config import resolve_kernel_threads

    # ``kernel_threads`` is bounded only from below (a served request sets
    # it), so the shard count is capped at the trial and CPU counts.
    n_shards = min(
        resolve_kernel_threads(kernel_threads), n_trials, os.cpu_count() or 1
    )
    if n_shards > 1 and factory is not None:
        return _run_sharded(
            instance, factory, trial_rngs, n_shards,
            semantics=semantics, max_steps=max_steps, thresholds=thresholds,
            discipline=discipline, streams=streams,
        )

    if supports_batch(probe):
        return _run_vectorized(
            instance, probe, trial_rngs, semantics, max_steps, thresholds,
            discipline, streams,
        )
    if supports_phased(probe, discipline):
        return _run_phased(
            instance, probe, trial_rngs, semantics, max_steps, thresholds,
            discipline, streams,
        )
    return _run_per_trial(
        instance, probe, factory, trial_rngs, semantics, max_steps,
        thresholds, discipline,
    )


def _run_sharded(
    instance, factory, trial_rngs, n_shards, *, semantics, max_steps,
    thresholds, discipline, streams,
) -> BatchSimResult:
    """Split one batch into ``n_shards`` contiguous trial shards, one
    thread each.

    The ``kernel_threads > 1`` route: each shard is a full recursive
    :func:`run_policy_batch` run (fresh policy from ``factory``,
    ``kernel_threads=1``) over its span of the already-built per-trial
    RNG list (v1) and the offset-rebased batch streams (v2) — exactly
    the seam ``api.service`` chunks batches across worker processes on,
    which is bit-identical to the unsplit run by construction.  Results
    concatenate in trial order, so shard boundaries are invisible in the
    samples.
    """
    B = len(trial_rngs)
    cuts = np.linspace(0, B, n_shards + 1).astype(int)
    spans = [
        (int(lo), int(hi)) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo
    ]

    def run_span(span):
        lo, hi = span
        return run_policy_batch(
            instance, factory, hi - lo,
            semantics=semantics, max_steps=max_steps,
            thresholds=None if thresholds is None else thresholds[lo:hi],
            trial_rngs=trial_rngs[lo:hi], discipline=discipline,
            # Rebase relative to this batch's own base: the service may
            # already have offset the streams for a worker chunk.
            streams=None
            if streams is None
            else streams.with_offset(streams.offset + lo),
            kernel_threads=1,
        )

    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        parts = list(pool.map(run_span, spans))
    first = parts[0]
    return BatchSimResult(
        makespans=np.concatenate([p.makespans for p in parts]),
        completion_times=np.concatenate(
            [p.completion_times for p in parts], axis=0
        ),
        busy_machine_steps=np.concatenate(
            [p.busy_machine_steps for p in parts]
        ),
        semantics=first.semantics,
        policy_name=first.policy_name,
        vectorized=all(p.vectorized for p in parts),
        discipline=first.discipline,
    )


def _run_per_trial(
    instance, probe, factory, trial_rngs, semantics, max_steps, thresholds,
    discipline,
) -> BatchSimResult:
    """Per-trial dispatch: one scalar policy per trial, lock-stepped.

    Each trial's policy is started with the ``policy_rng`` of the engine's
    ``spawn(2)`` split, exactly like a scalar run, and outcome randomness
    replays the v1 tree under either discipline (trials share no rows, so
    the scalar streams are the only ones to draw from): ``suu`` flips each
    trial's coins step by step also under v2, and ``suu_star`` draws each
    trial's thresholds from its own generator."""
    B, n = len(trial_rngs), instance.n_jobs
    pairs = [r.spawn(2) for r in trial_rngs]
    policies = [
        factory() if factory is not None else copy.deepcopy(probe)
        for _ in range(B)
    ]
    for policy, (policy_rng, _) in zip(policies, pairs):
        policy.start(instance, policy_rng)
    theta, outcome_rngs = _v1_outcomes(pairs, semantics, thresholds, n)
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


def _v1_outcomes(pairs, semantics, thresholds, n):
    """``(theta, outcome_rngs)`` replaying the scalar engine's outcome draws.

    ``pairs`` holds each trial's ``spawn(2) -> (policy_rng, outcome_rng)``
    split.  Under ``suu_star`` the thresholds are the given matrix, else
    one ``draw_thresholds`` row per trial's ``outcome_rng``; under ``suu``
    the ``outcome_rngs`` feed the per-step coin flips."""
    if semantics != "suu_star":
        return None, [outcome for _, outcome in pairs]
    if thresholds is not None:
        return thresholds, None
    theta = np.empty((len(pairs), n), dtype=np.float64)
    for k, (_, outcome_rng) in enumerate(pairs):
        theta[k] = draw_thresholds(n, outcome_rng)
    return theta, None


def _run_vectorized(
    instance, policy, trial_rngs, semantics, max_steps, thresholds,
    discipline, streams,
) -> BatchSimResult:
    """The broadcast path: one ``assign_batch`` call drives all trials."""
    B, n = len(trial_rngs), instance.n_jobs

    # v1 mirrors run_policy's per-trial ``spawn(2) -> (policy_rng,
    # outcome_rng)`` split.  When thresholds are supplied (the
    # common-random-number path), no outcome randomness is consumed at all
    # — exactly like the scalar engine — so only the lead trial's
    # policy_rng needs spawning.  v2 replaces the per-trial outcome draws
    # with whole-batch stream draws.
    outcome_rngs = None
    if semantics == "suu_star" and thresholds is not None:
        theta = thresholds
        policy.start_batch(instance, trial_rngs[0].spawn(2)[0], B)
    elif streams is not None:
        # Theorem 10: under v2 either semantics samples SUU* thresholds.
        theta = streams.thresholds(B, n)
        policy.start_batch(instance, trial_rngs[0].spawn(2)[0], B)
    else:
        pairs = [r.spawn(2) for r in trial_rngs]
        policy.start_batch(instance, pairs[0][0], B)
        theta, outcome_rngs = _v1_outcomes(pairs, semantics, None, n)
    return _drive_batch(
        instance, policy.name, policy.assign_batch, B, semantics, max_steps,
        theta, outcome_rngs, discipline,
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
    instance, policy, trial_rngs, semantics, max_steps, thresholds,
    discipline, streams,
) -> BatchSimResult:
    """The grouped-dispatch path for :class:`PhasedPolicy` implementations."""
    B, n = len(trial_rngs), instance.n_jobs

    # Under v2, a policy implementing start_phased_v2 draws its internal
    # randomness from the batch streams (matrix-valued, chunk-invariant)
    # and needs no per-trial generators at all; it may decline (False),
    # in which case the v1-style per-trial path below runs.
    started = False
    if streams is not None:
        start_v2 = getattr(policy, "start_phased_v2", None)
        if callable(start_v2):
            started = bool(start_v2(instance, streams, B))

    outcome_rngs = None
    if streams is not None:
        # Theorem 10: under v2 either semantics samples SUU* thresholds;
        # a caller's matrix wins under suu_star only.
        if semantics == "suu_star" and thresholds is not None:
            theta = thresholds
        else:
            theta = streams.thresholds(B, n)
        if not started:
            pairs = [r.spawn(2) for r in trial_rngs]
            policy.start_phased(instance, [p for p, _ in pairs])
    else:
        # v1: phased policies may consume per-trial policy randomness, so
        # the engine's per-trial spawn(2) split is replayed even on the
        # common-random-number path where thresholds are given.
        pairs = [r.spawn(2) for r in trial_rngs]
        theta, outcome_rngs = _v1_outcomes(pairs, semantics, thresholds, n)
        policy.start_phased(instance, [p for p, _ in pairs])
    dispatch = _GroupedDispatch(policy, B, instance.n_machines)
    # Phased policies index their per-trial state by trial id, so grouped
    # dispatch keeps every row.
    return _drive_batch(
        instance, policy.name, dispatch, B, semantics, max_steps, theta,
        outcome_rngs, discipline, compact=False,
    )


def _drive_batch(
    instance, policy_name, assign, B, semantics, max_steps, theta,
    outcome_rngs, discipline="v1", vectorized=True, compact=True,
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
    index their per-trial state by trial id.

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
    trials = np.arange(B, dtype=np.int64)
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
    while live:
        if t >= max_steps:
            raise SimulationHorizonError(
                f"{policy_name!r} exceeded max_steps={max_steps} with "
                f"{live} of {B} trials unfinished",
                steps=t,
            )
        if compact and live * 2 < trials.size:
            done = ~active
            all_completion_times[trials[done]] = completion_times[done]
            all_busy[trials[done]] = busy[done]
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
        all_completion_times[trials] = completion_times
        all_busy[trials] = busy
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
