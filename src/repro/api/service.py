"""The batched simulation service: scenarios in, reports out.

:func:`simulate` is the facade's single entry point for measuring a policy
on a scenario: it materializes the instance, resolves the policy through
the :mod:`repro.api.registry` (``"auto"`` picks the registered default for
the instance's precedence class), runs the Monte Carlo trials, and returns
a :class:`Report` bundling the makespan statistics with the provable lower
bound.  :func:`evaluate_grid` sweeps a :class:`~repro.api.scenario.
ScenarioGrid` across many policies.

Both accept ``backend="serial"`` or ``backend="process"``, or an
injected request *executor* (``executor=``, see
:mod:`repro.api.executors`) that owns a long-lived worker pool reused
across calls — the request server's warm-pool story.  A process call
with no injected executor opens a
:class:`~repro.api.executors.WarmPoolExecutor` for that call (or sweep)
and closes it on exit, so every worker pool is built in one place.  The
process backend dispatches contiguous chunks of trials across the pool;
a chunk map that a dying worker breaks is re-run once on a rebuilt
pool.  Because trial ``k``'s RNG stream is child ``k``
of the config seed's spawn tree (the same ``Generator.spawn`` tree the
serial loop walks, built on first use wherever the trial runs), the two
backends produce **bit-identical** makespan samples — parallelism never
changes results, only wall-clock time.  That
invariance holds under both RNG disciplines (``SimConfig.discipline``):
v1 replays the serial tree, v2 addresses its batch-native streams by
global trial index, so chunk layout is invisible either way — and so
is the retry.  Worker pools install the cross-batch solve cache
(:func:`repro.core.phased.install_solve_cache`) through their
initializer, so a grid sweep's shared round-1 LPs are solved once per
worker process instead of once per chunk.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.api.executors import WarmPoolExecutor
from repro.api.registry import default_policy_for, policy_factory, policy_info
from repro.api.scenario import Scenario, ScenarioGrid, SimConfig
from repro.core.phased import shared_solve_cache
from repro.instance.instance import SUUInstance
from repro.lp.stats import lp_stats_delta, lp_stats_snapshot
from repro.sim.batch import run_policy_batch
from repro.sim.results import MakespanStats
from repro.util.rng import (
    BatchStreams,
    SpawnedRngs,
    run_seed_sequence,
    spawn_rngs,  # noqa: F401 - perfbench's tracer wraps this name (rng.spawn)
)

if TYPE_CHECKING:  # pragma: no cover - typing only (deferred: layer cycle)
    from repro.analysis.perjob import PerJobStats

__all__ = [
    "Report",
    "simulate",
    "evaluate_grid",
    "run_trial_batch",
]

_BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class Report:
    """Outcome of measuring one policy on one scenario.

    Attributes
    ----------
    scenario:
        The declarative recipe that was simulated (``None`` when
        :func:`simulate` was handed a raw instance).
    policy:
        Canonical registry name (or display label) of the measured policy.
    stats:
        Monte Carlo makespan statistics.
    lower_bound:
        Provable lower bound on ``E[T_OPT]`` for the instance.
    config:
        The :class:`~repro.api.scenario.SimConfig` the trials used.
    per_job:
        Per-job completion statistics
        (:class:`~repro.analysis.perjob.PerJobStats`) when the simulation
        was asked for them (``per_job=True``); ``None`` otherwise.
    lp_stats:
        LP-wall attribution for this run (:mod:`repro.lp.stats` fields:
        ``lp_solves`` and ``assembly_seconds``), summed across worker
        chunks.  ``None`` on legacy paths that did not collect it.
    kernel:
        ``{"threads": n}``: the resolved ``kernel_threads`` cap, not the
        thread count that ran — only threshold-stepped vectorized
        batches shard (see :mod:`repro.sim.batch`, "Trial shards").
        ``None`` on legacy paths.
    """

    scenario: Scenario | None
    policy: str
    stats: MakespanStats
    lower_bound: float
    config: SimConfig
    per_job: "PerJobStats | None" = None
    lp_stats: dict | None = None
    kernel: dict | None = None

    @property
    def mean(self) -> float:
        """Estimated expected makespan ``E[T]``."""
        return self.stats.mean

    @property
    def ratio(self) -> float:
        """Measured approximation ratio ``E[T] / lower_bound``."""
        if self.lower_bound <= 0:
            return float("inf")
        return self.mean / self.lower_bound

    def to_dict(self) -> dict:
        """JSON-compatible representation (includes raw samples)."""
        return {
            "scenario": self.scenario.to_dict() if self.scenario else None,
            "policy": self.policy,
            "samples": self.stats.samples.tolist(),
            "mean": self.mean,
            "ci95": list(self.stats.ci95),
            "lower_bound": self.lower_bound,
            "ratio": self.ratio,
            "config": self.config.to_dict(),
            "per_job": self.per_job.to_dict() if self.per_job else None,
            "lp": self.lp_stats,
            "kernel": self.kernel,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.scenario.label() if self.scenario else "instance"
        return (
            f"Report({self.policy} on {where}: E[T]={self.mean:.3f}, "
            f"ratio<={self.ratio:.3f}, n={self.stats.n_trials})"
        )


def run_trial_batch(instance, factory, rngs, config, knobs, streams,
                    want_completions):
    """Run one chunk of Monte Carlo trials.

    Returns ``(makespans, completions, lp_delta)``: the chunk's makespan
    samples; its ``(n_trials, n_jobs)`` completion matrix when
    ``want_completions`` is set (the raw material of
    :func:`repro.analysis.per_job_stats`), else ``None``; and the chunk's
    LP-wall counter delta (:func:`repro.lp.stats.lp_stats_delta` around
    the run, measured in the process that ran it).

    Module-level (rather than a closure) so the process backend can ship it
    to ``spawn``-ed workers.  ``factory`` must therefore be picklable — the
    registry's :func:`~repro.api.registry.policy_factory` partials are (and
    so are :class:`~repro.util.rng.BatchStreams`).

    The trial-vectorized kernel owns all dispatch: batch-capable policies
    drive the whole chunk at once, phased (adaptive) policies go through
    grouped dispatch, the rest run per trial.  Under discipline
    v1 the kernel replays this chunk's RNG streams exactly, so chunking,
    backends, and dispatch mode all produce bit-identical samples; under
    v2 the chunk reads its global rows of the run's batch streams
    (``streams`` arrives offset-rebased), so samples are still invariant
    to chunk layout — they are just v2 samples.  ``config`` supplies the
    semantics and the horizon; ``knobs`` is the caller's frozen
    :class:`~repro.api.config.ResolvedKnobs` snapshot, which supplies the
    discipline and the ``kernel_threads`` count, so a worker's own
    environment never changes a run.  Every step of every trial is
    checked (see :func:`repro.sim.batch.run_policy_batch`).
    """
    before = lp_stats_snapshot()
    batch = run_policy_batch(
        instance, factory, trial_rngs=rngs, semantics=config.semantics,
        max_steps=config.max_steps, discipline=knobs.discipline,
        streams=streams, kernel_threads=knobs.kernel_threads,
    )
    completions = batch.completion_times if want_completions else None
    return batch.makespans, completions, lp_stats_delta(before)


def _resolve_policy(policy, instance, policy_kwargs):
    """Normalize a policy spec into ``(label, zero-arg factory)``."""
    if isinstance(policy, str):
        name = default_policy_for(instance) if policy == "auto" else policy
        info = policy_info(name)
        return info.name, policy_factory(info.name, **policy_kwargs)
    if isinstance(policy, type):
        label = getattr(policy, "name", policy.__name__)
        return label, _with_kwargs(policy, policy_kwargs)
    # Otherwise treat it as a zero-argument factory (each trial needs a
    # fresh policy, so already-constructed instances are not accepted).
    label = getattr(policy, "name", getattr(policy, "__name__", "policy"))
    return str(label), _with_kwargs(policy, policy_kwargs)


def _with_kwargs(fn, kwargs):
    """Bind constructor kwargs onto a class/factory as a zero-arg factory."""
    return functools.partial(fn, **kwargs) if kwargs else fn


#: Below this many trials the process backend runs the batch kernel
#: in-process: with the kernel paying its per-step cost once per timestep,
#: a small batch finishes faster than worker dispatch + pickling even
#: starts.  Chunk layout never changes samples (trial ``k`` always reads
#: child ``k`` of the run's spawn tree), so the fast path is bit-identical
#: by construction.
SERIAL_BATCH_THRESHOLD = 256

#: Minimum trials per process-backend chunk.  One chunk per worker was
#: tuned for the scalar loop; the batch kernel amortizes per-step work
#: over the whole chunk, so many tiny chunks waste kernel efficiency and
#: IPC — fewer, larger chunks win once workers outnumber the trials'
#: useful parallelism.
MIN_CHUNK_TRIALS = 64


def _chunk_bounds(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous batch-kernel-sized spans.

    At most ``n_chunks`` spans (one per worker), but never more than
    ``n_items / MIN_CHUNK_TRIALS`` — the auto heuristic that keeps every
    chunk large enough for the vectorized kernel to amortize its per-step
    cost.  Chunk layout is invisible in the results (samples concatenate
    in trial order, and trial ``k`` reads child ``k`` of the spawn tree).
    """
    n_chunks = max(1, min(n_chunks, n_items, n_items // MIN_CHUNK_TRIALS or 1))
    base, extra = divmod(n_items, n_chunks)
    bounds, start = [], 0
    for k in range(n_chunks):
        size = base + (1 if k < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _sum_lp_deltas(deltas) -> dict:
    """Field-wise sum of per-chunk LP-wall counter deltas."""
    total: dict = {}
    for delta in deltas:
        for name, value in delta.items():
            total[name] = total.get(name, 0) + value
    return total


def _map_chunks(pool, n_workers, instance, factory, rngs, config, knobs,
                streams, want_completions):
    """Fan trial chunks out over ``pool`` and reassemble them in order.

    Each chunk receives its span of ``rngs`` (from :func:`_run_batched`, a
    lazy :class:`~repro.util.rng.SpawnedRngs` slice that pickles as a few
    ints) and the caller's ``config`` and ``knobs``.  Under discipline v2
    every chunk receives the run's streams re-based at its global start
    index, so a chunk computes exactly the rows of the whole-run draw it
    covers — chunk layout stays invisible in the samples.
    Returns :func:`run_trial_batch`'s triple for the whole run: makespans
    and completion matrices concatenate in trial order, and the LP-wall
    counter deltas (measured inside each worker) sum.
    """
    bounds = _chunk_bounds(config.n_trials, n_workers)
    chunks = pool.map(
        run_trial_batch,
        *zip(
            *[
                (instance, factory, rngs[lo:hi], config, knobs,
                 None if streams is None else streams.with_offset(lo),
                 want_completions)
                for lo, hi in bounds
            ]
        ),
    )
    makespans, completions, deltas = zip(*chunks)
    return (
        np.concatenate(makespans),
        np.concatenate(completions) if want_completions else None,
        _sum_lp_deltas(deltas),
    )


def _fast_path_eligible(factory, discipline: str = "v1") -> bool:
    """True when small batches of this policy should skip the pool.

    Only policies whose trials share rows in-process: vectorized ones and
    phased ones whose grouped dispatch covers ``discipline``.  The rest
    run one scalar policy per trial (neither protocol, or SUU-C/SUU-T
    under discipline v1), so in-process batching shares no work and an
    explicit process request stands for them.
    """
    from repro.schedule.base import supports_batch, supports_phased

    try:
        probe = factory()
    except Exception:
        return False
    return supports_batch(probe) or supports_phased(probe, discipline)


def _run_batched(instance, factory, config: SimConfig, knobs, executor=None,
                 want_completions=False):
    """Run the trials in-process (``executor`` ``None`` or serial) or as
    trial chunks on ``executor``'s worker pool.

    Returns :func:`run_trial_batch`'s ``(makespans, completions,
    lp_delta)`` triple for the whole run.  ``knobs`` is the frozen
    :class:`~repro.api.config.ResolvedKnobs` snapshot the caller resolved
    once; every chunk runs under it.
    Trial ``k`` reads child ``k`` of the run's spawn tree
    (:class:`~repro.util.rng.SpawnedRngs`, built on first use; chunks
    ship spans of it, not generator states), so the samples are
    bit-identical across backends, worker counts, and chunk layouts.
    That also makes a chunk map a dying worker broke safe to re-run: it
    runs once more on the executor's rebuilt, re-warmed pool, and a
    second break propagates.  The trial tree and the v2 streams hang off
    one root, ``config.seed``'s sequence.
    """
    root = run_seed_sequence(config.seed)
    # Under v2 the whole run shares one stream root addressed by global
    # trial index (chunk-layout invariant).
    streams = BatchStreams(root) if knobs.discipline == "v2" else None
    # The trial generators are built on first use: the vectorized v2
    # path reads only trial 0's, and chunks ship spans, not states.
    rngs = SpawnedRngs(root, config.n_trials)
    if executor is None or executor.backend == "serial":
        return run_trial_batch(
            instance, factory, rngs, config, knobs, streams, want_completions
        )
    args = (executor.n_workers or min(os.cpu_count() or 1, config.n_trials),
            instance, factory, rngs, config, knobs, streams, want_completions)
    try:
        return _map_chunks(executor.pool(), *args)
    except BrokenProcessPool:
        executor.prewarm()  # replaces the broken pool, counts a restart
        return _map_chunks(executor.pool(), *args)


def _open_executor(executor, backend, n_workers, n_trials):
    """The executor a :func:`simulate` / :func:`evaluate_grid` call runs
    on, as a context manager.

    An injected executor owns the transport: it counts this call
    (:meth:`~repro.api.executors.RequestExecutor.acquire`) and outlives
    it.  Otherwise ``backend="process"`` opens a
    :class:`~repro.api.executors.WarmPoolExecutor` that lives for this
    call only; its pool is built by the first chunk map, so a call whose
    every batch takes the small-batch fast path never builds one.
    ``backend="serial"`` runs in-process (``None``).
    """
    if executor is not None:
        executor.acquire()
        return nullcontext(executor)
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
    if backend == "serial":
        return nullcontext(None)
    return WarmPoolExecutor(n_workers or min(os.cpu_count() or 1, n_trials))


def simulate(
    scenario: Scenario | SUUInstance,
    policy="auto",
    config: SimConfig | None = None,
    *,
    backend: str = "serial",
    n_workers: int | None = None,
    executor=None,
    per_job: bool = False,
    **policy_kwargs,
) -> Report:
    """Measure ``policy`` on ``scenario`` and return a :class:`Report`.

    Parameters
    ----------
    scenario:
        A declarative :class:`~repro.api.scenario.Scenario`, or a
        ready-made :class:`~repro.instance.instance.SUUInstance`.
    policy:
        Registry name or alias, ``"auto"`` (registered default for the
        instance's precedence class), a ``Policy`` subclass, or a
        picklable zero-argument factory.
    config:
        Trial count / seed / semantics / horizon; defaults to
        ``SimConfig()``.
    backend:
        ``"serial"`` or ``"process"`` (bit-identical samples).
    n_workers:
        Process-backend pool size (default: CPU count, capped at the
        trial count).
    executor:
        An injected request executor (e.g. :class:`repro.api.
        executors.WarmPoolExecutor`) that owns the dispatch transport —
        long-lived warm pools reused across calls instead of a per-call
        pool spin-up.  Overrides ``backend`` and ``n_workers``, and
        always dispatches on its pool (no small-batch fast path); samples
        stay bit-identical regardless (trial ``k`` reads child ``k`` of
        the spawn tree).
    per_job:
        Also collect the per-trial completion matrix and attach
        :class:`~repro.analysis.perjob.PerJobStats` to the report
        (``report.per_job``: per-job tail latencies, completion
        quantiles, makespan attribution).
    **policy_kwargs:
        Extra constructor arguments for the policy (e.g.
        ``inner="obl"`` for SUU-C ablations).
    """
    config = config or SimConfig()
    with _open_executor(executor, backend, n_workers, config.n_trials) as ex:
        if isinstance(scenario, SUUInstance):
            declarative, instance = None, scenario
        else:
            declarative, instance = scenario, scenario.to_instance()
        return _simulate_instance(
            declarative, instance, policy, config, config.resolved(), ex,
            policy_kwargs, fast_path=executor is None, per_job=per_job,
        )


def _simulate_instance(
    declarative,
    instance,
    policy,
    config,
    knobs,
    executor,
    policy_kwargs,
    fast_path,
    bound=None,
    per_job=False,
):
    """Shared core of :func:`simulate` / :func:`evaluate_grid`.

    ``knobs`` is the caller's one ``config.resolved()`` snapshot and
    ``executor`` the one :func:`_open_executor` opened.  ``fast_path``
    lets a small batch of a fast-path-eligible policy run in-process
    whatever the executor: for vectorized and phased policies that beats
    worker dispatch + pickling, with identical samples.  Callers clear it
    for injected executors, which own the transport decision (their warm
    workers, not this process, are where cache reuse should accumulate).
    ``bound`` lets grid sweeps reuse one LP lower-bound solve across the
    cells that share a scenario.
    """
    label, factory = _resolve_policy(policy, instance, policy_kwargs)
    if (fast_path and executor is not None
            and config.n_trials < SERIAL_BATCH_THRESHOLD
            and _fast_path_eligible(factory, knobs.discipline)):
        executor = None
    samples, completions, lp_stats = _run_batched(
        instance, factory, config, knobs, executor, want_completions=per_job,
    )
    job_stats = None
    if per_job:
        # Deferred import: analysis -> core -> api is a cycle at package
        # init time (see _lower_bound).
        from repro.analysis.perjob import per_job_stats

        job_stats = per_job_stats(completions, policy_name=label)
    if bound is None:
        bound = _lower_bound(instance)
    return Report(
        scenario=declarative,
        policy=label,
        stats=MakespanStats(samples=samples, policy_name=label),
        lower_bound=bound,
        config=config,
        per_job=job_stats,
        lp_stats=lp_stats,
        kernel={"threads": knobs.kernel_threads},
    )


def _lower_bound(instance) -> float:
    """The report's ``lower_bound``, memoized per process.

    Cached in the shared solve cache under ``("lower-bound", digest)``:
    the bound is a deterministic function of the instance, so repeat
    ``simulate()`` calls and server requests on one scenario solve its
    LPs once (``REPRO_SOLVE_CACHE=0`` re-solves every time).
    """
    # Deferred import: analysis -> core -> api is a cycle while those
    # packages are still initializing, so the bound is resolved at call time.
    from repro.analysis.bounds import lower_bound

    return shared_solve_cache().lookup(
        ("lower-bound", instance.digest()), lambda: float(lower_bound(instance))
    )


def evaluate_grid(
    grid: ScenarioGrid | list[Scenario],
    policies=("auto",),
    *,
    config: SimConfig | None = None,
    backend: str = "serial",
    n_workers: int | None = None,
    executor=None,
    per_job: bool = False,
) -> list[Report]:
    """Measure every policy on every scenario of a sweep.

    Returns reports ordered scenario-major (all policies of the first
    scenario, then the second, ...), matching the grid's declaration
    order; each (scenario, policy) cell runs under the same ``config``,
    so the policies of one scenario see the same randomness (common
    random numbers: minimum-variance policy *differences*).

    Per-scenario work is shared across the policy cells: the instance is
    materialized and its LP lower bound solved once, and under
    ``backend="process"`` a single worker pool serves the whole sweep
    instead of being re-spawned per cell (built by the first cell that
    dispatches chunks, so a sweep of small fast-path batches builds
    none).  An injected ``executor`` replaces that per-sweep pool with
    its own long-lived one (reused across *sweeps*, not just cells),
    overrides ``backend``, and counts the sweep as one request.
    """
    if isinstance(policies, str):
        policies = (policies,)
    config = config or SimConfig()
    knobs = config.resolved()
    reports = []
    with _open_executor(executor, backend, n_workers, config.n_trials) as ex:
        for scenario in grid:
            instance = scenario.to_instance()
            bound = _lower_bound(instance)
            for policy in policies:
                reports.append(
                    _simulate_instance(
                        scenario, instance, policy, config, knobs, ex, {},
                        fast_path=executor is None, bound=bound,
                        per_job=per_job,
                    )
                )
    return reports
