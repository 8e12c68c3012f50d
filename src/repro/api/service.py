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
:mod:`repro.server.executors`) that owns a long-lived worker pool reused
across calls — the request server's warm-pool story.  The process
backend dispatches contiguous chunks of trials across a
``multiprocessing`` pool; because trial ``k``'s RNG stream is child ``k``
of the config seed's spawn tree (the same ``Generator.spawn`` tree the
serial loop walks, built on first use wherever the trial runs), the two
backends produce **bit-identical** makespan samples — parallelism never
changes results, only wall-clock time.  That
invariance holds under both RNG disciplines (``SimConfig.discipline``):
v1 replays the serial tree, v2 addresses its batch-native streams by
global trial index, so chunk layout is invisible either way.  Worker
pools install the cross-batch solve cache
(:func:`repro.core.phased.install_solve_cache`) through their
initializer, so a grid sweep's shared round-1 LPs are solved once per
worker process instead of once per chunk.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import get_context
from typing import TYPE_CHECKING

import numpy as np

from repro.api.registry import default_policy_for, policy_factory, policy_info
from repro.api.scenario import Scenario, ScenarioGrid, SimConfig
from repro.core.phased import install_solve_cache, shared_solve_cache
from repro.instance.instance import SUUInstance
from repro.lp.stats import lp_stats_delta, lp_stats_snapshot
from repro.sim.batch import run_policy_batch
from repro.sim.results import MakespanStats
from repro.util.rng import (
    BatchStreams,
    SpawnedRngs,
    ensure_rng,
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
    "worker_pool",
]

_BACKENDS = ("serial", "process")

#: Start method for worker pools.  ``spawn`` is used everywhere (not just
#: where it is the OS default) so results and failure modes are identical
#: across platforms and workers never inherit forked interpreter state.
_MP_START_METHOD = "spawn"


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
        ``{"threads": n}``: the resolved ``kernel_threads`` count the
        trials ran with.  ``None`` on legacy paths.
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


def run_trial_batch(
    instance, factory, rngs, semantics, max_steps, want_completions=False,
    discipline="v1", streams=None, want_lp_stats=False, validate=True,
    kernel_threads=1,
):
    """Run one chunk of Monte Carlo trials; returns the makespans.

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
    to chunk layout — they are just v2 samples.  The discipline — and,
    identically, the ``kernel_threads`` count — is resolved by the
    *caller* and passed explicitly so workers never consult their own
    environment.
    ``validate=False`` marks the policy as trusted (registry-dispatched):
    per-step assignment validation runs
    on the first step only (see :func:`repro.sim.batch.run_policy_batch`).

    With ``want_completions=True`` the chunk's ``(n_trials, n_jobs)``
    completion matrix rides along as a second return value (the raw
    material of :func:`repro.analysis.per_job_stats`); with
    ``want_lp_stats=True`` the chunk's LP-wall counter delta
    (:func:`repro.lp.stats.lp_stats_delta` around the run, measured inside
    the worker process) rides along as the final element.
    """
    before = lp_stats_snapshot() if want_lp_stats else None
    batch = run_policy_batch(
        instance, factory, trial_rngs=rngs, semantics=semantics,
        max_steps=max_steps, discipline=discipline, streams=streams,
        validate=validate, kernel_threads=kernel_threads,
    )
    out = (batch.makespans,)
    if want_completions:
        out = out + (batch.completion_times,)
    if want_lp_stats:
        out = out + (lp_stats_delta(before),)
    return out if len(out) > 1 else out[0]


def _resolve_policy(policy, instance, policy_kwargs):
    """Normalize a policy spec into ``(label, zero-arg factory, trusted)``.

    ``trusted`` is True for registry-dispatched specs (a name or
    ``"auto"``): those policies carry the library's own test coverage, so
    the batch driver validates their assignments on the first step only
    (``validate=False``).  User-supplied classes and factories keep full
    per-step validation.
    """
    if isinstance(policy, str):
        name = default_policy_for(instance) if policy == "auto" else policy
        info = policy_info(name)
        return info.name, policy_factory(info.name, **policy_kwargs), True
    if isinstance(policy, type):
        label = getattr(policy, "name", policy.__name__)
        return label, _with_kwargs(policy, policy_kwargs), False
    # Otherwise treat it as a zero-argument factory (each trial needs a
    # fresh policy, so already-constructed instances are not accepted).
    label = getattr(policy, "name", getattr(policy, "__name__", "policy"))
    return str(label), _with_kwargs(policy, policy_kwargs), False


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

#: Solve-cache capacity installed into pool workers.  A worker serves
#: many chunks and grid cells over its lifetime, so it gets a larger
#: cache than the in-process default (the pool initializer is what makes
#: the setting land in ``spawn``-ed processes).
WORKER_SOLVE_CACHE_ENTRIES = 4096

#: Minimum trials per process-backend chunk.  One chunk per worker was
#: tuned for the scalar loop; the batch kernel amortizes per-step work
#: over the whole chunk, so many tiny chunks waste kernel efficiency and
#: IPC — fewer, larger chunks win once workers outnumber the trials'
#: useful parallelism.
MIN_CHUNK_TRIALS = 64


def worker_pool(
    n_workers: int | None = None,
    solve_cache_entries: int = WORKER_SOLVE_CACHE_ENTRIES,
) -> ProcessPoolExecutor:
    """Construct the standard trial-chunk worker pool.

    The single place pool workers are configured: ``spawn`` start method
    (platform-uniform, no inherited interpreter state) and the process
    solve cache installed through the initializer, so every worker keeps
    a warm cache across all chunks, grid cells, and server requests it
    handles.  Callers own the lifecycle — :func:`simulate` /
    :func:`evaluate_grid` build one per call when asked for the process
    backend with no injected executor (the historical behavior), while
    :class:`repro.server.executors.WarmPoolExecutor` keeps one alive
    across requests.
    """
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=get_context(_MP_START_METHOD),
        initializer=install_solve_cache,
        initargs=(solve_cache_entries,),
    )


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


def _map_chunks(pool, n_workers, instance, factory, rngs, config,
                want_completions=False, discipline="v1", streams=None,
                want_lp_stats=False, validate=True, kernel_threads=1):
    """Fan trial chunks out over ``pool`` and reassemble them in order.

    Each chunk receives its span of ``rngs`` (from :func:`_run_batched`, a
    lazy :class:`~repro.util.rng.SpawnedRngs` slice that pickles as a few
    ints).  Under discipline v2 every chunk receives the run's streams
    re-based at its global start index, so a chunk computes exactly the
    rows of the whole-run draw it covers — chunk layout stays invisible
    in the samples.
    LP-wall counter deltas (measured inside each worker) sum across chunks.
    """
    bounds = _chunk_bounds(config.n_trials, n_workers)
    chunks = list(pool.map(
        run_trial_batch,
        *zip(
            *[
                (instance, factory, rngs[lo:hi], config.semantics,
                 config.max_steps, want_completions, discipline,
                 None if streams is None else streams.with_offset(lo),
                 want_lp_stats, validate, kernel_threads)
                for lo, hi in bounds
            ]
        ),
    ))
    if not (want_completions or want_lp_stats):
        return np.concatenate(chunks)
    parts = [c if isinstance(c, tuple) else (c,) for c in chunks]
    out = (np.concatenate([p[0] for p in parts]),)
    if want_completions:
        out = out + (np.concatenate([p[1] for p in parts]),)
    if want_lp_stats:
        out = out + (_sum_lp_deltas(p[-1] for p in parts),)
    return out


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


def _small_batch(config: SimConfig) -> bool:
    """Whether the trial count is below the serial fast-path threshold.

    One predicate shared by :func:`_run_batched` (take the fast path) and
    :func:`evaluate_grid` (skip building a pool) so the two sites cannot
    drift apart.
    """
    return config.n_trials < SERIAL_BATCH_THRESHOLD


def _spec_fast_path_eligible(spec, discipline: str = "v1") -> bool:
    """Fast-path eligibility for a policy *spec* as :func:`evaluate_grid`
    receives it (registry name, ``"auto"``, class, or factory).

    ``"auto"`` resolves per scenario — some precedence-class defaults run
    per trial under discipline v1 (suu-c, suu-t) — so it
    conservatively reports False: the sweep builds its shared pool, and
    cells that do take the fast path simply never touch it.
    """
    if isinstance(spec, str):
        if spec == "auto":
            return False
        try:
            spec = policy_factory(spec)
        except Exception:
            return False
    return _fast_path_eligible(spec, discipline)


def _run_batched(
    instance, factory, config: SimConfig, backend: str, n_workers, pool=None,
    want_completions=False, force_transport=False, want_lp_stats=False,
    validate=True, substream=None,
):
    """Dispatch the trials on the requested backend; returns all samples.

    Trial ``k`` reads child ``k`` of the run's spawn tree
    (:class:`~repro.util.rng.SpawnedRngs`, built on first use; chunks
    ship spans of it, not generator states), so the samples are
    bit-identical across backends, worker counts, and chunk layouts.
    ``pool`` lets :func:`evaluate_grid` (and injected request executors)
    reuse one long-lived pool (with ``n_workers`` workers) across many
    cells/requests instead of paying pool startup per call.
    ``force_transport`` disables the small-batch fast path: an explicitly
    injected executor owns the transport decision, and its warm workers
    (not this process) are where cache reuse should accumulate.
    ``validate=False`` marks a trusted (registry-dispatched) policy —
    per-step assignment validation runs on the first step only.
    ``substream`` (``config.substreams == "per-policy"`` in grid sweeps)
    re-roots *all* the run's randomness — the v1 trial tree and the v2
    batch streams alike — at :meth:`BatchStreams.child` of that index, so
    the same seed gives each compared policy statistically independent
    draws instead of common random numbers.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
    # Resolve every knob here, once, through the unified chain
    # (:func:`repro.api.config.resolve_knobs`), so workers never consult
    # their own environment; under v2 the whole run shares one stream
    # root addressed by global trial index (chunk-layout invariant).
    knobs = config.resolved()
    discipline = knobs.discipline
    kernel_threads = knobs.kernel_threads
    sub_root = None
    if substream is not None:
        sub_root = BatchStreams(run_seed_sequence(config.seed)).child(substream).root
    streams = None
    if discipline == "v2":
        streams = BatchStreams(sub_root if sub_root is not None else
                               run_seed_sequence(config.seed))
    # The trial generators are built on first use: the vectorized v2
    # path reads only trial 0's, and chunks ship spans, not states.
    root = (ensure_rng(config.seed).bit_generator.seed_seq if sub_root is None
            else sub_root)
    rngs = SpawnedRngs(root, config.n_trials)
    # Serial-batch fast path: for fast-path-eligible policies, small
    # batches lose more to pool dispatch than they gain from parallelism.
    # Identical samples either way — only the transport changes.
    # Per-trial-dispatch policies keep their explicit process request
    # regardless of size.
    if backend == "serial" or (
        not force_transport
        and _small_batch(config)
        and _fast_path_eligible(factory, discipline)
    ):
        return run_trial_batch(
            instance, factory, rngs, config.semantics, config.max_steps,
            want_completions, discipline, streams, want_lp_stats,
            validate, kernel_threads,
        )
    n_workers = n_workers or min(os.cpu_count() or 1, config.n_trials)
    if pool is not None:
        return _map_chunks(
            pool, n_workers, instance, factory, rngs, config,
            want_completions, discipline, streams, want_lp_stats,
            validate, kernel_threads,
        )
    with worker_pool(n_workers) as pool:
        return _map_chunks(
            pool, n_workers, instance, factory, rngs, config,
            want_completions, discipline, streams, want_lp_stats,
            validate, kernel_threads,
        )


def _resolve_executor(executor, backend, n_workers):
    """Fold an injected request executor into ``(backend, n_workers, pool)``.

    Executors (see :mod:`repro.server.executors`) are duck-typed here so
    the api layer never imports the server layer: anything with a
    ``backend`` attribute (``"serial"``/``"process"``), an ``n_workers``
    attribute, and an ``acquire()`` returning a chunk pool (or ``None``
    for in-process execution) plugs in.  When an executor is given it
    *owns* the transport — it overrides ``backend`` and, for process
    executors, supplies the long-lived pool.
    """
    if executor is None:
        return backend, n_workers, None, False
    pool = executor.acquire()
    return executor.backend, executor.n_workers or n_workers, pool, True


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
        An injected request executor (e.g. :class:`repro.server.
        executors.WarmPoolExecutor`) that owns the dispatch transport —
        long-lived warm pools reused across calls instead of a per-call
        pool spin-up.  Overrides ``backend``; samples stay bit-identical
        regardless (trial ``k`` reads child ``k`` of the spawn tree).
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
    backend, n_workers, pool, forced = _resolve_executor(
        executor, backend, n_workers
    )
    if isinstance(scenario, SUUInstance):
        declarative, instance = None, scenario
    else:
        declarative, instance = scenario, scenario.to_instance()
    return _simulate_instance(
        declarative, instance, policy, config, backend, n_workers,
        policy_kwargs, pool=pool, per_job=per_job, force_transport=forced,
    )


def _simulate_instance(
    declarative,
    instance,
    policy,
    config,
    backend,
    n_workers,
    policy_kwargs,
    pool=None,
    bound=None,
    per_job=False,
    force_transport=False,
    substream=None,
):
    """Shared core of :func:`simulate` / :func:`evaluate_grid`.

    ``pool`` and ``bound`` let grid sweeps (and injected executors) reuse
    one process pool and one LP lower-bound solve across the cells that
    share a scenario; ``substream`` is the per-policy stream index grid
    sweeps pass under ``config.substreams == "per-policy"``.
    """
    label, factory, trusted = _resolve_policy(policy, instance, policy_kwargs)
    out = _run_batched(
        instance, factory, config, backend, n_workers, pool=pool,
        want_completions=per_job, force_transport=force_transport,
        want_lp_stats=True, validate=not trusted, substream=substream,
    )
    samples = out[0]
    lp_stats = out[-1]
    job_stats = None
    if per_job:
        # Deferred import: analysis -> core -> api is a cycle at package
        # init time (see _lower_bound).
        from repro.analysis.perjob import per_job_stats

        job_stats = per_job_stats(out[1], policy_name=label)
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
        kernel={"threads": config.resolved_kernel_threads()},
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
    order; each (scenario, policy) cell runs under the same ``config``.

    Per-scenario work is shared across the policy cells: the instance is
    materialized and its LP lower bound solved once, and under
    ``backend="process"`` a single worker pool serves the whole sweep
    instead of being re-spawned per cell.  An injected ``executor``
    replaces that per-sweep pool with its own long-lived one (reused
    across *sweeps*, not just cells) and overrides ``backend``.
    """
    if isinstance(policies, str):
        policies = (policies,)
    config = config or SimConfig()
    knobs = config.resolved()
    discipline = knobs.discipline
    backend, n_workers, injected_pool, forced = _resolve_executor(
        executor, backend, n_workers
    )
    pool_cm = nullcontext(injected_pool)
    # Skip the shared pool only when *every* cell will take the serial-
    # batch fast path; one per-trial-dispatch policy in the sweep
    # keeps the single shared pool (per-cell pools would pay spawn-method
    # worker start-up once per cell).  Workers get the process-wide solve
    # cache installed up front, so the round-1 LPs shared by a sweep's
    # cells are solved once per worker, not once per chunk.
    if executor is None and backend == "process" and not (
        _small_batch(config)
        and all(_spec_fast_path_eligible(p, discipline) for p in policies)
    ):
        n_workers = n_workers or min(os.cpu_count() or 1, config.n_trials)
        pool_cm = worker_pool(n_workers)
    # Per-policy substreams: under "per-policy" every policy column gets
    # its own child of the run's stream root (independent estimates);
    # the "shared" default keeps common random numbers across policies.
    per_policy = knobs.substreams == "per-policy"
    reports = []
    with pool_cm as pool:
        for scenario in grid:
            instance = scenario.to_instance()
            bound = _lower_bound(instance)
            for k, policy in enumerate(policies):
                reports.append(
                    _simulate_instance(
                        scenario, instance, policy, config, backend,
                        n_workers, {}, pool=pool, bound=bound,
                        per_job=per_job, force_transport=forced,
                        substream=k if per_policy else None,
                    )
                )
    return reports
