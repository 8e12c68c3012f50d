"""Monte Carlo estimation of expected makespans.

Three estimators:

* :func:`estimate_expected_makespan` — run the real engine ``n_trials``
  times with independent RNG streams.  Works for every policy.
* :func:`compare_policies` — paired comparison with **common random
  numbers**: all policies face the *same* hidden SUU* thresholds in each
  trial.  By Theorem 10 this changes no marginal distribution, but it
  cancels the shared threshold noise out of makespan *differences*, making
  head-to-head experiments far sharper at equal trial counts.
All estimators route through the trial-vectorized kernel
(:func:`repro.sim.batch.run_policy_batch`) and accept a ``discipline``
argument (default: the ``REPRO_DISCIPLINE`` environment variable, else
``"v1"``).  Under discipline v1 the kernel replays the exact RNG tree of
the per-trial path, so routing never changes a single sample — it only
changes wall-clock time.  Under discipline v2 the kernel draws batch-native
streams (statistically equivalent, different samples; see
:mod:`repro.util.rng`).

* :func:`sample_oblivious_repeat_makespans` — an exact *closed-form sampler*
  for the special case of a finite oblivious schedule repeated until all
  jobs complete (the SUU-I-OBL execution model).  Using the SUU* view, job
  ``j``'s completion time is the first step at which its running mass
  reaches its threshold ``theta_j``, so makespans are sampled by threshold
  lookup without stepping the engine.  The lookup is
  :meth:`~repro.schedule.oblivious.FiniteObliviousSchedule.
  repeat_completions`, the routine the batch engine's closed-form route
  runs, so the samples equal ``run_policy_batch``'s on the same thresholds
  bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationHorizonError
from repro.instance.instance import SUUInstance
from repro.schedule.oblivious import FiniteObliviousSchedule
from repro.sim.batch import run_policy_batch
from repro.sim.engine import DEFAULT_MAX_STEPS, draw_thresholds
from repro.sim.results import MakespanStats
from repro.util.rng import (
    BatchStreams,
    ensure_rng,
    resolve_discipline,
    run_seed_sequence,
)

__all__ = [
    "estimate_expected_makespan",
    "compare_policies",
    "sample_oblivious_repeat_makespans",
]


def estimate_expected_makespan(
    instance: SUUInstance,
    policy_factory,
    n_trials: int,
    rng=None,
    *,
    semantics: str = "suu",
    max_steps: int = DEFAULT_MAX_STEPS,
    discipline: str | None = None,
) -> MakespanStats:
    """Estimate ``E[T_policy]`` by simulation.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable returning a *fresh* policy per trial
        (policies are stateful across a single execution).
    discipline:
        RNG discipline (``"v1"``/``"v2"``; ``None`` resolves through the
        environment).  Under v1 the samples are bit-identical to the
        historical per-trial loop; under v2 they are statistically
        equivalent batch-native draws.

    All dispatch lives in :func:`~repro.sim.batch.run_policy_batch`:
    batch-capable policies drive every trial at once, the rest run one
    scalar policy per trial.  Under v1, both paths consume the same RNG
    tree (one spawned generator per trial), so the samples are
    bit-identical either way.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    batch = run_policy_batch(
        instance,
        policy_factory,
        n_trials,
        rng,
        semantics=semantics,
        max_steps=max_steps,
        discipline=discipline,
    )
    return batch.stats()


def compare_policies(
    instance: SUUInstance,
    policy_factories: dict,
    n_trials: int,
    rng=None,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    discipline: str | None = None,
) -> dict[str, MakespanStats]:
    """Paired Monte Carlo comparison with common random numbers.

    Each trial draws one SUU* threshold vector and runs *every* policy
    against it (policies still get independent internal randomness).  The
    per-policy marginal statistics are unchanged (Theorem 10), but paired
    differences between policies have much lower variance than with
    independent runs.

    Parameters
    ----------
    policy_factories:
        Mapping label -> zero-argument policy factory.

    Returns
    -------
    Mapping label -> :class:`MakespanStats`; sample arrays are aligned
    trial-by-trial, so ``a.samples - b.samples`` is the paired difference.

    Every policy runs through :func:`~repro.sim.batch.run_policy_batch`
    against the whole threshold matrix at once (vectorized, phased or per
    trial); the thresholds and per-run generators are
    pre-drawn in the serial loop's exact order, so mixing batched and
    non-batched policies changes no sample.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    discipline = resolve_discipline(discipline)
    rng = ensure_rng(rng)
    labels = list(policy_factories)
    # Under v2, policy-internal randomness comes from per-policy stream
    # families off the run's root (derived before the v1 tree consumes
    # the generator); thresholds stay the common coupling variable.
    streams = None
    if discipline == "v2":
        streams = BatchStreams(run_seed_sequence(rng))
    # Pre-draw the common thresholds and per-(trial, policy) generators in
    # the historical trial-major order, preserving bit-identical streams.
    thetas = np.empty((n_trials, instance.n_jobs), dtype=np.float64)
    run_rngs = {label: [] for label in labels}
    for t in range(n_trials):
        thetas[t] = draw_thresholds(instance.n_jobs, rng)
        for label in labels:
            run_rngs[label].append(rng.spawn(1)[0])
    return {
        label: run_policy_batch(
            instance,
            policy_factories[label],
            trial_rngs=run_rngs[label],
            semantics="suu_star",
            thresholds=thetas,
            max_steps=max_steps,
            discipline=discipline,
            streams=None if streams is None else streams.child(k),
        ).stats(label)
        for k, label in enumerate(labels)
    }


def sample_oblivious_repeat_makespans(
    instance: SUUInstance,
    schedule: FiniteObliviousSchedule,
    n_trials: int,
    rng=None,
) -> MakespanStats:
    """Exactly sample makespans of ``schedule`` repeated until completion.

    Only valid for independent jobs (precedence would make completions
    interact with eligibility).  Under SUU*, job ``j`` with threshold
    ``theta_j`` finishes at the first step where its running mass reaches
    ``theta_j``, so the makespan is a deterministic ``max`` over jobs:
    :meth:`~repro.schedule.oblivious.FiniteObliviousSchedule.
    repeat_completions` finds each step by threshold lookup, with the batch
    engine's own float additions, so the samples equal
    ``run_policy_batch(instance, RepeatingObliviousPolicy(schedule),
    semantics="suu_star", thresholds=...)`` on the same thresholds, bit
    for bit.  By Theorem 10 the sampled distribution equals the engine's
    SUU distribution.  Like the engine, a trial may run for at most
    ``DEFAULT_MAX_STEPS`` steps (``SimulationHorizonError`` beyond).
    """
    if not instance.is_independent():
        raise ValueError("exact oblivious-repeat sampling requires independent jobs")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = ensure_rng(rng)
    n = instance.n_jobs
    pass_mass = schedule.mass_per_step(instance.ell).sum(axis=0)
    if (pass_mass <= 0).any():
        starved = np.nonzero(pass_mass <= 0)[0]
        raise ValueError(
            f"schedule gives zero mass to jobs {starved.tolist()}; "
            "repetition would never complete them"
        )
    theta = draw_thresholds(n * n_trials, rng).reshape(n_trials, n)
    completion, _ = schedule.repeat_completions(
        instance.ell, theta, DEFAULT_MAX_STEPS
    )
    unfinished = int(np.count_nonzero((completion == 0).any(axis=1)))
    if unfinished:
        raise SimulationHorizonError(
            f"{unfinished} of {n_trials} oblivious-repeat samples exceed "
            f"max_steps={DEFAULT_MAX_STEPS}",
            steps=DEFAULT_MAX_STEPS,
        )
    samples = completion.max(axis=1)
    return MakespanStats(samples=samples, policy_name="oblivious-repeat-exact")
