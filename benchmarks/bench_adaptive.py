"""Benchmarks for grouped batch dispatch of the adaptive policies.

PR 2's kernel vectorized the static/oblivious family; these measurements
cover the paper's headline *adaptive* algorithms (``sem``, ``layered``,
``suu-c``), which route through the :class:`~repro.schedule.base.
PhasedPolicy` grouped-dispatch path: the same Monte Carlo estimate run
through the pre-batch serial loop and through
:func:`repro.sim.batch.run_policy_batch`.  Both paths produce bit-identical
makespan samples (asserted here and in ``tests/test_phased_batch.py``), so
the timings are directly comparable.

Naming convention: scalar/batch pairs share a suffix
(``test_scalar_loop_<key>`` / ``test_batch_kernel_<key>``) — that is what
``benchmarks/check_regression.py --mode ratio`` pairs up to gate CI on
machine-independent speedup ratios.

The ``*_v2_1000`` pairs measure the RNG-discipline-v2 chain algorithms:
``suu-c``/``suu-t`` through the array-cursor path of
:mod:`repro.core.chain_batch` (one shared LP per distinct (target,
survivor set) instead of one per trial) against the same pre-batch scalar
loop.  Under discipline v1 bit-identity pins those policies to per-trial
dispatch — one scalar policy per trial, lock-stepped through the batch
engine — and they stay ~1x (the retained ``suuc_100`` pair times exactly
that path); v2's acceptance floor is a >= 5x speedup at 1000 trials.

The newly covered v2 configurations get their own gated pairs:

* ``suuc_obl_v2_300`` — the ``inner="obl"`` ablation (declined the v2
  path before the obl-repeat inner cursors landed);
* ``suuc_prelude_v2_200`` — a ``t_LP2 > nm`` instance whose plan carries
  solo preludes (``unit > 1``; previously declined the v2 path);
* ``suuc_wide_v2_1000`` — the chain-heavy, no-segmentation configuration
  where superstep boundaries dominate: the pair that measures
  signature-grouped boundary stepping (PR 4's per-trial boundary walk
  recorded about half this pair's speedup on the same machine).

Run with ``make bench``; the committed ``BENCH_<n>.json`` files record the
measured trajectory (the acceptance target for this round is a >= 4x mean
speedup on ``sem``/``layered`` Monte Carlo at 1000 trials).
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.layered import LayeredPolicy
from repro.core.phased import clear_solve_cache
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_i_sem import SUUISemPolicy
from repro.core.suu_t import SUUTPolicy
from repro.instance import (
    chain_instance,
    forest_instance,
    independent_instance,
    layered_instance,
    prelude_chain_instance,
)
from repro.sim.batch import run_policy_batch
from repro.sim.engine import run_policy
from repro.util.rng import ensure_rng

#: Trial count for the adaptive scalar-vs-batch comparison.
N_TRIALS = 1000
#: The v1 SUU-C pair runs fewer trials: its grouping is per-trial (random
#: chain delays), so the win is bounded by the shared LP2 solve + the
#: vectorized engine and the scalar side is expensive.
N_TRIALS_SUUC = 100
SEED = 9


@pytest.fixture(scope="module")
def sem_instance():
    return independent_instance(30, 8, "uniform", rng=2)


@pytest.fixture(scope="module")
def layered_instance_fix():
    return layered_instance([10, 10], 6, rng=4)


@pytest.fixture(scope="module")
def chains_instance():
    return chain_instance(18, 5, 4, "uniform", rng=7)


@pytest.fixture(scope="module")
def forest_instance_fix():
    return forest_instance(18, 5, 3, rng=5)


@pytest.fixture(scope="module")
def wide_chains_instance():
    """Chain-heavy: 12 chains whose supersteps dominate the runtime."""
    return chain_instance(48, 6, 12, "uniform", rng=11)


@pytest.fixture(scope="module")
def prelude_instance_fix():
    """``t_LP2 > nm``: the plan rounds to ``unit > 1`` with solo preludes
    (the shared construction also used by tests/test_discipline.py)."""
    inst = prelude_chain_instance()
    assert SUUCPolicy().prepare_plan(inst).unit > 1
    return inst


@contextmanager
def _no_solve_cache():
    """Disable the cross-batch process solve cache for the duration.

    Scalar ``start()`` now routes plan preparation through the process
    cache; the scalar baselines must pay their per-trial solves like the
    pre-batch loop did, or the recorded speedups would compare against a
    cache-warmed 'scalar' side.
    """
    old = os.environ.get("REPRO_SOLVE_CACHE")
    os.environ["REPRO_SOLVE_CACHE"] = "0"
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_SOLVE_CACHE"]
        else:
            os.environ["REPRO_SOLVE_CACHE"] = old


def scalar_loop(inst, factory, n_trials, seed):
    """The pre-batch serial Monte Carlo loop, verbatim (solve cache off)."""
    with _no_solve_cache():
        rngs = ensure_rng(seed).spawn(n_trials)
        return np.array(
            [
                run_policy(inst, factory(), r, semantics="suu_star").makespan
                for r in rngs
            ],
            dtype=np.int64,
        )


def batch_kernel(inst, factory, n_trials, seed):
    """The batch kernel under v1 (cold cross-batch cache each round, so
    the measurement includes every LP this batch actually needs — the
    within-batch RoundScheduleCache sharing is the thing being timed)."""
    clear_solve_cache()
    return run_policy_batch(
        inst, factory, n_trials, rng=seed, semantics="suu_star",
        discipline="v1",
    ).makespans


def test_scalar_loop_sem_1000(benchmark, sem_instance):
    samples = benchmark.pedantic(
        lambda: scalar_loop(sem_instance, SUUISemPolicy, N_TRIALS, SEED),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS


def test_batch_kernel_sem_1000(benchmark, sem_instance):
    samples = benchmark.pedantic(
        lambda: batch_kernel(sem_instance, SUUISemPolicy, N_TRIALS, SEED),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS


def test_scalar_loop_layered_1000(benchmark, layered_instance_fix):
    samples = benchmark.pedantic(
        lambda: scalar_loop(layered_instance_fix, LayeredPolicy, N_TRIALS, SEED),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS


def test_batch_kernel_layered_1000(benchmark, layered_instance_fix):
    samples = benchmark.pedantic(
        lambda: batch_kernel(layered_instance_fix, LayeredPolicy, N_TRIALS, SEED),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS


def batch_kernel_v2(inst, factory, n_trials, seed):
    """The batch kernel under RNG discipline v2 (cold solve cache, so the
    measured time includes every LP the batch actually needs)."""
    clear_solve_cache()
    return run_policy_batch(
        inst, factory, n_trials, rng=seed, semantics="suu_star",
        discipline="v2",
    ).makespans


def test_scalar_loop_suuc_100(benchmark, chains_instance):
    samples = benchmark.pedantic(
        lambda: scalar_loop(chains_instance, SUUCPolicy, N_TRIALS_SUUC, SEED),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS_SUUC


def test_batch_kernel_suuc_100(benchmark, chains_instance):
    samples = benchmark.pedantic(
        lambda: batch_kernel(chains_instance, SUUCPolicy, N_TRIALS_SUUC, SEED),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS_SUUC


def test_scalar_loop_suuc_v2_1000(benchmark, chains_instance):
    samples = benchmark.pedantic(
        lambda: scalar_loop(chains_instance, SUUCPolicy, N_TRIALS, SEED),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS


def test_batch_kernel_suuc_v2_1000(benchmark, chains_instance):
    samples = benchmark.pedantic(
        lambda: batch_kernel_v2(chains_instance, SUUCPolicy, N_TRIALS, SEED),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS


def test_scalar_loop_suut_v2_1000(benchmark, forest_instance_fix):
    samples = benchmark.pedantic(
        lambda: scalar_loop(forest_instance_fix, SUUTPolicy, N_TRIALS, SEED),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS


def test_batch_kernel_suut_v2_1000(benchmark, forest_instance_fix):
    samples = benchmark.pedantic(
        lambda: batch_kernel_v2(forest_instance_fix, SUUTPolicy, N_TRIALS, SEED),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS


# ----------------------------------------------------------------------
# Newly covered v2 configurations (every configuration runs on array cursors)
# ----------------------------------------------------------------------
#: Trial counts scaled so each pair's scalar side stays benchable; both
#: sides of a pair always run the same count, so the ratio is meaningful.
N_TRIALS_OBL = 300
N_TRIALS_PRELUDE = 200


def suuc_obl():
    return SUUCPolicy(inner="obl")


def suuc_noseg():
    return SUUCPolicy(enable_segments=False)


def test_scalar_loop_suuc_obl_v2_300(benchmark, chains_instance):
    samples = benchmark.pedantic(
        lambda: scalar_loop(chains_instance, suuc_obl, N_TRIALS_OBL, SEED),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS_OBL


def test_batch_kernel_suuc_obl_v2_300(benchmark, chains_instance):
    samples = benchmark.pedantic(
        lambda: batch_kernel_v2(chains_instance, suuc_obl, N_TRIALS_OBL, SEED),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS_OBL


def test_scalar_loop_suuc_prelude_v2_200(benchmark, prelude_instance_fix):
    samples = benchmark.pedantic(
        lambda: scalar_loop(
            prelude_instance_fix, SUUCPolicy, N_TRIALS_PRELUDE, SEED
        ),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS_PRELUDE


def test_batch_kernel_suuc_prelude_v2_200(benchmark, prelude_instance_fix):
    samples = benchmark.pedantic(
        lambda: batch_kernel_v2(
            prelude_instance_fix, SUUCPolicy, N_TRIALS_PRELUDE, SEED
        ),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS_PRELUDE


def test_scalar_loop_suuc_wide_v2_1000(benchmark, wide_chains_instance):
    samples = benchmark.pedantic(
        lambda: scalar_loop(wide_chains_instance, suuc_noseg, N_TRIALS, SEED),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS


def test_batch_kernel_suuc_wide_v2_1000(benchmark, wide_chains_instance):
    samples = benchmark.pedantic(
        lambda: batch_kernel_v2(wide_chains_instance, suuc_noseg, N_TRIALS, SEED),
        rounds=3, iterations=1,
    )
    assert samples.size == N_TRIALS


@pytest.mark.parametrize(
    "label,fixture,factory,n",
    [
        ("suu-c inner=obl", "chains_instance", suuc_obl, N_TRIALS_OBL),
        ("suu-c prelude", "prelude_instance_fix", SUUCPolicy, N_TRIALS_PRELUDE),
        ("suu-c wide noseg", "wide_chains_instance", suuc_noseg, N_TRIALS),
    ],
)
def test_v2_full_coverage_speedup_and_equivalence(label, fixture, factory, n, request):
    """Acceptance for the newly covered configurations: the array-cursor
    path beats the pre-batch scalar loop with matched makespan statistics
    (loose floors so a loaded CI box cannot flake the suite; the committed
    BENCH json records the precise ratios)."""
    inst = request.getfixturevalue(fixture)
    n_scalar = max(50, n // 4)  # the scalar loop is the expensive side

    t0 = time.perf_counter()
    expect = scalar_loop(inst, factory, n_scalar, SEED)
    t1 = time.perf_counter()
    clear_solve_cache()
    batch = run_policy_batch(
        inst, factory, n, rng=SEED, semantics="suu_star", discipline="v2",
        max_steps=2_000_000,
    )
    t2 = time.perf_counter()

    assert batch.vectorized and batch.discipline == "v2"
    scalar_per_trial = (t1 - t0) / n_scalar
    batch_per_trial = max(t2 - t1, 1e-9) / n
    speedup = scalar_per_trial / batch_per_trial
    print(f"\nv2 coverage speedup ({label}, per-trial, {n} batch trials): "
          f"{speedup:.1f}x")
    assert speedup >= 1.5
    mean_scalar = expect.mean()
    mean_v2 = batch.makespans.mean()
    hw = 2 * 1.96 * expect.std(ddof=1) / np.sqrt(n_scalar)
    assert abs(mean_scalar - mean_v2) <= hw, (mean_scalar, mean_v2, hw)


@pytest.mark.parametrize(
    "label,fixture,factory,floor",
    [
        ("sem", "sem_instance", SUUISemPolicy, 4.0),
        ("layered", "layered_instance_fix", LayeredPolicy, 4.0),
    ],
)
def test_phased_speedup_and_equivalence(label, fixture, factory, floor, request):
    """One-shot timed comparison: identical samples, >= 4x speedup.

    The committed BENCH json records the precise ratio (well above 10x on
    the reference machine at 1000 trials); the assertion floor is the
    acceptance criterion and is deliberately looser so a loaded CI box
    cannot flake the suite.
    """
    inst = request.getfixturevalue(fixture)

    t0 = time.perf_counter()
    expect = scalar_loop(inst, factory, N_TRIALS, SEED)
    t1 = time.perf_counter()
    clear_solve_cache()
    batch = run_policy_batch(inst, factory, N_TRIALS, rng=SEED,
                             semantics="suu_star", discipline="v1")
    t2 = time.perf_counter()

    assert batch.vectorized
    assert np.array_equal(expect, batch.makespans)
    speedup = (t1 - t0) / max(t2 - t1, 1e-9)
    print(f"\ngrouped dispatch speedup ({label}, {N_TRIALS} trials): {speedup:.1f}x")
    assert speedup >= floor


@pytest.mark.parametrize(
    "label,fixture,factory",
    [
        ("suu-c", "chains_instance", SUUCPolicy),
        ("suu-t", "forest_instance_fix", SUUTPolicy),
    ],
)
def test_v2_chain_speedup_and_equivalence(label, fixture, factory, request):
    """The discipline-v2 acceptance criterion: the chain algorithms gain
    >= 5x over the pre-batch scalar loop at 1000 trials, with matched
    makespan statistics (v2 is a different stream, not bit-identical —
    the array/object cursor bit-level cross-check lives in
    tests/test_discipline.py).  The committed BENCH json records the
    precise ratio (well above the floor on the reference machine); the
    floor is loose so a loaded CI box cannot flake the suite.
    """
    inst = request.getfixturevalue(fixture)
    n_scalar = 200  # the scalar loop is the expensive side; scale its time

    t0 = time.perf_counter()
    expect = scalar_loop(inst, factory, n_scalar, SEED)
    t1 = time.perf_counter()
    clear_solve_cache()
    batch = run_policy_batch(
        inst, factory, N_TRIALS, rng=SEED, semantics="suu_star",
        discipline="v2",
    )
    t2 = time.perf_counter()

    assert batch.vectorized and batch.discipline == "v2"
    scalar_per_trial = (t1 - t0) / n_scalar
    batch_per_trial = max(t2 - t1, 1e-9) / N_TRIALS
    speedup = scalar_per_trial / batch_per_trial
    print(f"\nv2 chain speedup ({label}, per-trial, {N_TRIALS} batch trials): "
          f"{speedup:.1f}x")
    assert speedup >= 5.0
    # Statistical equivalence: matched means within generous CI bounds.
    mean_scalar = expect.mean()
    mean_v2 = batch.makespans.mean()
    hw = 2 * 1.96 * expect.std(ddof=1) / np.sqrt(n_scalar)
    assert abs(mean_scalar - mean_v2) <= hw, (mean_scalar, mean_v2, hw)
