"""Benchmarks for the trial-vectorized batch kernel vs the scalar loop.

These are the measurements behind the repo's batch-kernel speedup claim:
the same oblivious-policy Monte Carlo estimate (1000 trials, SUU*
semantics) run through the pre-batch serial loop and through
:func:`repro.sim.batch.run_policy_batch`, which computes a repeated
schedule in closed form.  Both paths produce bit-identical makespans,
completion times and busy machine-steps (asserted here, in
``tests/test_batch_engine.py`` and in ``tests/test_closed_form.py``), so
the timings are directly comparable.

Run with ``make bench`` (or ``pytest benchmarks/bench_batch.py
--benchmark-only``); the committed ``BENCH_<n>.json`` files record the
measured trajectory.
"""

import time

import numpy as np
import pytest

from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.core.suu_i_obl import build_obl_schedule
from repro.instance import independent_instance
from repro.schedule.oblivious import RepeatingObliviousPolicy
from repro.sim.batch import run_policy_batch
from repro.sim.engine import run_policy
from repro.util.rng import ensure_rng

#: Trial count for the scalar-vs-batch comparison (the acceptance target
#: is a >= 10x speedup for oblivious-policy Monte Carlo at >= 1000 trials).
N_TRIALS = 1000
SEED = 9


@pytest.fixture(scope="module")
def obl_setup():
    inst = independent_instance(40, 8, "uniform", rng=2)
    schedule = build_obl_schedule(inst)
    return inst, schedule


def scalar_runs(inst, factory, n_trials, seed):
    """The pre-batch serial Monte Carlo loop: one ``run_policy`` per trial."""
    rngs = ensure_rng(seed).spawn(n_trials)
    return [run_policy(inst, factory(), r, semantics="suu_star") for r in rngs]


def scalar_loop(inst, factory, n_trials, seed):
    """The serial loop's makespan samples."""
    return np.array(
        [r.makespan for r in scalar_runs(inst, factory, n_trials, seed)],
        dtype=np.int64,
    )


def test_scalar_loop_oblivious_1000(benchmark, obl_setup):
    inst, schedule = obl_setup

    def run():
        return scalar_loop(
            inst, lambda: RepeatingObliviousPolicy(schedule), N_TRIALS, SEED
        )

    samples = benchmark.pedantic(run, rounds=3, iterations=1)
    assert samples.size == N_TRIALS


def test_batch_kernel_oblivious_1000(benchmark, obl_setup):
    inst, schedule = obl_setup

    def run():
        return run_policy_batch(
            inst,
            lambda: RepeatingObliviousPolicy(schedule),
            N_TRIALS,
            rng=SEED,
            semantics="suu_star",
        ).makespans

    samples = benchmark.pedantic(run, rounds=3, iterations=1)
    assert samples.size == N_TRIALS


def test_batch_kernel_greedy_1000(benchmark, obl_setup):
    inst, _ = obl_setup

    def run():
        return run_policy_batch(
            inst, GreedyLRPolicy, N_TRIALS, rng=SEED, semantics="suu_star"
        ).makespans

    samples = benchmark.pedantic(run, rounds=3, iterations=1)
    assert samples.size == N_TRIALS


def test_batch_speedup_and_equivalence(obl_setup):
    """One-shot timed comparison: identical results, large speedup.

    The batch side is the engine's closed form for repeated schedules
    (threshold lookup, no stepping), so besides the makespans it must
    reproduce every trial's completion times and busy machine-steps.
    The committed BENCH json records the precise ratio (>= 10x on the
    reference machine); the assertion floor is deliberately looser so a
    loaded CI box cannot flake the suite.
    """
    inst, schedule = obl_setup
    factory = lambda: RepeatingObliviousPolicy(schedule)  # noqa: E731

    t0 = time.perf_counter()
    runs = scalar_runs(inst, factory, N_TRIALS, SEED)
    t1 = time.perf_counter()
    batch = run_policy_batch(
        inst, factory, N_TRIALS, rng=SEED, semantics="suu_star"
    )
    t2 = time.perf_counter()

    assert np.array_equal([r.makespan for r in runs], batch.makespans)
    assert np.array_equal(
        np.stack([r.completion_times for r in runs]), batch.completion_times
    )
    assert np.array_equal(
        [r.busy_machine_steps for r in runs], batch.busy_machine_steps
    )
    speedup = (t1 - t0) / max(t2 - t1, 1e-9)
    print(f"\nbatch kernel speedup (oblivious, {N_TRIALS} trials): {speedup:.1f}x")
    assert speedup >= 5.0
