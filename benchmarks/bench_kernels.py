"""Micro-benchmarks of the computational kernels.

Two layers:

* Conventional pytest-benchmark timings (multiple rounds) for the pieces
  everything else is built from: the LP1 solve+round pipeline, the Dinic
  max-flow, the simulation engine's step loop, and the exact
  oblivious-repeat sampler.
* Stepping-kernel rows at Monte Carlo scale (10k trials):

  - ``test_kern_base_<key>`` — one :func:`run_policy_batch` call of the
    :mod:`repro.kernels` stepping kernels on a chain-heavy SUU-C row
    (whose segment SEM runs also solve an exact LP1 per distinct
    survivor set) and an independent greedy row (recorded, unpaired).
  - ``test_kern_checked_<key>`` / ``test_kern_trusted_<key>`` — the
    per-step assignment-validation knob (``validate=True`` vs the
    trusted first-step-only mode), paired by
    ``benchmarks/check_regression.py --mode ratio``.  The measured delta
    is small (~1.0x: the checks are whole-batch array ops); the pair
    exists to *measure* it and keeps BENCH_8's ratio gate non-empty.

Run the kernel rows with ``make bench-kernels``; ``BENCH_8.json``
records the measured trajectory.
"""

import time

import numpy as np

from repro.api.scenario import Scenario
from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.core.lp1 import solve_lp1
from repro.core.phased import clear_solve_cache
from repro.core.rounding import round_assignment
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_i_obl import build_obl_schedule
from repro.flow import MaxFlowNetwork
from repro.instance import independent_instance
from repro.sim import run_policy, sample_oblivious_repeat_makespans
from repro.sim.batch import run_policy_batch


def test_lp1_solve_and_round(benchmark):
    inst = independent_instance(60, 12, "specialist", rng=0)

    def pipeline():
        rel = solve_lp1(inst, target=0.5)
        return round_assignment(rel)

    rounded = benchmark(pipeline)
    assert rounded.load >= 1


def test_dinic_grid(benchmark):
    rng = np.random.default_rng(1)
    n = 120
    edges = [
        (int(rng.integers(0, n)), int(rng.integers(0, n)), int(rng.integers(1, 30)))
        for _ in range(1200)
    ]

    def flow():
        net = MaxFlowNetwork(n)
        for u, v, c in edges:
            if u != v:
                net.add_edge(u, v, c)
        return net.max_flow(0, n - 1)

    value = benchmark(flow)
    assert value >= 0


def test_engine_steps(benchmark):
    inst = independent_instance(40, 8, "uniform", rng=2)

    def run():
        return run_policy(inst, GreedyLRPolicy(), rng=3, max_steps=100_000).makespan

    makespan = benchmark(run)
    assert makespan >= 1


def test_exact_sampler(benchmark):
    inst = independent_instance(80, 10, "specialist", rng=4)
    schedule = build_obl_schedule(inst)

    def sample():
        return sample_oblivious_repeat_makespans(inst, schedule, 500, rng=5).mean

    mean = benchmark(sample)
    assert mean >= 1


# ---------------------------------------------------------------------------
# Stepping-kernel rows at Monte Carlo scale.

#: Trials per kernel row — the scale where per-step kernel cost, not
#: start-up work, dominates the wall-clock.
N_TRIALS = 10_000
SEED = 11


def _chains_instance():
    """Chain-heavy DAG: SUU-C drives the chain cursors *and* the fused
    step kernel every superstep, so both kernel families are hot."""
    return Scenario(shape="chains", n_jobs=36, n_machines=6,
                    model="specialist", seed=3).to_instance()


#: key -> zero-arg (instance, factory, run kwargs) builder.
KERNEL_CONFIGS = {
    "suuc_chains_10000": lambda: (
        _chains_instance(), SUUCPolicy, dict(semantics="suu")
    ),
    "greedy_10000": lambda: (
        independent_instance(40, 8, "uniform", rng=2), GreedyLRPolicy,
        dict(semantics="suu"),
    ),
}

#: Checked-side samples recorded for the trusted side of the same pair
#: (tests run in definition order within one process).
_CHECKED_SIDE: dict[str, np.ndarray] = {}


def _run_row(key: str, validate: bool = True):
    instance, factory, kwargs = KERNEL_CONFIGS[key]()
    clear_solve_cache()
    start = time.perf_counter()
    result = run_policy_batch(
        instance, factory, N_TRIALS, rng=SEED, max_steps=100_000,
        discipline="v2", validate=validate, **kwargs,
    )
    return result.makespans, time.perf_counter() - start


def _base_row(benchmark, key: str):
    samples, _ = benchmark.pedantic(
        lambda: _run_row(key), rounds=1, iterations=1
    )
    assert samples.size == N_TRIALS


def test_kern_base_suuc_chains_10000(benchmark):
    _base_row(benchmark, "suuc_chains_10000")


def test_kern_base_greedy_10000(benchmark):
    _base_row(benchmark, "greedy_10000")


def test_kern_checked_greedy_10000(benchmark):
    samples, _ = benchmark.pedantic(
        lambda: _run_row("greedy_10000", validate=True),
        rounds=1, iterations=1,
    )
    _CHECKED_SIDE["greedy_10000"] = samples
    assert samples.size == N_TRIALS


def test_kern_trusted_greedy_10000(benchmark):
    samples, _ = benchmark.pedantic(
        lambda: _run_row("greedy_10000", validate=False),
        rounds=1, iterations=1,
    )
    assert samples.size == N_TRIALS
    checked = _CHECKED_SIDE.get("greedy_10000")
    if checked is not None:
        # Hoisting validation must never change a sample on clean runs.
        assert np.array_equal(samples, checked)
