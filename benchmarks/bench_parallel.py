"""Trial-parallelism benchmarks: serial vs trial-sharded batches.

Gates the ``REPRO_KERNEL_THREADS`` axis with serial-vs-threaded pairs at
Monte Carlo scale.  Naming convention (what ``benchmarks/
check_regression.py --mode ratio`` pairs up):

- ``test_par_serial_<key>`` / ``test_par_threads_<key>`` — the same
  workload with ``kernel_threads=1`` vs ``kernel_threads=THREADS``.  The
  threaded side *hard-asserts* bit-identical makespan samples (threads
  never change results, only wall-clock time).

The ``shard_*`` rows split the batch into contiguous trial shards
executed on a thread pool (:func:`repro.sim.batch.run_policy_batch`'s
shard layer).  Python-level policy stepping holds the GIL, so the
expected speedup is modest — these rows *record* their speedup and
``cpu_count`` in ``extra_info`` without asserting a floor.

Run with ``make bench-parallel``; ``BENCH_9.json`` records the measured
trajectory.
"""

import os
import time

import numpy as np

from repro.api.scenario import Scenario
from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.core.phased import clear_solve_cache
from repro.core.suu_c import SUUCPolicy
from repro.instance import independent_instance
from repro.sim.batch import run_policy_batch

#: Trials per row — the scale where per-step kernel cost dominates.
N_TRIALS = 10_000
SEED = 11
#: Threaded-side worker count: at least 2 so the shard machinery is
#: always exercised (even on 1-core boxes, where it is timed honestly),
#: at most 4 so the committed baseline is comparable across runners.
THREADS = max(2, min(4, os.cpu_count() or 1))


def _chains_instance():
    return Scenario(shape="chains", n_jobs=36, n_machines=6,
                    model="specialist", seed=3).to_instance()


#: key -> zero-arg (instance, factory, run kwargs) builder.
PARALLEL_CONFIGS = {
    "shard_greedy_10000": lambda: (
        independent_instance(40, 8, "uniform", rng=2), GreedyLRPolicy,
        dict(semantics="suu"),
    ),
    "shard_suuc_10000": lambda: (
        _chains_instance(), SUUCPolicy, dict(semantics="suu"),
    ),
}

#: Serial-side (samples, seconds) recorded for the threaded side of the
#: same pair (tests run in definition order within one process).
_SERIAL_SIDE: dict[str, tuple[np.ndarray, float]] = {}


def _run_row(key: str, threads: int):
    instance, factory, kwargs = PARALLEL_CONFIGS[key]()
    clear_solve_cache()
    start = time.perf_counter()
    result = run_policy_batch(
        instance, factory, N_TRIALS, rng=SEED, max_steps=100_000,
        discipline="v2", kernel_threads=threads, **kwargs,
    )
    return result.makespans, time.perf_counter() - start


def _serial_side(benchmark, key: str):
    samples, seconds = benchmark.pedantic(
        lambda: _run_row(key, 1), rounds=1, iterations=1
    )
    _SERIAL_SIDE[key] = (samples, seconds)
    assert samples.size == N_TRIALS


def _threaded_side(benchmark, key: str):
    samples, seconds = benchmark.pedantic(
        lambda: _run_row(key, THREADS), rounds=1, iterations=1
    )
    assert samples.size == N_TRIALS
    benchmark.extra_info["threads"] = THREADS
    base = _SERIAL_SIDE.get(key)
    if base is None:  # threaded benchmark ran solo; nothing to compare
        return
    base_samples, base_seconds = base
    assert np.array_equal(samples, base_samples), (
        f"{key}: kernel_threads={THREADS} samples diverged from serial"
    )
    print(f"\n{key}: serial {base_seconds:.2f}s -> {THREADS} threads "
          f"{seconds:.2f}s ({base_seconds / seconds:.2f}x)")
    # No floor on shard rows (GIL-bound): record the measurement only.
    benchmark.extra_info["cpu_count"] = os.cpu_count() or 1
    if seconds > 0:
        benchmark.extra_info["speedup"] = round(base_seconds / seconds, 3)


def test_par_serial_shard_greedy_10000(benchmark):
    _serial_side(benchmark, "shard_greedy_10000")


def test_par_threads_shard_greedy_10000(benchmark):
    _threaded_side(benchmark, "shard_greedy_10000")


def test_par_serial_shard_suuc_10000(benchmark):
    _serial_side(benchmark, "shard_suuc_10000")


def test_par_threads_shard_suuc_10000(benchmark):
    _threaded_side(benchmark, "shard_suuc_10000")
