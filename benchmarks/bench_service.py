"""Benchmark scheduling-as-a-service: executor lifecycles and request latency.

The unit of performance here is the *request*, not the batch call.  Three
ways of serving the same sequence of ``POST /simulate``-sized requests
are timed:

* ``serve_base_pool_lifecycle`` — ``backend="process"`` with no
  injected executor: every request opens (and closes) its own
  :class:`~repro.api.executors.WarmPoolExecutor`, so it spins up a fresh
  ``spawn``-method worker pool, paying worker start-up + numpy/scipy
  import per request.
* ``serve_warm_*`` — the same requests through one prewarmed
  :class:`~repro.api.executors.WarmPoolExecutor` reused across
  requests (the request server's configuration).
* ``serve_base_serial`` — everything in-process, the zero-IPC floor.

``check_regression.py --mode ratio`` pairs ``test_serve_base_<key>``
with ``test_serve_warm_<key>`` and gates on the throughput ratio
``base_mean / warm_mean`` — both sides of each ratio are measured in the
same run on the same machine, so the gate transfers across runners.
The warm pool beats the per-request pool lifecycle by roughly the
pool-spawn-to-compute ratio (~10x here); against the serial floor it
trades a small IPC tax for parallelism, so that ratio is below 1 on a
single-core box and above it on multi-core runners — the committed
baseline records the measured value, whatever the machine.

``test_server_loadgen_p99`` measures the full stack — asyncio HTTP
server, warm-pool executor, wrk2-style open-loop driver — and lands
p50/p99 and achieved throughput in the benchmark json's ``extra_info``
(the BENCH_6 latency columns).

Both backends are also asserted bit-identical along the way, request
transport never changes samples — the service's core contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario, SimConfig, simulate
from repro.loadgen import default_simulate_spec, run_open_loop
from repro.server import WarmPoolExecutor, serve_background

SCENARIO = Scenario(shape="independent", n_jobs=30, n_machines=8,
                    model="specialist", seed=5)

#: Per-request trial count: above the serial-batch fast-path threshold,
#: so the process paths genuinely dispatch chunks to workers.
REQ_CONFIG = SimConfig(n_trials=600, seed=9)

#: Requests per timed region.  The base/pool-lifecycle side pays one
#: pool spin-up per request; the warm side reuses one pool for all of
#: them.
N_REQUESTS = 2

#: Pool width for both process-backed sides (identical, so lifecycle —
#: not parallelism — is what the pool_lifecycle pair isolates).
N_WORKERS = 2


def _serve_requests(**simulate_kwargs):
    """One request sequence: the workload every lifecycle bench repeats."""
    return [
        simulate(SCENARIO, "greedy", REQ_CONFIG, **simulate_kwargs)
        for _ in range(N_REQUESTS)
    ]


def _assert_matches_serial(reports) -> None:
    serial = simulate(SCENARIO, "greedy", REQ_CONFIG)
    for report in reports:
        assert np.array_equal(report.stats.samples, serial.stats.samples)


@pytest.mark.benchmark(group="service")
def test_serve_base_pool_lifecycle_2x600(benchmark):
    """Per-request pool spin-up (the pre-executor process backend)."""
    reports = benchmark.pedantic(
        lambda: _serve_requests(backend="process", n_workers=N_WORKERS),
        rounds=1, iterations=1,
    )
    _assert_matches_serial(reports)


@pytest.mark.benchmark(group="service")
def test_serve_warm_pool_lifecycle_2x600(benchmark):
    """The same requests through one prewarmed, reused warm pool."""
    with WarmPoolExecutor(n_workers=N_WORKERS) as ex:
        ex.prewarm()  # spawn cost paid here, outside the timed region
        reports = benchmark.pedantic(
            lambda: _serve_requests(executor=ex), rounds=1, iterations=1,
        )
    _assert_matches_serial(reports)


@pytest.mark.benchmark(group="service")
def test_serve_base_serial_2x600(benchmark):
    """The in-process floor for the same request sequence."""
    reports = benchmark.pedantic(
        lambda: _serve_requests(), rounds=1, iterations=1,
    )
    _assert_matches_serial(reports)


@pytest.mark.benchmark(group="service")
def test_serve_warm_serial_2x600(benchmark):
    """Warm pool again, paired against the serial floor this time."""
    with WarmPoolExecutor(n_workers=N_WORKERS) as ex:
        ex.prewarm()
        reports = benchmark.pedantic(
            lambda: _serve_requests(executor=ex), rounds=1, iterations=1,
        )
    _assert_matches_serial(reports)


@pytest.mark.benchmark(group="service")
def test_server_loadgen_p99(benchmark):
    """Full stack under constant-rate load; latency columns to extra_info."""
    import asyncio

    rps, duration = 20.0, 3.0
    with WarmPoolExecutor(n_workers=1) as ex:
        ex.prewarm()
        with serve_background(ex) as handle:
            spec = default_simulate_spec(n_trials=16)

            def run():
                return asyncio.run(
                    run_open_loop(handle.host, handle.port, spec,
                                  rps=rps, duration=duration)
                )

            report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.errors == 0, report.status_counts
    assert report.completed == report.offered
    latency = report.histogram.summary()
    benchmark.extra_info.update(
        target_rps=rps,
        achieved_rps=round(report.achieved_rps, 2),
        p50_ms=round(latency["p50"] * 1e3, 2),
        p90_ms=round(latency["p90"] * 1e3, 2),
        p99_ms=round(latency["p99"] * 1e3, 2),
        max_ms=round(latency["max"] * 1e3, 2),
    )
