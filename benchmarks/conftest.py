"""Benchmark configuration.

Each benchmark wraps one experiment runner from ``repro.experiments`` at a
reduced (bench-sized) configuration: pytest-benchmark times it, and the
resulting table — the same rows EXPERIMENTS.md records at full size — is
printed so ``pytest benchmarks/bench_*.py --benchmark-only`` regenerates
every table/figure of the reproduction in one command (the explicit glob
matters: ``bench_*.py`` does not match pytest's auto-discovery pattern).
"""

from __future__ import annotations

import pytest


def run_and_print(benchmark, runner, **kwargs):
    """Benchmark ``runner(**kwargs)`` and print its table once."""
    result = benchmark.pedantic(runner, kwargs=kwargs, rounds=1, iterations=1)
    print()
    print(result.to_text())
    return result


@pytest.fixture
def bench_table(benchmark):
    """Fixture exposing :func:`run_and_print` with the benchmark bound."""

    def _run(runner, **kwargs):
        return run_and_print(benchmark, runner, **kwargs)

    return _run
