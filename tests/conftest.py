"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instance import (
    SUUInstance,
    chain_instance,
    independent_instance,
    tree_instance,
)


@pytest.fixture
def rng():
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_instance():
    """3 jobs x 2 machines, moderate failure probabilities, independent."""
    q = np.array(
        [
            [0.5, 0.3, 0.8],
            [0.2, 0.9, 0.4],
        ]
    )
    return SUUInstance(q)


@pytest.fixture
def small_independent():
    """10 jobs x 4 machines, specialist model."""
    return independent_instance(10, 4, "specialist", rng=7)


@pytest.fixture
def small_chains():
    """12 jobs in 3 chains x 4 machines."""
    return chain_instance(12, 4, 3, "uniform", rng=8)


@pytest.fixture
def small_tree():
    """10-job out-tree x 3 machines."""
    return tree_instance(10, 3, "out", "uniform", rng=9)


@pytest.fixture
def force_cpus(monkeypatch):
    """``force_cpus(count)`` makes the trial-shard layer see ``count`` CPUs,
    so a test can run more shards than the machine has CPUs (the shard
    count is capped at ``os.cpu_count()``)."""

    def force(count):
        monkeypatch.setattr("repro.sim.batch.os.cpu_count", lambda: count)

    return force
