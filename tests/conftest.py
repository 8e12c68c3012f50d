"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os
from unittest import mock

import numpy as np
import pytest

from repro.api.config import KERNEL_THREADS_ENV_VAR
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_t import SUUTPolicy
from repro.instance import (
    SUUInstance,
    chain_instance,
    independent_instance,
    tree_instance,
)
from repro.schedule.pseudo import draw_delays
from repro.sim import run_policy_batch
from repro.sim.engine import draw_thresholds
from repro.util.rng import ensure_rng


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


@contextlib.contextmanager
def _kernel_threads_env(count):
    # patch.dict restores the whole environment on exit.
    with mock.patch.dict(os.environ):
        if count is None:
            os.environ.pop(KERNEL_THREADS_ENV_VAR, None)
        else:
            os.environ[KERNEL_THREADS_ENV_VAR] = str(count)
        yield


@pytest.fixture(scope="session")
def threads_env():
    """``with threads_env(count):`` runs a block with the host's
    trial-shard cap ``REPRO_KERNEL_THREADS`` set to ``count`` (``None``:
    unset) and restores the environment after it.  Built on
    ``unittest.mock.patch.dict`` rather than ``monkeypatch``, so it also
    scopes a block inside one hypothesis example (which is also why the
    fixture lives for the whole test run)."""
    return _kernel_threads_env


def _chain_crosscheck(inst, cls, kwargs, n_trials, seed, theta_seed=900):
    """Run ``cls(**kwargs)`` (SUU-C or SUU-T) under v1 and v2 on equal
    inputs and assert the two executions agree bit for bit.

    The v2 side's delay draw is replaced by the delays v1 draws per trial
    (SUU-T: one spawned child per block, in block order), and both sides
    share the SUU* thresholds of ``ensure_rng(theta_seed + k)`` for trial
    ``k``: array cursors and object cursors then face the same inputs, so
    makespans and completion matrices must be equal.  Returns the
    ``(v1, v2)`` batch results.
    """
    chain = SUUCPolicy(**kwargs)  # SUU-T forwards its kwargs to each block
    if cls is SUUTPolicy:
        probe = SUUTPolicy(**kwargs)
        probe._instance = inst
        plans = [plan for _, _, plan in probe._shared_block_plans(inst)]
    else:
        plans = [chain.prepare_plan(inst)]
    delays = [np.empty((n_trials, len(p.chains)), dtype=np.int64) for p in plans]
    for k, r in enumerate(ensure_rng(seed).spawn(n_trials)):
        policy_rng, _ = r.spawn(2)
        for b, plan in enumerate(plans):
            rng = policy_rng.spawn(1)[0] if cls is SUUTPolicy else policy_rng
            delays[b][k] = draw_delays(
                len(plan.chains), plan.horizon, rng, unit=plan.unit,
                enabled=chain.enable_delays,
            )
    theta = np.vstack(
        [
            draw_thresholds(inst.n_jobs, ensure_rng(theta_seed + k))
            for k in range(n_trials)
        ]
    )

    class Injected(cls):
        def _draw_v2_delays(self, streams, n, plan, *key):  # SUU-C's draw
            return delays[0]

        def _draw_block_delays(self, streams, n, plan, block, probe):  # SUU-T's
            return delays[block]

    def run(factory, discipline):
        return run_policy_batch(
            inst, factory, n_trials, rng=seed, semantics="suu_star",
            thresholds=theta, discipline=discipline, max_steps=2_000_000,
        )

    v1 = run(lambda: cls(**kwargs), "v1")
    v2 = run(lambda: Injected(**kwargs), "v2")
    assert np.array_equal(v1.makespans, v2.makespans)
    assert np.array_equal(v1.completion_times, v2.completion_times)
    return v1, v2


@pytest.fixture
def chain_crosscheck():
    """``chain_crosscheck(inst, cls, kwargs, n_trials, seed)``: the v1
    object cursors vs v2 array cursors harness of the chain algorithms
    (see :func:`_chain_crosscheck`)."""
    return _chain_crosscheck
