"""Request executors and solve-cache hygiene: lifecycle, reuse, identity."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.api import Scenario, SimConfig, evaluate_grid, simulate
from repro.api.executors import (
    EXECUTOR_KINDS,
    SerialExecutor,
    WarmPoolExecutor,
    make_executor,
)
from repro.api.registry import policy_factory
from repro.core.phased import ProcessSolveCache

SCENARIO = Scenario(shape="independent", n_jobs=8, n_machines=3,
                    model="uniform", seed=7)
QUICK = SimConfig(n_trials=8, seed=3)


class KillWorkerOnce:
    """Picklable ``greedy`` factory that SIGKILLs the pool worker running
    it, the first time any worker does (``marker`` records that one did).
    In the calling process it is a plain factory."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self):
        if (multiprocessing.parent_process() is not None
                and not os.path.exists(self.marker)):
            open(self.marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return policy_factory("greedy")()


@pytest.fixture()
def solve_cache_on(monkeypatch):
    """Pin the solve cache on: these tests assert its behaviour, and the
    suite also runs under ``REPRO_SOLVE_CACHE=0``."""
    monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)


@pytest.mark.usefixtures("solve_cache_on")
class TestProcessSolveCacheLRU:
    """Satellite: LRU entry eviction (not insertion-order FIFO)."""

    def _fill(self, cache, keys):
        for key in keys:
            cache.lookup(key, lambda: object())

    def test_eviction_drops_least_recently_used(self):
        cache = ProcessSolveCache(max_entries=3)
        k = [("kind", f"d{i}", i) for i in range(4)]
        self._fill(cache, k[:3])
        cache.lookup(k[0], lambda: object())  # hit: refreshes k0, not k1
        self._fill(cache, [k[3]])  # over capacity
        assert k[0] in cache._entries
        assert k[1] not in cache._entries  # LRU victim
        assert set(cache._entries) == {k[0], k[2], k[3]}

    def test_hit_returns_cached_value_and_counts(self):
        cache = ProcessSolveCache(max_entries=4)
        sentinel = object()
        first = cache.lookup(("kind", "d", 1), lambda: sentinel)
        second = cache.lookup(("kind", "d", 1), lambda: object())
        assert first is sentinel and second is sentinel
        assert (cache.solves, cache.hits) == (1, 1)

    def test_eviction_cleans_digest_bookkeeping(self):
        cache = ProcessSolveCache(max_entries=1)
        cache.lookup(("kind", "a", 1), lambda: 1)
        cache.lookup(("kind", "b", 2), lambda: 2)
        assert set(cache._digests) == {"b"}
        assert len(cache._entries) == 1

    def test_disabled_cache_always_solves(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        cache = ProcessSolveCache(max_entries=4)
        cache.lookup(("kind", "d", 1), lambda: 1)
        cache.lookup(("kind", "d", 1), lambda: 1)
        assert cache.solves == 2
        assert not cache._entries


@pytest.mark.usefixtures("solve_cache_on")
class TestProcessSolveCacheInstanceScoping:
    """Satellite: per-instance-digest grouping and wholesale eviction."""

    def test_instance_cap_evicts_oldest_instance_wholesale(self):
        cache = ProcessSolveCache(max_entries=100, max_instances=2)
        cache.lookup(("lp", "dig-a", 1), lambda: 1)
        cache.lookup(("lp", "dig-a", 2), lambda: 2)
        cache.lookup(("lp", "dig-b", 1), lambda: 3)
        cache.lookup(("lp", "dig-c", 1), lambda: 4)  # third instance
        assert "dig-a" not in cache._digests
        assert all(k[1] != "dig-a" for k in cache._entries)
        assert set(cache._digests) == {"dig-b", "dig-c"}

    def test_hit_refreshes_instance_recency(self):
        cache = ProcessSolveCache(max_entries=100, max_instances=2)
        cache.lookup(("lp", "dig-a", 1), lambda: 1)
        cache.lookup(("lp", "dig-b", 1), lambda: 2)
        cache.lookup(("lp", "dig-a", 1), lambda: 1)  # hit: a is now recent
        cache.lookup(("lp", "dig-c", 1), lambda: 3)
        assert set(cache._digests) == {"dig-a", "dig-c"}

    def test_evict_instance_drops_all_its_entries(self):
        cache = ProcessSolveCache(max_entries=100, max_instances=8)
        for i in range(3):
            cache.lookup(("lp", "dig-a", i), lambda: i)
        cache.lookup(("lp", "dig-b", 0), lambda: 9)
        assert cache.evict_instance("dig-a") == 3
        assert set(cache._entries) == {("lp", "dig-b", 0)}
        assert cache.evict_instance("dig-a") == 0  # idempotent

    def test_digestless_keys_are_tolerated(self):
        cache = ProcessSolveCache(max_entries=4, max_instances=1)
        cache.lookup("bare-key", lambda: 1)
        cache.lookup(("solo",), lambda: 2)
        assert cache.lookup("bare-key", lambda: 3) == 1
        assert not cache._digests


class TestSerialExecutor:
    def test_acquire_is_in_process_and_counts(self):
        ex = SerialExecutor()
        assert ex.acquire() is None
        assert ex.acquire() is None
        assert ex.requests == 2

    def test_stats_shape(self):
        ex = SerialExecutor()
        stats = ex.stats()
        assert stats["kind"] == "serial"
        assert stats["backend"] == "serial"
        assert {"entries", "instances", "solves", "hits"} <= set(
            stats["solve_cache"]
        )

    def test_context_manager_and_injection(self):
        baseline = simulate(SCENARIO, "greedy", QUICK)
        with SerialExecutor() as ex:
            report = simulate(SCENARIO, "greedy", QUICK, executor=ex)
        assert ex.requests == 1
        assert np.array_equal(report.stats.samples, baseline.stats.samples)


class TestExecutorRegistry:
    def test_make_executor_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        warm = make_executor("warm-pool", n_workers=3, solve_cache_entries=7)
        assert isinstance(warm, WarmPoolExecutor)
        assert warm.n_workers == 3 and warm.solve_cache_entries == 7
        assert not warm.warm  # lazily built: nothing spawned yet
        assert set(EXECUTOR_KINDS) == {"serial", "warm-pool"}

    def test_make_executor_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            make_executor("gpu")

    def test_service_without_executor_gets_its_own_serial(self):
        from repro.server import SchedulingService

        first, second = SchedulingService(), SchedulingService()
        assert isinstance(first.executor, SerialExecutor)
        assert first.executor is not second.executor


class TestWarmPoolExecutor:
    """One pool spawn for the whole class — spawn costs seconds."""

    @pytest.fixture(scope="class")
    def warm(self):
        with WarmPoolExecutor(n_workers=1, solve_cache_entries=64) as ex:
            yield ex

    def test_lifecycle_reuse_identity_and_cache_warmth(self, warm, solve_cache_on):
        # The pool spawns below (prewarm), after the cache is pinned on, so
        # the worker inherits the pinned environment.
        assert not warm.warm
        assert warm.cache_stats() is None  # cold: nothing to sample
        warm.prewarm()
        assert warm.warm and warm.pools_built == 1
        assert warm.acquire() is warm.acquire()  # one pool, reused
        assert warm.requests == 2

        # "sem" runs the LP round-schedule pipeline, so repeat requests
        # exercise the worker's solve cache ("greedy" never solves).
        baseline = simulate(SCENARIO, "sem", QUICK)
        first = simulate(SCENARIO, "sem", QUICK, executor=warm)
        before = warm.cache_stats()
        second = simulate(SCENARIO, "sem", QUICK, executor=warm)
        after = warm.cache_stats()

        # Bit-identity: transport (serial vs warm worker) never changes
        # samples, and an injected executor forces pool dispatch even for
        # batches below the serial fast-path threshold.
        assert np.array_equal(first.stats.samples, baseline.stats.samples)
        assert np.array_equal(second.stats.samples, baseline.stats.samples)
        # Warm reuse: the repeat request hits the worker's solve cache.
        assert after["hits"] > before["hits"]
        assert after["solves"] == before["solves"]
        assert warm.pools_built == 1  # never respawned along the way

        stats = warm.stats()
        assert stats["kind"] == "warm-pool"
        assert stats["backend"] == "process"
        assert stats["warm"] is True
        assert stats["worker_solve_cache"]["hits"] >= after["hits"]

    def test_close_releases_pool_and_stays_reusable(self):
        ex = WarmPoolExecutor(n_workers=1)
        assert ex.acquire() is not None
        ex.close()
        assert not ex.warm
        # Reusable after close: the next acquire rebuilds.
        assert ex.acquire() is not None
        assert ex.pools_built == 2
        ex.close()

    def test_dead_worker_pool_is_rebuilt_for_the_next_request(self):
        with WarmPoolExecutor(n_workers=1) as ex:
            ex.prewarm()
            before = simulate(SCENARIO, "greedy", QUICK, executor=ex)
            pid = ex.acquire().submit(os.getpid).result(timeout=30)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while ex.warm and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not ex.warm, "the pool never flagged the dead worker"
            assert ex.cache_stats() is None  # broken: sampled, not raised
            after = simulate(SCENARIO, "greedy", QUICK, executor=ex)
            assert np.array_equal(after.stats.samples, before.stats.samples)
            stats = ex.stats()
            assert stats["restarts"] == 1
            assert stats["pools_built"] == 2
            assert stats["warm"] is True

    def test_in_flight_chunk_is_retried_on_a_rebuilt_pool(self, tmp_path):
        """A worker dies mid-chunk: the map re-runs once on a rebuilt pool
        and the samples equal the serial run's."""
        factory = KillWorkerOnce(tmp_path / "killed")
        serial = simulate(SCENARIO, factory, QUICK)
        with WarmPoolExecutor(n_workers=1) as ex:
            report = simulate(SCENARIO, factory, QUICK, executor=ex)
            stats = ex.stats()
        assert (tmp_path / "killed").exists(), "no worker was killed"
        assert np.array_equal(report.stats.samples, serial.stats.samples)
        assert stats["restarts"] == 1 and stats["requests"] == 1

    def test_grid_counts_one_request_and_owned_pools_close(self):
        """One request per evaluate_grid call, however many cells; an
        un-injected process sweep closes the pool it opened."""
        grid = [SCENARIO, Scenario(shape="independent", n_jobs=6,
                                   n_machines=2, seed=1)]
        # "random" runs per trial, so an un-injected process sweep
        # dispatches its cells to a pool too.
        policies = ("greedy", "random")
        with WarmPoolExecutor(n_workers=1) as ex:
            injected = evaluate_grid(grid, policies, config=QUICK, executor=ex)
            assert ex.requests == 1 and ex.pools_built == 1
        serial = evaluate_grid(grid, policies, config=QUICK)
        before = set(multiprocessing.active_children())
        owned = evaluate_grid(grid, policies, config=QUICK, backend="process",
                              n_workers=1)
        assert set(multiprocessing.active_children()) <= before, "a pool leaked"
        for a, b, c in zip(serial, injected, owned, strict=True):
            assert np.array_equal(a.stats.samples, b.stats.samples)
            assert np.array_equal(a.stats.samples, c.stats.samples)
