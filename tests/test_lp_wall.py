"""The LP wall: assembly identity, exact-mode solve cost, counters.

Three layers of the LP-wall work are pinned here:

* the direct (LP1) arrays and the vectorized CSR assembly of (LP2) solve
  *byte-identically* to the per-coefficient dict assembly they replaced
  (inline oracles below);
* exact survivor-set rounds pay at least one LP solve per trial on an
  LP-wall instance, and concurrent round fetches share the process
  memo without changing a schedule;
* the counters (``lp_solves`` / ``assembly_seconds``) surface through
  ``simulate()`` reports and ``GET /healthz``, and the counters of the
  removed survivor-subset reuse mode do not.
"""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import repro.core.lp1 as lp1_module
from repro.api import SimConfig, simulate
from repro.core.lp1 import MASS_EPS, cached_capped_logmass, solve_lp1
from repro.core.lp2 import solve_lp2
from repro.core.phased import clear_solve_cache, round_schedule, solve_cache_stats
from repro.core.rounding import PAPER_SCALE
from repro.core.suu_i_sem import SUUISemPolicy
from repro.instance import lpwall_instance
from repro.lp.model import LinearProgram
from repro.lp.stats import lp_stats_snapshot, reset_lp_stats
from repro.sim.batch import run_policy_batch

#: Counter names the LP-wall instrumentation must surface everywhere.
LP_COUNTER_KEYS = ("lp_solves", "assembly_seconds")

#: Counters of the deleted survivor-subset reuse mode; none may resurface.
REMOVED_COUNTER_KEYS = ("reuse_hits", "coalesced_batches", "coalesced_solves")


# ---------------------------------------------------------------------------
# Vectorized assembly is byte-identical to the per-coefficient dict builders.


def _oracle_lp1(instance, jobs, target):
    """(LP1) via the per-row dict API — the pre-vectorization builder.

    Same variable numbering as :func:`solve_lp1`: ``t`` first, then one
    ``x_ij`` per usable (machine, job) pair, jobs ascending and machines
    ascending within each job.
    """
    m = instance.n_machines
    ell = cached_capped_logmass(instance, target)
    lp = LinearProgram()
    t = lp.add_variable(objective=1.0)
    x_vars: dict[tuple[int, int], int] = {}
    for j in jobs:
        for i in range(m):
            if ell[i, j] > MASS_EPS:
                x_vars[(i, j)] = lp.add_variable()
    for j in jobs:
        lp.add_ge(
            {x_vars[(i, j)]: ell[i, j] for i in range(m) if (i, j) in x_vars},
            float(target),
        )
    for i in range(m):
        row = {x_vars[(i, j)]: 1.0 for j in jobs if (i, j) in x_vars}
        if row:
            row[t] = -1.0
            lp.add_le(row, 0.0)
    sol = lp.solve()
    x = np.zeros((m, instance.n_jobs))
    for (i, j), v in x_vars.items():
        x[i, j] = max(0.0, sol.x[v]) + 0.0
    return x, float(sol.value)


def _oracle_lp2(instance, chains):
    """(LP2) via the per-row dict API, numbering as :func:`solve_lp2`."""
    m, n = instance.n_machines, instance.n_jobs
    covered = [j for chain in chains for j in chain]
    ell = cached_capped_logmass(instance, 1.0)
    lp = LinearProgram()
    t = lp.add_variable(objective=1.0)
    d_vars = {j: lp.add_variable(lb=1.0) for j in covered}
    x_vars: dict[tuple[int, int], int] = {}
    for j in covered:
        for i in range(m):
            if ell[i, j] > MASS_EPS:
                x_vars[(i, j)] = lp.add_variable()
    for j in covered:
        lp.add_ge(
            {x_vars[(i, j)]: ell[i, j] for i in range(m) if (i, j) in x_vars}, 1.0
        )
    for i in range(m):
        row = {x_vars[(i, j)]: 1.0 for j in covered if (i, j) in x_vars}
        if row:
            row[t] = -1.0
            lp.add_le(row, 0.0)
    for chain in chains:
        row = {d_vars[j]: 1.0 for j in chain}
        row[t] = -1.0
        lp.add_le(row, 0.0)
    for (i, j), v in x_vars.items():
        lp.add_le({v: 1.0, d_vars[j]: -1.0}, 0.0)
    sol = lp.solve()
    x = np.zeros((m, n))
    for (i, j), v in x_vars.items():
        x[i, j] = max(0.0, sol.x[v]) + 0.0
    d = np.zeros(n)
    for j, v in d_vars.items():
        d[j] = max(1.0, sol.x[v])
    return x, d, float(sol.value)


class TestVectorizedAssemblyIdentity:
    def test_lp1_matches_dict_builder_byte_for_byte(self):
        instance = lpwall_instance(n_jobs=18, n_machines=3, rng=2)
        for jobs, target in [
            (list(range(18)), 1.0),
            ([0, 3, 4, 7, 11, 16], 2.0),
            ([2, 5], 0.5),
        ]:
            fast = solve_lp1(instance, jobs=jobs, target=target)
            x, t_star = _oracle_lp1(instance, sorted(jobs), target)
            assert fast.x.tobytes() == x.tobytes()
            assert fast.t_star == t_star

    def test_lp2_matches_dict_builder_byte_for_byte(self):
        instance = lpwall_instance(n_jobs=18, n_machines=3, chain_length=3, rng=2)
        chains = [tuple(range(k, k + 3)) for k in range(0, 18, 3)]
        fast = solve_lp2(instance, chains)
        x, d, t_star = _oracle_lp2(instance, chains)
        assert fast.x.tobytes() == x.tobytes()
        assert fast.d.tobytes() == d.tobytes()
        assert fast.t_star == t_star


# ---------------------------------------------------------------------------
# Exact survivor-set rounds pay the LP wall.


class TestExactModeSolveWall:
    def test_exact_pays_a_solve_per_trial(self):
        instance = lpwall_instance(n_jobs=48, n_machines=2)
        clear_solve_cache()
        reset_lp_stats()
        run_policy_batch(
            instance, SUUISemPolicy, 200, rng=11, semantics="suu",
            max_steps=50_000, discipline="v2",
        )
        # Every trial entering round 2 has its own survivor set, and each
        # distinct set is one LP1 solve.
        assert lp_stats_snapshot()["lp_solves"] >= 200


# ---------------------------------------------------------------------------
# Counters surface end to end.


class TestCounterSurfacing:
    def test_simulate_report_carries_lp_stats(self):
        instance = lpwall_instance(n_jobs=12, n_machines=2)
        report = simulate(
            instance, SUUISemPolicy, SimConfig(n_trials=4, seed=1, discipline="v2")
        )
        assert report.lp_stats is not None
        assert tuple(report.lp_stats) == LP_COUNTER_KEYS
        assert report.lp_stats["lp_solves"] > 0
        assert report.to_dict()["lp"] == report.lp_stats

    def test_solve_cache_stats_fold_in_lp_counters(self):
        stats = solve_cache_stats()
        for key in LP_COUNTER_KEYS:
            assert key in stats

    def test_healthz_surfaces_lp_wall_counters(self):
        from repro.server import SchedulingService, SerialExecutor

        service = SchedulingService(SerialExecutor())
        status, payload = service.handle("GET", "/healthz", None)
        assert status == 200
        solve_cache = payload["executor"]["solve_cache"]
        for key in LP_COUNTER_KEYS:
            assert key in solve_cache
        for key in REMOVED_COUNTER_KEYS:
            assert key not in solve_cache


class TestRoundScheduleMemo:
    def test_four_threads_match_serial(self, monkeypatch):
        """Request handler threads fetch round schedules concurrently:
        every thread gets the table a fresh serial solve builds, and the
        process cache keeps one entry per (target, survivor set)."""
        instance = lpwall_instance(n_jobs=12, n_machines=2, rng=3)
        requests = [
            (target, np.arange(k, 12, dtype=np.int64))
            for target in (0.5, 1.0) for k in range(6)
        ]
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        serial = [round_schedule(instance, t, jobs, PAPER_SCALE).table
                  for t, jobs in requests]
        monkeypatch.delenv("REPRO_SOLVE_CACHE")
        clear_solve_cache()
        barrier = threading.Barrier(4)

        def work(seed):
            order = list(range(len(requests)))
            random.Random(seed).shuffle(order)
            barrier.wait(timeout=30)
            out = {i: round_schedule(instance, *requests[i], PAPER_SCALE) for i in order}
            return [out[i].table for i in range(len(requests))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work, seed) for seed in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for tables in results:
            assert all(np.array_equal(a, b) for a, b in zip(tables, serial))
        assert solve_cache_stats()["entries"] == len(requests)
        clear_solve_cache()


class TestCappedLogmassMemo:
    def test_concurrent_eviction_at_capacity(self, monkeypatch):
        # Two threads find the memo full at once.  The stalling pop makes
        # both pick the oldest key before either evicts it, unless
        # eviction is serialized (then the barrier times out and the
        # second thread evicts the next-oldest key instead).
        barrier = threading.Barrier(2)

        class StallingMemo(dict):
            def pop(self, key, *default):
                try:
                    barrier.wait(timeout=1.0)
                except threading.BrokenBarrierError:
                    pass
                return super().pop(key, *default)

        memo = StallingMemo({("filler", float(k)): np.zeros(1) for k in range(2)})
        monkeypatch.setattr(lp1_module, "_CAPPED_CACHE", memo)
        monkeypatch.setattr(lp1_module, "_CAPPED_CACHE_MAX", 2)
        instances = [lpwall_instance(n_jobs=4, n_machines=2, rng=seed) for seed in (1, 2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(cached_capped_logmass, inst, 1.0) for inst in instances]
            out = [f.result(timeout=30) for f in futures]
        assert sorted(memo) == sorted((inst.digest(), 1.0) for inst in instances)
        for inst, capped in zip(instances, out):
            assert capped is memo[(inst.digest(), 1.0)]
