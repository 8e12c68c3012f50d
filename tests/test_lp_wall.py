"""Collapsing the LP wall: assembly identity, survivor reuse, coalescing.

Four layers of the LP-wall work are pinned here:

* the vectorized CSR assembly of (LP1)/(LP2) is *byte-identical* to the
  per-coefficient dict builders it replaced (inline oracles below);
* ``lp_reuse="exact"`` (and the default) stays bit-identical to a cold
  cache, even after a ``"subset"`` run has populated the shared cache;
* ``lp_reuse="subset"`` collapses the distinct-solve count >= 5x on an
  LP-wall instance while the makespan distribution stays statistically
  indistinguishable, and its derived schedules preserve per-job capped
  mass exactly while respecting the (1 + eps) length gate;
* the counters (``lp_solves`` / ``reuse_hits`` / ``coalesced_batches``)
  surface through ``simulate()`` reports and ``GET /healthz``.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.lp1 as lp1_module
from repro.api import SimConfig, simulate
from repro.core.lp1 import MASS_EPS, cached_capped_logmass, solve_lp1
from repro.core.lp2 import solve_lp2
from repro.core.phased import (
    RoundScheduleCache,
    clear_solve_cache,
    lp_reuse_context,
    lp_reuse_eps,
    resolve_lp_reuse,
    solve_cache_stats,
)
from repro.core.adaptive import SUUIAdaptiveLPPolicy
from repro.core.rounding import PAPER_SCALE
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_i_sem import SUUISemPolicy
from repro.core.suu_t import SUUTPolicy
from repro.errors import InvalidScenarioError
from repro.instance import lpwall_instance
from repro.lp.model import LinearProgram
from repro.lp.stats import lp_stats_snapshot, reset_lp_stats
from repro.schedule.base import IDLE
from repro.sim.batch import run_policy_batch

#: Counter names the LP-wall instrumentation must surface everywhere.
LP_COUNTER_KEYS = (
    "lp_solves",
    "assembly_seconds",
    "reuse_hits",
    "coalesced_batches",
    "coalesced_solves",
)


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
# Mode plumbing and validation.


class TestReuseModeResolution:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="lp_reuse"):
            resolve_lp_reuse("bogus")

    def test_env_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP_REUSE", raising=False)
        assert resolve_lp_reuse() == "exact"
        monkeypatch.setenv("REPRO_LP_REUSE", "subset")
        assert resolve_lp_reuse() == "subset"
        assert resolve_lp_reuse("exact") == "exact"  # explicit beats env
        monkeypatch.setenv("REPRO_LP_REUSE", "bogus")
        with pytest.raises(ValueError, match="bogus"):
            resolve_lp_reuse()

    def test_eps_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_REUSE_EPS", "0.1")
        assert lp_reuse_eps() == 0.1
        for bad in ("-0.1", "1.0", "1.5"):
            monkeypatch.setenv("REPRO_LP_REUSE_EPS", bad)
            with pytest.raises(ValueError, match="eps"):
                lp_reuse_eps()

    def test_context_scopes_the_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP_REUSE", raising=False)
        with lp_reuse_context("subset"):
            assert resolve_lp_reuse(None) == "exact"  # env untouched
            from repro.core.phased import active_lp_reuse

            assert active_lp_reuse() == "subset"
        assert resolve_lp_reuse(None) == "exact"

    def test_sim_config_validates_and_resolves(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP_REUSE", raising=False)
        with pytest.raises(InvalidScenarioError, match="lp_reuse"):
            SimConfig(lp_reuse="bogus")
        assert SimConfig().resolved_lp_reuse() == "exact"
        assert SimConfig(lp_reuse="subset").resolved_lp_reuse() == "subset"
        monkeypatch.setenv("REPRO_LP_REUSE", "subset")
        assert SimConfig().resolved_lp_reuse() == "subset"


# ---------------------------------------------------------------------------
# Exact mode stays bit-identical; subset mode collapses the solve count.


def _sem_batch(instance, n_trials, **kwargs):
    return run_policy_batch(
        instance,
        SUUISemPolicy,
        n_trials,
        rng=11,
        semantics="suu",
        max_steps=50_000,
        discipline="v2",
        **kwargs,
    )


class TestExactModeBitIdentity:
    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    @pytest.mark.parametrize(
        "policy, chain_length, semantics",
        [
            (SUUISemPolicy, None, "suu"),
            (SUUIAdaptiveLPPolicy, None, "suu"),
            (SUUCPolicy, 3, "suu"),
            (SUUTPolicy, 3, "suu_star"),
        ],
    )
    def test_exact_equals_default_byte_for_byte(
        self, policy, chain_length, semantics, discipline
    ):
        instance = lpwall_instance(
            n_jobs=18, n_machines=2, chain_length=chain_length, rng=4
        )

        def run(**kwargs):
            clear_solve_cache()
            return run_policy_batch(
                instance,
                policy,
                24,
                rng=11,
                semantics=semantics,
                max_steps=50_000,
                discipline=discipline,
                **kwargs,
            )

        base = run()
        exact = run(lp_reuse="exact")
        assert base.makespans.tobytes() == exact.makespans.tobytes()

    def test_subset_entries_never_serve_exact_lookups(self):
        # A subset run populates the shared cache with derived schedules
        # (under their own "lp1-round-sub" key prefix) and donor anchors;
        # an exact run on the *same warm cache* must still be bit-identical
        # to a cold-cache run.
        instance = lpwall_instance(n_jobs=24, n_machines=2)
        clear_solve_cache()
        cold = _sem_batch(instance, 64)
        clear_solve_cache()
        _sem_batch(instance, 64, lp_reuse="subset")
        warm = _sem_batch(instance, 64)
        assert warm.makespans.tobytes() == cold.makespans.tobytes()


class TestSubsetReuseCollapse:
    def test_solve_budget_and_statistical_equivalence(self):
        instance = lpwall_instance(n_jobs=48, n_machines=2)
        clear_solve_cache()
        reset_lp_stats()
        exact = _sem_batch(instance, 200, lp_reuse="exact")
        exact_solves = lp_stats_snapshot()["lp_solves"]
        clear_solve_cache()
        reset_lp_stats()
        subset = _sem_batch(instance, 200, lp_reuse="subset")
        stats = lp_stats_snapshot()
        # The wall: exact pays >= one solve per trial entering round 2;
        # subset derives those survivor sets from shared anchors.
        assert exact_solves >= 200
        assert stats["lp_solves"] * 5 <= exact_solves
        assert stats["reuse_hits"] > 0
        assert stats["coalesced_batches"] >= 1
        # Statistically indistinguishable makespans (same RNG tree, so the
        # only drift comes from derived schedule lengths).
        e, s = exact.makespans.mean(), subset.makespans.mean()
        assert abs(s - e) <= 0.05 * e


class TestExactModeNeverCoalesces:
    def test_boundary_pre_passes_return_before_warming(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            RoundScheduleCache, "ensure_many", lambda self, requests: calls.append(requests)
        )
        sem_instance = lpwall_instance(n_jobs=16, n_machines=2)
        chain_instance = lpwall_instance(n_jobs=12, n_machines=2, chain_length=3, rng=4)
        clear_solve_cache()
        reset_lp_stats()
        _sem_batch(sem_instance, 32, lp_reuse="exact")
        run_policy_batch(
            chain_instance, SUUCPolicy, 16, rng=5, discipline="v2", lp_reuse="exact"
        )
        assert calls == []
        stats = lp_stats_snapshot()
        assert stats["coalesced_batches"] == stats["coalesced_solves"] == 0
        assert stats["lp_solves"] > 0


class TestRestrictProperties:
    def test_restriction_preserves_mass_and_respects_length_gate(self):
        instance = lpwall_instance(n_jobs=32, n_machines=3, rng=7)
        target, eps = 1.0, 0.25
        cache = RoundScheduleCache(instance, PAPER_SCALE)
        donor = cache._solve(target, np.arange(32, dtype=np.int64))
        ell = cached_capped_logmass(instance, target)
        rng = np.random.default_rng(3)
        derived_any = False
        for _ in range(8):
            jobs = np.sort(
                rng.choice(32, size=int(rng.integers(6, 20)), replace=False)
            ).astype(np.int64)
            schedule = cache._restrict(donor, jobs, target, eps)
            if schedule is None:
                continue  # gate-failing restrictions fall back to solves
            derived_any = True
            table = schedule.table
            assert np.isin(table[table != IDLE], jobs).all()
            total = 0
            for j in jobs:
                where = (table == j).sum(axis=0)  # steps per machine
                mass = float((where * ell[:, j]).sum())
                assert mass >= target - 1e-9  # capped mass is exact
                total += int(where.sum())
            ideal = -(-total // instance.n_machines)
            assert table.shape[0] <= (1.0 + eps) * ideal  # length gate
        assert derived_any


# ---------------------------------------------------------------------------
# Counters surface end to end.


class TestCounterSurfacing:
    def test_simulate_report_carries_lp_stats(self):
        instance = lpwall_instance(n_jobs=12, n_machines=2)
        report = simulate(
            instance, SUUISemPolicy, SimConfig(n_trials=4, seed=1, discipline="v2")
        )
        assert report.lp_stats is not None
        for key in LP_COUNTER_KEYS:
            assert key in report.lp_stats
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
