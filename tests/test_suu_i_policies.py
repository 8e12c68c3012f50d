"""Tests for SUU-I-OBL and SUU-I-SEM (Theorems 3 and 4)."""

import numpy as np
import pytest

from repro.analysis.bounds import lower_bound
from repro.core.suu_i_obl import SUUIOblPolicy, build_obl_schedule
from repro.core.suu_i_sem import SUUISemPolicy, paper_round_count
from repro.instance import SUUInstance, independent_instance
from repro.sim import estimate_expected_makespan, run_policy


class TestPaperRoundCount:
    def test_small_values(self):
        assert paper_round_count(1, 1) == 3
        assert paper_round_count(2, 100) == 3
        assert paper_round_count(4, 100) == 4
        assert paper_round_count(16, 100) == 5
        assert paper_round_count(256, 100) == 6  # min = 100 -> loglog ~ 2.73

    def test_uses_min(self):
        assert paper_round_count(10**6, 4) == 4
        assert paper_round_count(4, 10**6) == 4


class TestSUUIObl:
    def test_completes(self, small_independent):
        res = run_policy(small_independent, SUUIOblPolicy(), rng=0)
        assert res.makespan >= 1

    def test_requires_start(self, small_independent):
        policy = SUUIOblPolicy()
        with pytest.raises(RuntimeError):
            policy.assign(None)

    def test_schedule_length_bounded(self, small_independent):
        from repro.core.lp1 import solve_lp1

        rel = solve_lp1(small_independent, target=0.5)
        sched = build_obl_schedule(small_independent)
        assert sched.length <= int(np.ceil(6 * rel.t_star)) + 1

    def test_full_job_set_shares_the_cached_schedule(self, monkeypatch, small_independent):
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        n = small_independent.n_jobs
        sched = build_obl_schedule(small_independent)
        assert build_obl_schedule(small_independent, jobs=range(n)) is sched
        assert build_obl_schedule(small_independent, jobs=reversed(range(n))) is sched
        assert not sched.table.flags.writeable
        # With the cache off each call solves afresh, to the same table.
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        fresh = build_obl_schedule(small_independent, jobs=range(n))
        assert fresh is not sched
        assert np.array_equal(fresh.table, sched.table)

    def test_job_subset(self, small_independent):
        policy = SUUIOblPolicy(jobs=[0, 1])
        policy.start(small_independent, np.random.default_rng(0))
        state_like = None
        row = policy.assign(state_like)
        active = row[row >= 0]
        assert set(active.tolist()) <= {0, 1}

    def test_reasonable_ratio(self):
        inst = independent_instance(20, 5, "uniform", rng=1)
        bound = lower_bound(inst)
        stats = estimate_expected_makespan(inst, SUUIOblPolicy, 30, rng=2)
        # Loose sanity envelope: constant x log n with generous constant.
        assert stats.mean <= 60 * np.log2(20) * bound


class TestSUUISem:
    def test_completes_and_counts_rounds(self, small_independent):
        policy = SUUISemPolicy()
        res = run_policy(small_independent, policy, rng=3)
        assert res.makespan >= 1
        assert 1 <= policy.rounds_used <= paper_round_count(10, 4)

    def test_requires_start(self):
        with pytest.raises(RuntimeError):
            SUUISemPolicy().assign(None)

    def test_round_targets_double(self, monkeypatch):
        """Round k must solve LP1 at target 2^(k-2)."""
        targets = []
        import repro.core.phased as mod

        original = mod.solve_lp1

        def spy(instance, jobs=None, target=0.5):
            targets.append(target)
            return original(instance, jobs=jobs, target=target)

        # Rounds are memoized in the process solve cache; with it off,
        # every round runs its own solve.
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        monkeypatch.setattr(mod, "solve_lp1", spy)
        # Jobs that fail a lot: q = 0.95 on every machine forces rounds.
        inst = SUUInstance(np.full((2, 6), 0.95))
        run_policy(inst, SUUISemPolicy(), rng=4, max_steps=100_000)
        assert targets[0] == pytest.approx(0.5)
        for a, b in zip(targets, targets[1:]):
            assert b == pytest.approx(2 * a)

    def test_serial_fallback_when_n_le_m(self):
        # n <= m and n_rounds=0 forces the serial fallback immediately.
        inst = independent_instance(3, 5, "uniform", rng=5)
        policy = SUUISemPolicy(n_rounds=0)
        res = run_policy(inst, policy, rng=6, max_steps=10_000)
        assert policy._mode == "serial"
        assert res.makespan >= 3

    def test_repeat_fallback_when_m_lt_n(self):
        inst = independent_instance(8, 2, "uniform", rng=7)
        policy = SUUISemPolicy(n_rounds=1)
        res = run_policy(inst, policy, rng=8, max_steps=100_000)
        assert res.makespan >= 1
        assert policy._mode in ("rounds", "repeat_last")

    def test_no_fallback_keeps_doubling(self):
        inst = SUUInstance(np.full((2, 4), 0.9))
        policy = SUUISemPolicy(fallback=False)
        res = run_policy(inst, policy, rng=9, max_steps=100_000)
        assert res.makespan >= 1

    def test_job_subset_only_assigns_subset(self, small_independent):
        from repro.schedule.base import SimulationState

        policy = SUUISemPolicy(jobs=[2, 5])
        policy.start(small_independent, np.random.default_rng(1))
        n = small_independent.n_jobs
        state = SimulationState(
            t=0,
            remaining=np.ones(n, dtype=bool),
            eligible=np.ones(n, dtype=bool),
            mass_accrued=np.zeros(n),
        )
        for _ in range(5):
            row = policy.assign(state)
            assert set(row[row >= 0].tolist()) <= {2, 5}

    def test_sem_beats_obl_on_hard_jobs(self):
        """On heavy-threshold instances SEM's doubling pays off vs OBL."""
        # Jobs where every machine is bad: thresholds frequently large.
        inst = SUUInstance(np.full((3, 12), 0.93))
        obl = estimate_expected_makespan(inst, SUUIOblPolicy, 25, rng=10,
                                         max_steps=200_000)
        sem = estimate_expected_makespan(inst, SUUISemPolicy, 25, rng=11,
                                         max_steps=200_000)
        assert sem.mean <= obl.mean * 1.3  # SEM at least comparable

    def test_completes_under_suu_star(self, small_independent):
        res = run_policy(small_independent, SUUISemPolicy(), rng=12, semantics="suu_star")
        assert res.makespan >= 1
