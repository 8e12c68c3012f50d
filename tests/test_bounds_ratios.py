"""Tests for lower bounds and ratio measurement (repro.analysis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    critical_path_lower_bound,
    format_markdown_table,
    format_table,
    lower_bound,
    lp1_lower_bound,
    lp2_lower_bound,
    measure_ratio,
    single_job_lower_bound,
    work_lower_bound,
)
from repro.baselines import optimal_expected_makespan
from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.instance import (
    PrecedenceGraph,
    SUUInstance,
    chain_instance,
    independent_instance,
)


class TestSingleJobBound:
    def test_geometric(self):
        inst = SUUInstance(np.array([[0.5], [0.5]]))
        # all-machines success = 0.75 -> E >= 4/3.
        assert single_job_lower_bound(inst) == pytest.approx(4.0 / 3.0)

    def test_picks_hardest_job(self):
        inst = SUUInstance(np.array([[0.1, 0.9]]))
        assert single_job_lower_bound(inst) == pytest.approx(10.0)


class TestCriticalPathBound:
    def test_chain_sums(self):
        graph = PrecedenceGraph(3, [(0, 1), (1, 2)])
        inst = SUUInstance(np.array([[0.5, 0.5, 0.5]]), graph)
        assert critical_path_lower_bound(inst) == pytest.approx(6.0)

    def test_independent_is_max(self):
        inst = SUUInstance(np.array([[0.5, 0.9]]))
        assert critical_path_lower_bound(inst) == pytest.approx(10.0)

    def test_diamond_takes_longest_path(self):
        graph = PrecedenceGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        q = np.array([[0.5, 0.5, 0.9, 0.5]])
        inst = SUUInstance(q, graph)
        # Path 0 -> 2 -> 3: 2 + 10 + 2 = 14.
        assert critical_path_lower_bound(inst) == pytest.approx(14.0)


class TestWorkBound:
    def test_sum_over_machines(self):
        # p = (0.5, 0.9, 0.75): 2 + 1/0.9 + 4/3 machine-steps over 2 machines.
        inst = SUUInstance(np.array([[0.5, 0.1, 0.25], [0.9, 0.2, 0.5]]))
        assert work_lower_bound(inst) == pytest.approx(
            (2.0 + 1 / 0.9 + 4 / 3) / 2
        )

    def test_best_machine_counts(self):
        # A job a machine finishes for sure still costs one machine-step.
        inst = SUUInstance(np.array([[0.0, 0.5], [1.0, 0.5]]))
        assert work_lower_bound(inst) == pytest.approx((1.0 + 2.0) / 2)

    def test_work_beats_the_other_terms(self):
        # Many independent jobs on few machines: 12.62 against the
        # critical path's 4.79 and LP1's 3.31.
        inst = independent_instance(36, 6, "specialist", rng=0)
        work = work_lower_bound(inst)
        assert work > max(lp1_lower_bound(inst),
                          critical_path_lower_bound(inst))
        assert lower_bound(inst) == work


class TestLPBounds:
    def test_lp1_positive(self, small_independent):
        assert lp1_lower_bound(small_independent) > 0

    def test_lp2_at_least_half_chain_length(self, small_chains):
        from repro.instance import extract_chains

        longest = max(len(c) for c in extract_chains(small_chains.graph))
        assert lp2_lower_bound(small_chains) >= longest / 2 - 1e-9

    def test_lower_bound_dominates_components(self, small_chains):
        lb = lower_bound(small_chains)
        assert lb >= lp1_lower_bound(small_chains) - 1e-9
        assert lb >= critical_path_lower_bound(small_chains) - 1e-9
        assert lb >= work_lower_bound(small_chains) - 1e-9
        assert lb >= 1.0


class TestBoundSoundness:
    """The central soundness property: LB <= true E[T_OPT] (via exact DP)."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_independent(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        inst = independent_instance(n, m, "uniform", rng=rng)
        opt = optimal_expected_makespan(inst).value
        assert lower_bound(inst) <= opt * (1 + 1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        z = int(rng.integers(1, 3))
        inst = chain_instance(n, 2, z, "uniform", rng=rng)
        opt = optimal_expected_makespan(inst).value
        assert lower_bound(inst) <= opt * (1 + 1e-9)

    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_specialist(self, seed, chains):
        # The specialist model is where the work term is tightest (each
        # job has one good machine): it must still stay below OPT.
        rng = np.random.default_rng(seed)
        inst = (chain_instance(4, 2, 2, "specialist", rng=rng) if chains
                else independent_instance(4, 2, "specialist", rng=rng))
        opt = optimal_expected_makespan(inst).value
        assert work_lower_bound(inst) <= opt * (1 + 1e-9)
        assert lower_bound(inst) <= opt * (1 + 1e-9)


class TestMeasureRatio:
    def test_ratio_definition(self, small_independent):
        meas = measure_ratio(small_independent, GreedyLRPolicy, 20, rng=1)
        assert meas.ratio == pytest.approx(meas.stats.mean / meas.bound)
        lo, hi = meas.ratio_ci95
        assert lo <= meas.ratio <= hi

    def test_precomputed_bound(self, small_independent):
        meas = measure_ratio(
            small_independent, GreedyLRPolicy, 10, rng=2, bound=5.0
        )
        assert meas.bound == 5.0

    def test_ratio_at_least_one_in_expectation(self, small_independent):
        meas = measure_ratio(small_independent, GreedyLRPolicy, 60, rng=3)
        assert meas.ratio > 0.9  # LB soundness within MC noise


class TestTables:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = text.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.500" in text
        assert "30" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_markdown(self):
        md = format_markdown_table(["a", "b"], [[1, 2]])
        assert md.splitlines()[0] == "| a | b |"
        assert md.splitlines()[1] == "|---|---|"
        assert "| 1 | 2 |" in md

    def test_empty_rows(self):
        text = format_table(["only"], [])
        assert "only" in text
