"""Statistical tests of Theorem 10: SUU and SUU* induce the same law.

These run the same policy under both semantics with independent seeds and
compare makespan distributions.  Sample sizes and thresholds are chosen so
the false-failure probability is far below one in a million per test, yet
a genuinely broken engine (e.g. mass accounted once instead of per step)
fails decisively.
"""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.core.suu_i_obl import SUUIOblPolicy
from repro.instance import SUUInstance, chain_instance, independent_instance
from repro.sim import estimate_expected_makespan


def _samples(inst, factory, semantics, n, seed):
    # The suu side flips per-trial coins (v1); the suu_star side follows
    # the ambient discipline.  Under v2 a batch samples suu from
    # thresholds too, so a v2 suu side would no longer test Theorem 10.
    discipline = "v1" if semantics == "suu" else None
    return estimate_expected_makespan(
        inst, factory, n, rng=seed, semantics=semantics, max_steps=200_000,
        discipline=discipline,
    ).samples


class TestSingleJobLaw:
    def test_geometric_under_both(self):
        """One machine, q=1/2: both semantics must give Geometric(1/2)."""
        inst = SUUInstance(np.array([[0.5]]))
        for semantics in ("suu", "suu_star"):
            s = _samples(inst, SUUIOblPolicy, semantics, 3000, 1)
            assert s.mean() == pytest.approx(2.0, rel=0.07)
            # P(T = 1) = 1/2.
            assert (s == 1).mean() == pytest.approx(0.5, abs=0.03)

    def test_two_machine_mass_addition(self):
        """Masses add across machines: success prob 1 - q1 q2."""
        inst = SUUInstance(np.array([[0.5], [0.25]]))
        for semantics in ("suu", "suu_star"):
            s = _samples(inst, SUUIOblPolicy, semantics, 3000, 2)
            assert s.mean() == pytest.approx(1.0 / (1 - 0.125), rel=0.07)


class TestDistributionalEquality:
    @pytest.mark.parametrize(
        "make_inst,factory",
        [
            (lambda: independent_instance(10, 4, "specialist", rng=21), SUUIOblPolicy),
            (lambda: independent_instance(8, 3, "uniform", rng=22), GreedyLRPolicy),
            (lambda: chain_instance(10, 3, 3, "uniform", rng=23), GreedyLRPolicy),
        ],
    )
    def test_ks_no_rejection(self, make_inst, factory):
        inst = make_inst()
        a = _samples(inst, factory, "suu", 500, 31)
        b = _samples(inst, factory, "suu_star", 500, 32)
        ks = scipy_stats.ks_2samp(a, b)
        assert ks.pvalue > 1e-4, (
            f"SUU vs SUU* distributions differ (p={ks.pvalue:.2e}); "
            "Theorem 10 violated by the engine"
        )

    def test_means_close(self):
        inst = independent_instance(12, 4, "uniform", rng=24)
        a = _samples(inst, SUUIOblPolicy, "suu", 600, 41)
        b = _samples(inst, SUUIOblPolicy, "suu_star", 600, 42)
        pooled_sem = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= 5 * pooled_sem + 0.2


class TestCoinFlipSide:
    def test_e_equiv_pins_suu_to_coin_flips_under_v2(self, monkeypatch):
        """E-EQUIV's suu side replays per-trial coin flips (v1) even when
        the environment selects v2; its suu_star side follows the
        environment."""
        from repro.experiments import equivalence

        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        calls = []
        real = equivalence.estimate_expected_makespan

        def spy(*args, **kwargs):
            calls.append((kwargs["semantics"], kwargs.get("discipline")))
            return real(*args, **kwargs)

        monkeypatch.setattr(equivalence, "estimate_expected_makespan", spy)
        equivalence.run_equivalence(n=8, m=3, n_trials=20)
        assert calls == [("suu", "v1"), ("suu_star", None)] * 2
