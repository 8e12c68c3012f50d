"""E-EQUIV: the SUU ≡ SUU* reformulation (Theorem 10 / Appendix A).

Run the same oblivious policy under both semantics with independent
randomness and compare the makespan distributions: means within CI overlap
and a two-sample Kolmogorov–Smirnov test that should *not* reject.  (The
theorem asserts exact distributional equality, so any detectable gap is an
engine bug.)
"""

from __future__ import annotations

from scipy import stats as scipy_stats

from repro.api.registry import policy_factory
from repro.experiments.common import ExperimentResult, register_experiment
from repro.instance.generators import chain_instance, independent_instance
from repro.sim.montecarlo import estimate_expected_makespan
from repro.util.rng import ensure_rng

__all__ = ["run_equivalence"]


@register_experiment("E-EQUIV")
def run_equivalence(
    *,
    n: int = 24,
    m: int = 6,
    n_trials: int = 300,
    seed: int = 11,
    max_steps: int = 400_000,
) -> ExperimentResult:
    """Compare SUU and SUU* makespan distributions for the same policy."""
    rng = ensure_rng(seed)
    res = ExperimentResult(
        exp_id="E-EQUIV",
        title="Theorem 10: SUU vs SUU* makespan distributions",
        headers=[
            "workload",
            "mean (SUU)",
            "mean (SUU*)",
            "KS stat",
            "KS p-value",
        ],
    )
    # An oblivious policy for the independent workload; precedence-aware
    # greedy for chains (SUU-I schedules are only valid without precedence).
    workloads = {
        "independent": (
            independent_instance(n, m, "specialist", rng=rng.spawn(1)[0]),
            policy_factory("obl"),
        ),
        "chains": (
            chain_instance(n, m, max(2, n // 6), "uniform", rng=rng.spawn(1)[0]),
            policy_factory("greedy"),
        ),
    }
    for label, (inst, factory) in workloads.items():
        # The SUU side is pinned to v1's per-trial coin flips: under v2 a
        # batch samples SUU from thresholds as well (by this very theorem),
        # and both sides would then be SUU*.
        a = estimate_expected_makespan(
            inst, factory, n_trials, rng.spawn(1)[0], semantics="suu",
            max_steps=max_steps, discipline="v1",
        )
        b = estimate_expected_makespan(
            inst, factory, n_trials, rng.spawn(1)[0], semantics="suu_star",
            max_steps=max_steps,
        )
        ks = scipy_stats.ks_2samp(a.samples, b.samples)
        res.add(label, a.mean, b.mean, float(ks.statistic), float(ks.pvalue))
    res.notes.append(
        "Theorem 10 asserts exact equality; the KS test should not reject "
        "(p well above 0.01)."
    )
    return res
