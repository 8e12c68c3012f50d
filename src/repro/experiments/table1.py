"""T1 — empirical reproduction of the paper's Table 1.

The paper's only evaluation artifact compares approximation *ratios*:

    | precedence  | Lin–Rajaraman                  | this paper                    |
    | independent | O(log n)                       | O(log log min{m,n})           |
    | chains      | O(log m log n log(n+m)/loglog) | O(log(n+m) log log min{m,n})  |
    | forests     | ... x log n                    | ... x log n                   |

We reproduce it empirically: on each workload, measure
``E[T] / lower bound`` for the prior-art-style algorithm and for the
paper's algorithm.  Comparators:

* independent — Lin–Rajaraman's greedy and the oblivious repeat
  (SUU-I-OBL, also ``O(log n)``) vs **SUU-I-SEM**;
* chains — SUU-C with the ``O(log n)`` oblivious inner loop (the L&R-style
  skeleton) vs **SUU-C** with the SEM inner loop;
* forests — the same pair lifted through the chain-block decomposition.

Table 1 compares worst-case *guarantees*; this table measures random
specialist instances, which are easy for greedy.  At the default sizes
greedy beats SEM on every independent row (improvement 0.48 / 0.44 /
0.37 at n = 20 / 40 / 80; SEM pays Lemma 2's rounding blow-up in every
round), and on chains and forests the SEM inner loop comes within
0.95–1.05 of the oblivious one.  ``EXPERIMENTS.md`` records the run.
"""

from __future__ import annotations

from repro.analysis.bounds import lower_bound
from repro.analysis.ratios import measure_ratio
from repro.api.registry import policy_factory
from repro.experiments.common import ExperimentResult, register_experiment
from repro.instance.generators import (
    chain_instance,
    forest_instance,
    independent_instance,
)
from repro.util.rng import ensure_rng

__all__ = ["run_table1"]


def _row(inst, policies, n_trials, rng, max_steps):
    bound = lower_bound(inst)
    ratios = {}
    for label, factory in policies.items():
        meas = measure_ratio(
            inst, factory, n_trials, rng, bound=bound, max_steps=max_steps
        )
        ratios[label] = meas.ratio
    return bound, ratios


@register_experiment("T1")
def run_table1(
    *,
    sizes=((20, 5), (40, 10), (80, 10)),
    n_trials: int = 25,
    seed: int = 2008,
    max_steps: int = 400_000,
) -> ExperimentResult:
    """Run the Table 1 head-to-head on all three precedence classes."""
    rng = ensure_rng(seed)
    res = ExperimentResult(
        exp_id="T1",
        title="Table 1, empirical: measured E[T]/LB, prior art vs this paper",
        headers=[
            "precedence",
            "n",
            "m",
            "LB",
            "LR-style ratio",
            "this-paper ratio",
            "improvement",
        ],
    )
    for n, m in sizes:
        inst = independent_instance(n, m, "specialist", rng=rng.spawn(1)[0])
        bound, r = _row(
            inst,
            {
                "lr": policy_factory("greedy"),
                "ours": policy_factory("sem"),
            },
            n_trials,
            rng.spawn(1)[0],
            max_steps,
        )
        res.add("independent", n, m, bound, r["lr"], r["ours"], r["lr"] / r["ours"])
    for n, m in sizes:
        inst = chain_instance(
            n, m, max(2, n // 6), "specialist", rng=rng.spawn(1)[0]
        )
        bound, r = _row(
            inst,
            {
                "lr": policy_factory("suu-c", inner="obl"),
                "ours": policy_factory("suu-c"),
            },
            n_trials,
            rng.spawn(1)[0],
            max_steps,
        )
        res.add("chains", n, m, bound, r["lr"], r["ours"], r["lr"] / r["ours"])
    for n, m in sizes:
        inst = forest_instance(
            n, m, max(2, n // 10), "out", "specialist", rng=rng.spawn(1)[0]
        )
        bound, r = _row(
            inst,
            {
                "lr": policy_factory("suu-t", inner="obl"),
                "ours": policy_factory("suu-t"),
            },
            n_trials,
            rng.spawn(1)[0],
            max_steps,
        )
        res.add("forests", n, m, bound, r["lr"], r["ours"], r["lr"] / r["ours"])
    res.notes.append(
        "LB = max(1, LP1/2, LP2/2 on chains, critical path, work bound); "
        "ratios are upper estimates of the true approximation ratios."
    )
    res.notes.append(
        "independent LR-style = Lin-Rajaraman greedy; chains/forests "
        "LR-style = same skeleton with O(log n) oblivious inner loop."
    )
    res.notes.append(
        "Table 1 compares worst-case guarantees: on these random specialist "
        "instances greedy beats SEM on every independent row, and the SEM "
        "inner loop matches the oblivious one on chains and forests."
    )
    return res
