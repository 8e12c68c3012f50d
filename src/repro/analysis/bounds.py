"""Provable lower bounds on ``E[T_OPT]``.

At evaluation scale the exact DP is unavailable (NP-hard), so empirical
approximation ratios are measured against the best of several *provable*
lower bounds.  Using a lower bound in the denominator only over-states the
measured ratio, so the comparisons remain sound (the measured "ratio" is an
upper bound on the true one; EXPERIMENTS.md states this).

Bounds implemented:

* **LP1 bound** (Lemma 1's proof, applied to the relaxation):
  ``E[T_OPT] >= t*_LP1(J, 1/2) / 2``.  For the uniformly random subset
  ``U = {j : r_j < 1/2}``, the optimal schedule's realized allocation is
  feasible for ``LP1(U, 1/2)``, and LP values are subadditive over
  complementary subsets.
* **LP2 bound** (same argument with (LP2)'s extra constraints; chains
  only): ``E[T_OPT] >= t*_LP2 / 2``.  Every job runs at least one step in
  any execution, so the realized ``d_j >= 1`` and chain-length constraints
  hold for the optimal schedule's allocation.
* **Hardest-single-job bound**: job ``j`` cannot finish faster than a
  geometric with success ``1 - prod_i q_ij`` (all machines every step), so
  ``E[T_OPT] >= max_j 1 / (1 - prod_i q_ij)``.
* **Critical-path bound**: along any precedence path the jobs run in
  disjoint time intervals, each at least its geometric above, so
  ``E[T_OPT] >= max over paths of the path's sum of geometric means``.
* **Work bound** (valid for every precedence structure): a machine-step
  on job ``j`` succeeds with probability at most ``p_j = max_i (1 -
  q_ij)``, and the attempts are chosen before their outcomes, so by
  Wald's identity the expected machine-steps spent on ``j`` are at least
  ``1 / p_j``.  ``m`` machines deliver ``m`` machine-steps per step, so
  ``E[T_OPT] >= sum_j (1 / p_j) / m``.
"""

from __future__ import annotations

import numpy as np

from repro.core.lp1 import solve_lp1
from repro.core.lp2 import solve_lp2
from repro.instance.chains import extract_chains
from repro.instance.instance import SUUInstance
from repro.instance.precedence import PrecedenceClass

__all__ = [
    "lp1_lower_bound",
    "lp2_lower_bound",
    "single_job_lower_bound",
    "critical_path_lower_bound",
    "work_lower_bound",
    "lower_bound",
]


def lp1_lower_bound(instance: SUUInstance) -> float:
    """``t*_LP1(J, 1/2) / 2`` (valid for every precedence structure)."""
    return solve_lp1(instance, target=0.5).t_star / 2.0


def lp2_lower_bound(instance: SUUInstance) -> float:
    """``t*_LP2 / 2`` — sharper than LP1 when chains are long (chains only)."""
    chains = extract_chains(instance.graph)
    return solve_lp2(instance, chains).t_star / 2.0


def _geometric_means(instance: SUUInstance) -> np.ndarray:
    """Per-job ``1 / (1 - prod_i q_ij)``: expected steps with all machines."""
    p = instance.best_single_step_success()
    return 1.0 / p


def single_job_lower_bound(instance: SUUInstance) -> float:
    """``max_j`` expected geometric completion time with every machine."""
    return float(_geometric_means(instance).max())


def critical_path_lower_bound(instance: SUUInstance) -> float:
    """Longest precedence path weighted by per-job geometric means."""
    w = _geometric_means(instance)
    best = np.array(w, dtype=np.float64)  # best[j] = heaviest path ending at j
    for v in instance.graph.topological_order():
        for s in instance.graph.successors(v):
            cand = best[v] + w[s]
            if cand > best[s]:
                best[s] = cand
    return float(best.max())


def work_lower_bound(instance: SUUInstance) -> float:
    """``sum_j (1 / p_j) / m`` with ``p_j = max_i (1 - q_ij)``: every job's
    expected machine-steps, spread over all ``m`` machines."""
    p = 1.0 - instance.q.min(axis=0)
    return float((1.0 / p).sum() / instance.n_machines)


def lower_bound(instance: SUUInstance) -> float:
    """Best applicable lower bound on ``E[T_OPT]`` (always >= 1)."""
    candidates = [
        1.0,
        lp1_lower_bound(instance),
        critical_path_lower_bound(instance),
        work_lower_bound(instance),
    ]
    if instance.precedence_class in (
        PrecedenceClass.CHAINS,
        PrecedenceClass.INDEPENDENT,
    ):
        if instance.graph.n_edges:
            candidates.append(lp2_lower_bound(instance))
    return float(max(candidates))
