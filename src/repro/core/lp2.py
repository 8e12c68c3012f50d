"""(LP2): the disjoint-chains linear program (Section 4).

For chains ``{C_1, ..., C_z}``::

    minimize t
    s.t.  sum_i l'_ij x_ij >= 1      for every job j          (mass)
          sum_j x_ij <= t            for every machine i      (load)
          sum_{j in C_k} d_j <= t    for every chain C_k      (chain length)
          0 <= x_ij <= d_j           for every i, j
          d_j >= 1                   for every j

with ``l' = min(l, 1)``.  ``t_LP2`` lower-bounds ``2 E[T_OPT]`` (Lemma 5
of the source paper, by its U-subset argument), and the Lemma 6 rounding
turns the fractional solution into an integral assignment whose *load*
and *length* are both ``O(t_LP2)``: machine loads at most ``ceil(6 t*)``
and per-job lengths ``d̂_j <= ceil(6 d*_j)``, so each chain's total length
grows by at most a factor 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.lp1 import LP1Relaxation, MASS_EPS, cached_capped_logmass
from repro.core.rounding import PAPER_SCALE, round_assignment
from repro.errors import InvalidInstanceError
from repro.instance.instance import SUUInstance
from repro.lp.model import LinearProgram
from repro.schedule.base import IntegralAssignment

__all__ = ["LP2Relaxation", "solve_lp2", "round_lp2"]


@dataclass(frozen=True)
class LP2Relaxation:
    """An optimal fractional solution of (LP2).

    Attributes
    ----------
    x:
        Fractional assignment, shape ``(m, n)``.
    d:
        Fractional job lengths ``d*_j`` (shape ``(n,)``), each >= 1.
    t_star:
        Optimal value (bounds both machine loads and chain lengths).
    chains:
        The chains the program was built for.
    ell_capped:
        ``l' = min(l, 1)``.
    """

    x: np.ndarray
    d: np.ndarray
    t_star: float
    chains: tuple[tuple[int, ...], ...]
    ell_capped: np.ndarray

    def as_lp1(self) -> LP1Relaxation:
        """Project onto the (LP1) shape consumed by the shared rounding."""
        jobs = tuple(sorted(j for chain in self.chains for j in chain))
        return LP1Relaxation(
            x=self.x,
            t_star=self.t_star,
            jobs=jobs,
            target=1.0,
            ell_capped=self.ell_capped,
        )


def solve_lp2(instance: SUUInstance, chains) -> LP2Relaxation:
    """Solve the (LP2) relaxation for the given chains.

    ``chains`` must partition a subset of jobs (each an ordered job list);
    jobs outside all chains are ignored (used by SUU-T, which calls this
    block by block).
    """
    n, m = instance.n_jobs, instance.n_machines
    chains = tuple(tuple(int(j) for j in chain) for chain in chains)
    covered = [j for chain in chains for j in chain]
    if len(set(covered)) != len(covered):
        raise InvalidInstanceError("chains overlap")
    if not covered:
        raise InvalidInstanceError("no jobs in any chain")
    if min(covered) < 0 or max(covered) >= n:
        raise InvalidInstanceError("chain job ids out of range")

    ell_capped = cached_capped_logmass(instance, 1.0)

    # Vectorized assembly.  Variables: t, then d_j per job in chain
    # iteration order, then x_ij per job in that order with machines
    # ascending — the numbering the per-coefficient dict builder used, so
    # solutions are byte-identical to it.  ``covered`` concatenates the
    # chains, so each chain's d variables occupy a contiguous range.
    cov = np.asarray(covered, dtype=np.int64)
    k = cov.size
    sub = ell_capped[:, cov]  # (m, k)
    usable = sub > MASS_EPS
    per_job = usable.sum(axis=0)
    if not per_job.all():
        bad = cov[int(np.argmin(per_job > 0))]
        raise InvalidInstanceError(f"job {bad} has no machine with positive log mass")
    job_pos, mach_idx = np.nonzero(usable.T)
    nnz = job_pos.size

    lp = LinearProgram()
    t_var = lp.add_variable(objective=1.0)
    d_vars = np.asarray(lp.add_variables(k, lb=1.0), dtype=np.int64)
    x_vars = np.asarray(lp.add_variables(nnz), dtype=np.int64)

    # Mass constraints (4): one ``>= 1`` row per covered job.
    lp.add_rows_csr(
        np.concatenate(([0], np.cumsum(per_job))),
        x_vars,
        sub[mach_idx, job_pos],
        np.ones(k),
        ">=",
    )
    # Machine loads (5): ``sum_j x_ij - t <= 0`` per machine with usable jobs.
    order = np.argsort(mach_idx, kind="stable")
    per_mach = np.bincount(mach_idx, minlength=m)
    used = per_mach > 0
    load_indptr = np.concatenate(([0], np.cumsum(per_mach[used] + 1)))
    load_cols = np.empty(load_indptr[-1], dtype=np.int64)
    load_vals = np.empty(load_indptr[-1], dtype=np.float64)
    t_slot = load_indptr[1:] - 1
    x_slot = np.ones(load_indptr[-1], dtype=bool)
    x_slot[t_slot] = False
    load_cols[x_slot] = x_vars[order]
    load_vals[x_slot] = 1.0
    load_cols[t_slot] = t_var
    load_vals[t_slot] = -1.0
    lp.add_rows_csr(
        load_indptr, load_cols, load_vals, np.zeros(int(used.sum())), "<="
    )
    # Chain lengths (6): ``sum_{j in C} d_j - t <= 0`` per chain.
    chain_lens = np.asarray([len(chain) for chain in chains], dtype=np.int64)
    ch_indptr = np.concatenate(([0], np.cumsum(chain_lens + 1)))
    ch_cols = np.empty(ch_indptr[-1], dtype=np.int64)
    ch_vals = np.empty(ch_indptr[-1], dtype=np.float64)
    ch_t = ch_indptr[1:] - 1
    ch_d = np.ones(ch_indptr[-1], dtype=bool)
    ch_d[ch_t] = False
    ch_cols[ch_d] = d_vars
    ch_vals[ch_d] = 1.0
    ch_cols[ch_t] = t_var
    ch_vals[ch_t] = -1.0
    lp.add_rows_csr(ch_indptr, ch_cols, ch_vals, np.zeros(len(chains)), "<=")
    # x_ij <= d_j (7): one two-entry row per x variable, in variable order.
    xd_cols = np.empty(2 * nnz, dtype=np.int64)
    xd_vals = np.empty(2 * nnz, dtype=np.float64)
    xd_cols[0::2] = x_vars
    xd_vals[0::2] = 1.0
    xd_cols[1::2] = d_vars[job_pos]
    xd_vals[1::2] = -1.0
    lp.add_rows_csr(
        2 * np.arange(nnz + 1, dtype=np.int64), xd_cols, xd_vals, np.zeros(nnz), "<="
    )

    sol = lp.solve()
    x = np.zeros((m, n), dtype=np.float64)
    # ``+ 0.0`` normalizes HiGHS's signed zeros to +0.0, matching the old
    # per-entry ``max(0.0, .)`` builder bit for bit.
    x[mach_idx, cov[job_pos]] = np.maximum(0.0, sol.x[x_vars]) + 0.0
    d = np.zeros(n, dtype=np.float64)
    d[cov] = np.maximum(1.0, sol.x[d_vars])
    return LP2Relaxation(
        x=x, d=d, t_star=float(sol.value), chains=chains, ell_capped=ell_capped
    )


def round_lp2(
    relaxation: LP2Relaxation, scale: int = PAPER_SCALE
) -> IntegralAssignment:
    """Lemma 6 rounding: Lemma 2's flow with per-job arc caps ``ceil(scale d*_j)``.

    The returned assignment has mass >= 1 per job, load <= ``ceil(scale
    t*)`` and lengths ``d̂_j <= ceil(scale d*_j)``, so every chain's length
    is at most ``(scale + 1) t*``.
    """
    caps = np.zeros(relaxation.d.shape[0], dtype=np.int64)
    for chain in relaxation.chains:
        for j in chain:
            caps[j] = int(math.ceil(scale * relaxation.d[j]))
    return round_assignment(relaxation.as_lp1(), scale=scale, per_job_caps=caps)
