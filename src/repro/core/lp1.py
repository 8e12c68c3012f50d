"""(LP1): the independent-jobs linear program (Section 3).

For a job subset ``J'`` and log-mass target ``L``::

    minimize t
    s.t.  sum_i l'_ij x_ij >= L     for every j in J'   (mass)
          sum_j x_ij <= t           for every machine i (load)
          x_ij >= 0

with ``l'_ij = min(l_ij, L)`` (the capping that makes the rounding's
grouping argument work; it changes nothing for integral solutions).  The
paper's (LP1) additionally requires integrality; we solve the relaxation
here and round it in :mod:`repro.core.rounding` (Lemma 2).

``t_LP1(J, 1/2) / 2`` is a valid lower bound on ``E[T_OPT]`` (Lemma 1's
proof applies verbatim to the relaxation, since the optimal schedule's
realized allocation is feasible for it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidInstanceError
from repro.instance.instance import SUUInstance
from repro.lp.model import LinearProgram
from repro.util.logmass import capped_logmass

__all__ = ["LP1Relaxation", "solve_lp1", "cached_capped_logmass"]

#: Entries of the capped log-mass matrix below this are treated as zero
#: (the machine contributes nothing usable to the job).
MASS_EPS: float = 2.0**-60

#: Capped log-mass matrices memoized by (instance digest, target).  Survivor
#: -set solves re-cap the same (m, n) matrix thousands of times per run on
#: chain-heavy instances; the cap depends only on the instance and L, never
#: on the job subset.  Entries are frozen read-only so sharing is safe.
_CAPPED_CACHE: dict[tuple[str, float], np.ndarray] = {}
_CAPPED_CACHE_MAX = 128
#: Guards eviction and insertion: threads that find the memo full at once
#: (the request server solves lower bounds on its handler threads) would
#: otherwise both pick the same oldest key, and the second pop would fail.
_CAPPED_LOCK = threading.Lock()


def cached_capped_logmass(instance: SUUInstance, target: float) -> np.ndarray:
    """``min(instance.ell, target)`` memoized per (instance digest, target).

    Returns a read-only array shared across calls; callers must not write
    to it (LP builders and the rounding only read).  Thread-safe.
    """
    key = (instance.digest(), float(target))
    cached = _CAPPED_CACHE.get(key)
    if cached is None:
        cached = capped_logmass(instance.ell, float(target))
        cached.setflags(write=False)
        with _CAPPED_LOCK:
            while len(_CAPPED_CACHE) >= _CAPPED_CACHE_MAX:
                _CAPPED_CACHE.pop(next(iter(_CAPPED_CACHE)))
            cached = _CAPPED_CACHE.setdefault(key, cached)
    return cached


@dataclass(frozen=True)
class LP1Relaxation:
    """An optimal fractional solution of (LP1).

    Attributes
    ----------
    x:
        Fractional assignment, shape ``(m, n)``; columns of jobs outside
        ``jobs`` are zero.
    t_star:
        The optimal relaxation value ``t*`` (a load bound).
    jobs:
        The job subset ``J'``.
    target:
        The mass target ``L``.
    ell_capped:
        The capped matrix ``l' = min(l, L)`` used in the mass constraints.
    """

    x: np.ndarray
    t_star: float
    jobs: tuple[int, ...]
    target: float
    ell_capped: np.ndarray

    def mass_per_job(self) -> np.ndarray:
        """Capped mass each job receives: ``sum_i l'_ij x_ij``."""
        return (self.x * self.ell_capped).sum(axis=0)


def solve_lp1(
    instance: SUUInstance, jobs=None, target: float = 0.5
) -> LP1Relaxation:
    """Solve the (LP1) relaxation for ``jobs`` (default: all) at ``target``.

    Raises
    ------
    InvalidInstanceError
        If some requested job has no machine with positive log mass (such a
        job can never meet any positive target).
    """
    if target <= 0:
        raise ValueError(f"target L must be positive, got {target}")
    n, m = instance.n_jobs, instance.n_machines
    if jobs is None:
        job_list = list(range(n))
    else:
        job_list = sorted({int(j) for j in jobs})
        if job_list and not (0 <= job_list[0] and job_list[-1] < n):
            raise ValueError(f"job ids out of range for {n} jobs")
    ell_capped = cached_capped_logmass(instance, target)

    if not job_list:
        return LP1Relaxation(
            x=np.zeros((m, n)),
            t_star=0.0,
            jobs=(),
            target=float(target),
            ell_capped=ell_capped,
        )

    # Vectorized assembly.  Variables: t first, then x_ij per job in
    # ``job_list`` order, machines ascending within each job — the same
    # numbering the per-coefficient dict builder produced, so solutions
    # are byte-identical to it.
    job_arr = np.asarray(job_list, dtype=np.int64)
    sub = ell_capped[:, job_arr]  # (m, k)
    usable = sub > MASS_EPS
    per_job = usable.sum(axis=0)
    if not per_job.all():
        bad = job_arr[int(np.argmin(per_job > 0))]
        raise InvalidInstanceError(
            f"job {bad} has no machine with positive log mass"
        )
    # Job-major enumeration of usable (machine, job) pairs.
    job_pos, mach_idx = np.nonzero(usable.T)
    nnz = job_pos.size

    lp = LinearProgram()
    t_var = lp.add_variable(objective=1.0)
    x_vars = np.asarray(lp.add_variables(nnz), dtype=np.int64)

    # Mass constraints: one ``>= L`` row per job, entries contiguous by job.
    lp.add_rows_csr(
        np.concatenate(([0], np.cumsum(per_job))),
        x_vars,
        sub[mach_idx, job_pos],
        np.full(job_arr.size, float(target)),
        ">=",
    )
    # Machine loads: ``sum_j x_ij - t <= 0`` per machine with any usable job.
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

    sol = lp.solve()
    x = np.zeros((m, n), dtype=np.float64)
    # ``+ 0.0`` normalizes HiGHS's signed zeros to +0.0, matching the old
    # per-entry ``max(0.0, .)`` builder bit for bit.
    x[mach_idx, job_arr[job_pos]] = np.maximum(0.0, sol.x[x_vars]) + 0.0
    return LP1Relaxation(
        x=x,
        t_star=float(sol.value),
        jobs=tuple(job_list),
        target=float(target),
        ell_capped=ell_capped,
    )
