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

SEM rounds and SUU-C's segment runs solve (LP1) once per distinct
survivor set, and those LPs are tiny (a handful of jobs on the instance's
machines).  :func:`assemble_lp1` therefore writes HiGHS's column-wise
arrays (a :class:`~repro.lp.solver.CSCModel`) straight from the capped
log-mass columns, with no :class:`~repro.lp.model.LinearProgram` in
between.  The arrays are exactly what ``LinearProgram.build_arrays``
emits for the same program (pinned by ``tests/test_lp_direct.py``), so
solutions are byte-identical to ``LinearProgram``'s.  The solve goes
through ``repro.lp.model.solve_lp``, the same seam every other LP uses.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidInstanceError
from repro.instance.instance import SUUInstance
from repro.lp import model as lp_model
from repro.lp.solver import CSCModel
from repro.lp.stats import LP_STATS
from repro.util.logmass import capped_logmass

__all__ = ["LP1Relaxation", "assemble_lp1", "solve_lp1", "cached_capped_logmass"]

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


def assemble_lp1(
    ell_capped: np.ndarray, jobs: list[int], target: float
) -> tuple[CSCModel, list[int]]:
    """The (LP1) program of ``jobs`` at ``target``, as HiGHS's CSC arrays.

    ``ell_capped`` is the capped ``(m, n)`` log-mass matrix and ``jobs`` a
    nonempty sorted list of distinct job ids.  The arrays are the ones
    :meth:`~repro.lp.model.LinearProgram.build_arrays` emits for the same
    program, in the same order and dtypes:

    * columns: ``t`` first, then one ``x_ij`` per usable (machine, job)
      pair (``l'_ij > MASS_EPS``), job by job, machines ascending;
    * rows: one mass row per job (``>= L``, negated into ``<=`` form, so
      its upper bound is ``-L``), then one load row per machine with a
      usable job (upper bound 0); every row is an inequality;
    * column ``t`` holds -1 at every load row; column ``x_ij`` holds
      ``-l'_ij`` at job j's mass row, then +1 at machine i's load row.

    Returns the model and, per ``x`` column, its flat cell ``i * n + j``
    in the ``(m, n)`` matrix.  Wall time is added to
    ``LP_STATS.assembly_seconds``.

    Raises
    ------
    InvalidInstanceError
        If some job has no usable machine.
    """
    t0 = time.perf_counter()
    m, n = ell_capped.shape
    n_mass = len(jobs)
    machines: list[int] = []
    cells: list[int] = []
    mass_rows: list[int] = []
    coeffs: list[float] = []
    used = [0] * m
    for row, (j, column) in enumerate(zip(jobs, ell_capped.take(jobs, axis=1).T.tolist())):
        first = len(machines)
        for i, v in enumerate(column):
            if v > MASS_EPS:
                machines.append(i)
                cells.append(i * n + j)
                mass_rows.append(row)
                coeffs.append(-v)
                used[i] = 1
        if len(machines) == first:
            raise InvalidInstanceError(
                f"job {j} has no machine with positive log mass"
            )
    load_row = []
    n_rows = n_mass
    for flag in used:
        load_row.append(n_rows)
        n_rows += flag
    n_load = n_rows - n_mass
    nnz = len(machines)
    index = list(range(n_mass, n_rows))
    value = [-1.0] * n_load
    for row, i, v in zip(mass_rows, machines, coeffs):
        index += (row, load_row[i])
        value += (v, 1.0)
    n_cols = nnz + 1
    c = np.zeros(n_cols)
    c[0] = 1.0
    start = np.arange(n_load - 2, n_load + 2 * nnz + 1, 2, dtype=np.int32)
    start[0] = 0
    row_upper = np.zeros(n_rows)
    row_upper[:n_mass] = -target
    model = CSCModel(
        c=c,
        lb=np.zeros(n_cols),
        ub=np.full(n_cols, np.inf),
        start=start,
        index=np.array(index, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        row_lower=np.full(n_rows, -np.inf),
        row_upper=row_upper,
        n_ub=n_rows,
    )
    LP_STATS.add("assembly_seconds", time.perf_counter() - t0)
    return model, cells


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

    model, cells = assemble_lp1(ell_capped, job_list, float(target))
    # Looked up at call time: ``repro.lp.model.solve_lp`` is the seam
    # every LP solve goes through.
    sol = lp_model.solve_lp(model)
    x = np.zeros((m, n), dtype=np.float64)
    # ``+ 0.0`` normalizes HiGHS's signed zeros to +0.0, matching the old
    # per-entry ``max(0.0, .)`` builder bit for bit.
    x.put(cells, np.maximum(0.0, sol.x[1:]) + 0.0)
    return LP1Relaxation(
        x=x,
        t_star=float(sol.value),
        jobs=tuple(job_list),
        target=float(target),
        ell_capped=ell_capped,
    )
