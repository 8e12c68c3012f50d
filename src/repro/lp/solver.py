"""HiGHS, called directly: one reused solver per thread, fed CSC arrays.

scipy is the one external solver dependency the reproduction allows itself
(writing a competitive simplex/IPM implementation is out of scope and would
only add noise to the algorithms under study).  Everything above this layer
— the LP formulations, the roundings, the flow networks — is ours.

scipy ships HiGHS as a full solver object
(``scipy.optimize._highspy._core._Highs``).  ``linprog`` wraps it in a
per-call round trip — input cleaning, COO/CSR/CSC rebuilds, option
validation, a fresh solver — that costs several times HiGHS's own ``run``
on the paper's small, numerous LP1/LP2 solves.  This module calls the
object directly instead:

* one ``_Highs`` per thread (thread-local, so concurrent server handler
  threads each own one), with its options set once to exactly
  what ``linprog(method="highs")`` passes: output off, presolve on, the
  dual simplex strategy;
* per LP, ``clearSolver()`` → ``passModel()`` → ``run()`` on the
  column-wise arrays of a :class:`CSCModel`
  (:meth:`repro.lp.model.LinearProgram.build_arrays` and, for (LP1),
  :func:`repro.core.lp1.assemble_lp1` emit one with no scipy.sparse
  objects in between);
* ``linprog``'s correctness checks stay: a non-optimal model status
  raises :class:`~repro.errors.InfeasibleLPError` with linprog's status
  code, and every answer is re-checked by :func:`check_solution`.

HiGHS receives the model ``linprog`` would build from the same program,
and its solver state is cleared between models, so solutions are
byte-identical to ``linprog``'s (pinned by ``tests/test_lp_direct.py``).
``linprog`` remains only as the fallback for scipy builds without the
binding, chosen by whether it imports; there is no knob.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.errors import InfeasibleLPError
from repro.lp.stats import LP_STATS

try:
    from scipy.optimize._highspy import _core as _highs  # type: ignore[import-not-found]
except ImportError:  # scipy without the HiGHS binding: linprog only
    _highs = None

__all__ = ["CSCModel", "LPSolution", "check_solution", "solve_lp"]

#: The options ``linprog(method="highs")`` sets on its solver; every other
#: option stays at HiGHS's default.  ``simplex_strategy`` 1 is dual simplex.
HIGHS_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("highs_debug_level", 0),
    ("presolve", "on"),
    ("simplex_strategy", 1),
)

#: linprog's post-solve tolerance: ``10 * sqrt(tol)`` at its default
#: ``tol = 1e-9``.
CHECK_TOL = 10 * np.sqrt(1e-9)

#: linprog's status code per non-optimal HiGHS model status: 1 limit
#: reached, 2 infeasible, 3 unbounded; every other status maps to 4.
_SCIPY_STATUS = {
    "kTimeLimit": 1,
    "kIterationLimit": 1,
    "kModelError": 2,
    "kInfeasible": 2,
    "kUnbounded": 3,
}


class CSCModel(NamedTuple):
    """A minimization LP in the column-wise form HiGHS consumes.

    ``min c @ x`` subject to ``row_lower <= A @ x <= row_upper`` and
    ``lb <= x <= ub``.  Column ``j`` of ``A`` holds ``value[k]`` in row
    ``index[k]`` for ``start[j] <= k < start[j + 1]``, row indices
    ascending.  The first ``n_ub`` rows are ``<=`` rows (``row_lower`` is
    ``-inf``); the rest are equalities (``row_lower == row_upper``).
    """

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_ub: int


@dataclass(frozen=True)
class LPSolution:
    """An optimal LP solution.

    Attributes
    ----------
    x:
        Optimal variable values.
    value:
        Optimal objective value.
    """

    x: np.ndarray
    value: float


def solve_lp(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds=None,
) -> LPSolution:
    """Minimize ``c @ x`` subject to the given constraints.

    ``c`` is either a :class:`CSCModel`, solved as is (the other arguments
    must then be omitted), or the objective of a ``linprog``-style call:
    ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, and ``bounds`` as
    ``linprog`` takes them (default ``(0, None)`` per variable).

    Raises
    ------
    InfeasibleLPError
        If HiGHS reports anything but optimality, or its answer fails
        :func:`check_solution`; ``status`` is ``linprog``'s code (2
        infeasible, 3 unbounded, 4 numerical trouble).
    """
    LP_STATS.add("lp_solves")
    if isinstance(c, CSCModel):
        model = c
    else:
        model = _model_from_linprog_args(c, A_ub, b_ub, A_eq, b_eq, bounds)
    if _highs is None:
        return _solve_linprog(model)
    return _solve_highs(model)


def check_solution(model: CSCModel, x, value: float, row_value) -> None:
    """Re-check an optimal answer the way ``linprog``'s ``_check_result`` does.

    ``row_value`` is ``A @ x`` as the solver computed it.  The answer
    passes when nothing is NaN, ``x`` is within its bounds, every ``<=``
    row has slack ``>= -tol`` and every equality residual is within
    ``tol``, with ``tol =`` :data:`CHECK_TOL`.

    Raises
    ------
    InfeasibleLPError
        With status 4 when any of those fails.
    """
    tol = CHECK_TOL
    slack = model.row_upper - row_value
    if np.isnan(x).any() or np.isnan(value) or np.isnan(slack).any():
        ok = False
    else:
        ok = bool(
            ((x >= model.lb - tol) & (x <= model.ub + tol)).all()
            and not (slack[: model.n_ub] < -tol).any()
            and not (np.abs(slack[model.n_ub :]) > tol).any()
        )
    if not ok:
        raise InfeasibleLPError(
            "LP solve failed (status 4): the solution does not satisfy the "
            f"constraints within the required tolerance of {tol:.2E}",
            status=4,
        )


# ---------------------------------------------------------------------------
# The direct path.

_local = threading.local()


def _solver():
    """This thread's HiGHS instance, created with :data:`HIGHS_OPTIONS`."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _highs._Highs()
        for name, option in HIGHS_OPTIONS:
            if highs.setOptionValue(name, option) != _highs.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {name}={option!r}")
        _local.highs = highs
    return highs


def _solve_highs(model: CSCModel) -> LPSolution:
    highs = _solver()
    highs.clearSolver()
    n_col = model.c.size
    status = highs.passModel(
        n_col,
        model.row_upper.size,
        model.value.size,
        int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize),
        0.0,
        model.c,
        model.lb,
        model.ub,
        model.row_lower,
        model.row_upper,
        model.start,
        model.index,
        model.value,
        # All columns continuous; HiGHS reads one entry per column.
        np.zeros(n_col, dtype=np.int32),
    )
    if status == _highs.HighsStatus.kError:
        # What linprog reports when HiGHS rejects the model.
        _raise_status(highs, _highs.HighsModelStatus.kModelError)
    highs.run()
    model_status = highs.getModelStatus()
    if model_status != _highs.HighsModelStatus.kOptimal:
        _raise_status(highs, model_status)
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=np.float64)
    # ``info.objective_function_value``, read without building the info struct.
    value = float(highs.getObjectiveValue())
    check_solution(model, x, value, np.array(solution.row_value, dtype=np.float64))
    return LPSolution(x=x, value=value)


def _raise_status(highs, model_status) -> NoReturn:
    status = _SCIPY_STATUS.get(model_status.name, 4)
    raise InfeasibleLPError(
        f"LP solve failed (status {status}): HiGHS model status "
        f"{int(model_status)}: {highs.modelStatusToString(model_status)}",
        status=status,
    )


# ---------------------------------------------------------------------------
# linprog-style arguments and the linprog fallback.


def _model_from_linprog_args(c, A_ub, b_ub, A_eq, b_eq, bounds) -> CSCModel:
    """The :class:`CSCModel` ``linprog`` would hand HiGHS for these arguments."""
    c = np.asarray(c, dtype=np.float64).ravel()
    n = c.size
    blocks = [
        sp.csr_array((0, n)) if A is None else sp.csr_array(A, dtype=np.float64)
        for A in (A_ub, A_eq)
    ]
    A = sp.csc_array(sp.vstack(blocks))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=np.float64).ravel()
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=np.float64).ravel()
    if bounds is None:
        bounds = (0.0, None)
    pairs = np.broadcast_to(np.array(bounds, dtype=np.float64), (n, 2))
    lb = np.where(np.isnan(pairs[:, 0]), -np.inf, pairs[:, 0])
    ub = np.where(np.isnan(pairs[:, 1]), np.inf, pairs[:, 1])
    return CSCModel(
        c=c,
        lb=lb,
        ub=ub,
        start=A.indptr.astype(np.int32),
        index=A.indices.astype(np.int32),
        value=A.data,
        row_lower=np.concatenate((np.full(b_ub.size, -np.inf), b_eq)),
        row_upper=np.concatenate((b_ub, b_eq)),
        n_ub=b_ub.size,
    )


def _solve_linprog(model: CSCModel) -> LPSolution:
    n_rows = model.row_upper.size
    A = sp.csc_array(
        (model.value, model.index, model.start), shape=(n_rows, model.c.size)
    ).tocsr()
    k = model.n_ub
    res = linprog(
        model.c,
        A_ub=A[:k] if k else None,
        b_ub=model.row_upper[:k] if k else None,
        A_eq=A[k:] if k < n_rows else None,
        b_eq=model.row_upper[k:] if k < n_rows else None,
        bounds=np.column_stack((model.lb, model.ub)),
        method="highs",
    )
    if not res.success:
        raise InfeasibleLPError(
            f"LP solve failed (status {res.status}): {res.message}", status=res.status
        )
    return LPSolution(x=np.asarray(res.x, dtype=np.float64), value=float(res.fun))
