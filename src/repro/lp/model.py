"""Incremental sparse LP builder.

(LP2) and the stochastic baselines (LST, Lawler–Labetoulle) are built
here: :class:`LinearProgram` accumulates sparse constraint rows and
hands HiGHS the column-wise (CSC) arrays it consumes.  It intentionally
supports only what the paper's programs need: minimization, ``<=`` /
``>=`` / ``==`` rows, and per-variable bounds.  (LP1), solved once per
survivor set and tiny, skips it: :func:`repro.core.lp1.assemble_lp1`
writes the arrays :class:`LinearProgram` would emit for it directly.

Rows arrive through two surfaces with identical semantics:

* the per-row dict API (:meth:`LinearProgram.add_le` / ``add_ge`` /
  ``add_eq``) — convenient for small programs and kept for compatibility;
* the bulk CSR API (:meth:`LinearProgram.add_rows_csr`) — whole constraint
  families as numpy triplet arrays, the assembly path the vectorized
  (LP2) assembly uses.  One call appends thousands of rows with no
  per-coefficient Python work.

Internally every surface appends *blocks* of COO triplets.
:meth:`LinearProgram.build_arrays` turns them into a
:class:`~repro.lp.solver.CSCModel` with one stable column-major sort —
no scipy.sparse objects, no per-call bounds list — summing duplicate
coefficients within a row (exactly the dict API's merge).  It is fully
vectorized and reports its wall-clock into :data:`repro.lp.stats.LP_STATS`
(``assembly_seconds``).  :meth:`LinearProgram.solve` passes the model to
this module's ``solve_lp`` (:func:`repro.lp.solver.solve_lp`): assembly
and the solver call stay two separately timeable seams.  ``solve_lp1``
calls the same ``repro.lp.model.solve_lp``, looked up at call time, so
every HiGHS call of the program goes through this one name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.lp.solver import CSCModel, LPSolution, solve_lp
from repro.lp.stats import LP_STATS

__all__ = ["LinearProgram"]

#: Sense encodings used in the internal row blocks.
_SENSE_CODE = {"<=": 0, ">=": 1, "==": 2}


@dataclass
class LinearProgram:
    """A minimization LP assembled incrementally.

    Usage::

        lp = LinearProgram()
        x = lp.add_variable(objective=0.0, lb=0.0)
        t = lp.add_variable(objective=1.0, lb=0.0)
        lp.add_ge({x: 2.0}, 1.0)        # 2 x >= 1
        lp.add_le({x: 1.0, t: -1.0}, 0)  # x <= t
        sol = lp.solve()
    """

    _objective: list[float] = field(default_factory=list)
    _lb: list[float] = field(default_factory=list)
    _ub: list[float] = field(default_factory=list)
    #: COO row blocks: (block-local rows, cols, vals, rhs, sense codes).
    _blocks: list[tuple] = field(default_factory=list)
    _n_rows: int = 0

    @property
    def n_variables(self) -> int:
        """Number of variables added so far."""
        return len(self._objective)

    @property
    def n_constraints(self) -> int:
        """Number of constraint rows added so far."""
        return self._n_rows

    def add_variable(
        self, objective: float = 0.0, lb: float = 0.0, ub: float | None = None
    ) -> int:
        """Add a variable; returns its column index."""
        if ub is not None and ub < lb:
            raise ValueError(f"upper bound {ub} below lower bound {lb}")
        self._objective.append(float(objective))
        self._lb.append(float(lb))
        self._ub.append(np.inf if ub is None else float(ub))
        return len(self._objective) - 1

    def add_variables(
        self, count: int, objective: float = 0.0, lb: float = 0.0, ub: float | None = None
    ) -> list[int]:
        """Add ``count`` identical variables; returns their column indices."""
        if count < 0:
            raise ValueError(f"variable count must be >= 0, got {count}")
        if ub is not None and ub < lb:
            raise ValueError(f"upper bound {ub} below lower bound {lb}")
        start = len(self._objective)
        self._objective.extend([float(objective)] * count)
        self._lb.extend([float(lb)] * count)
        self._ub.extend([np.inf if ub is None else float(ub)] * count)
        return list(range(start, start + count))

    def _add_row(self, coeffs: dict[int, float], rhs: float, sense: str) -> None:
        nv = self.n_variables
        clean: dict[int, float] = {}
        for col, coef in coeffs.items():
            col = int(col)
            if not (0 <= col < nv):
                raise ValueError(f"coefficient on unknown variable {col}")
            coef = float(coef)
            if coef != 0.0:
                clean[col] = clean.get(col, 0.0) + coef
        self._blocks.append(
            (
                np.zeros(len(clean), dtype=np.int64),
                np.fromiter(clean.keys(), dtype=np.int64, count=len(clean)),
                np.fromiter(clean.values(), dtype=np.float64, count=len(clean)),
                np.array([float(rhs)], dtype=np.float64),
                np.array([_SENSE_CODE[sense]], dtype=np.int8),
            )
        )
        self._n_rows += 1

    def add_le(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[v] * x_v <= rhs``."""
        self._add_row(coeffs, rhs, "<=")

    def add_ge(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[v] * x_v >= rhs``."""
        self._add_row(coeffs, rhs, ">=")

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[v] * x_v == rhs``."""
        self._add_row(coeffs, rhs, "==")

    # ------------------------------------------------------------------
    def add_rows_csr(self, indptr, cols, vals, rhs, senses) -> None:
        """Bulk-append constraint rows given in CSR triplet form.

        Row ``r`` (``0 <= r < len(rhs)``) has coefficients
        ``vals[indptr[r]:indptr[r+1]]`` on variables
        ``cols[indptr[r]:indptr[r+1]]`` and right-hand side ``rhs[r]``.
        ``senses`` is either one sense string (``"<="``/``">="``/``"=="``)
        applied to every row, or a sequence of per-row sense strings.

        Semantics match the per-row dict API exactly: zero coefficients are
        dropped, duplicate columns within a row sum, and rows interleave
        with previously added ones in call order.  All validation is
        vectorized — no per-coefficient Python work.
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        rhs = np.ascontiguousarray(rhs, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise ValueError("indptr must be a 1-D array of length n_rows + 1")
        n_rows = indptr.size - 1
        if rhs.shape != (n_rows,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({n_rows},)")
        if indptr[0] != 0 or indptr[-1] != cols.size or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must be nondecreasing from 0 to len(cols)")
        if cols.shape != vals.shape:
            raise ValueError("cols and vals must have equal length")
        if cols.size and (
            int(cols.min()) < 0 or int(cols.max()) >= self.n_variables
        ):
            raise ValueError("coefficient on unknown variable")
        if isinstance(senses, str):
            if senses not in _SENSE_CODE:
                raise ValueError(f"unknown constraint sense {senses!r}")
            sense_codes = np.full(n_rows, _SENSE_CODE[senses], dtype=np.int8)
        else:
            try:
                sense_codes = np.fromiter(
                    (_SENSE_CODE[s] for s in senses), dtype=np.int8, count=n_rows
                )
            except KeyError as exc:
                raise ValueError(f"unknown constraint sense {exc.args[0]!r}") from exc
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        self._blocks.append((rows, cols, vals, rhs, sense_codes))
        self._n_rows += n_rows

    # ------------------------------------------------------------------
    def build_arrays(self) -> CSCModel:
        """Assemble the column-wise model HiGHS consumes (a :class:`CSCModel`).

        Fully vectorized, with no scipy.sparse objects: blocks concatenate
        into one triplet set; ``<=`` and ``>=`` rows (the latter negated
        into ``<=`` form) take the leading rows in insertion order and
        ``==`` rows follow, the row order of ``linprog``'s
        ``vstack((A_ub, A_eq))``.  One stable column-major sort then
        yields the CSC arrays; duplicate coefficients within a row sum in
        insertion order.  Wall-clock spent here is accumulated into
        ``LP_STATS.assembly_seconds``.
        """
        t0 = time.perf_counter()
        nv = self.n_variables
        if self._blocks:
            offsets = np.cumsum([0] + [b[3].size for b in self._blocks])
            rows = np.concatenate(
                [b[0] + off for b, off in zip(self._blocks, offsets[:-1])]
            )
            cols = np.concatenate([b[1] for b in self._blocks])
            vals = np.concatenate([b[2] for b in self._blocks])
            rhs = np.concatenate([b[3] for b in self._blocks])
            sense = np.concatenate([b[4] for b in self._blocks])
        else:
            rows = cols = np.empty(0, dtype=np.int64)
            vals = rhs = np.empty(0, dtype=np.float64)
            sense = np.empty(0, dtype=np.int8)

        n_rows = rhs.size
        is_eq = sense == _SENSE_CODE["=="]
        n_ub = n_rows - int(is_eq.sum())
        # Final position of every added row: inequalities, then equalities.
        final_row = np.where(is_eq, n_ub + np.cumsum(is_eq) - 1, np.cumsum(~is_eq) - 1)
        row_sign = np.where(sense == _SENSE_CODE[">="], -1.0, 1.0)

        # One stable column-major sort: entries in CSC order, duplicates of
        # one (row, column) adjacent in insertion order.
        row = final_row[rows]
        order = np.argsort(cols * n_rows + row, kind="stable")
        col, row = cols[order], row[order]
        value = (vals * row_sign[rows])[order]
        if col.size > 1:
            dup = (col[1:] == col[:-1]) & (row[1:] == row[:-1])
            if dup.any():
                first = np.flatnonzero(np.concatenate(([True], ~dup)))
                value = np.add.reduceat(value, first)
                col, row = col[first], row[first]
        start = np.zeros(nv + 1, dtype=np.int32)
        start[1:] = np.cumsum(np.bincount(col, minlength=nv))

        row_upper = np.empty(n_rows, dtype=np.float64)
        row_upper[final_row] = rhs * row_sign
        row_lower = np.full(n_rows, -np.inf)
        row_lower[n_ub:] = row_upper[n_ub:]
        model = CSCModel(
            c=np.array(self._objective, dtype=np.float64),
            lb=np.array(self._lb, dtype=np.float64),
            ub=np.array(self._ub, dtype=np.float64),
            start=start,
            index=row.astype(np.int32),
            value=value,
            row_lower=row_lower,
            row_upper=row_upper,
            n_ub=n_ub,
        )
        LP_STATS.add("assembly_seconds", time.perf_counter() - t0)
        return model

    def solve(self) -> LPSolution:
        """Solve the LP with HiGHS (see :mod:`repro.lp.solver`)."""
        return solve_lp(self.build_arrays())
