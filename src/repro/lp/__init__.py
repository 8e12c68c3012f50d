"""LP substrate: sparse model builder and direct HiGHS solver."""

from repro.lp.model import LinearProgram
from repro.lp.solver import CSCModel, LPSolution, solve_lp

__all__ = ["CSCModel", "LinearProgram", "LPSolution", "solve_lp"]
