"""Low-rank doubling solver for large-scale continuous-time algebraic
Riccati equations, with a dense doubling iteration and a Hamiltonian
eigen-oracle as verification baselines, plus a benchmark CLI.

The package namespace holds what a caller needs to build or load a
problem, solve it and check the result.  The engine internals stay in
their own modules: the iterate, its step and the operator chain in
radda.lowrank, the shifted base operator in radda.cayley, the dense
iterate in radda.dense, the norms in radda.problems and the problem
dicts in radda.serialize.
"""

from .problems import (
    BreakdownError,
    CareProblem,
    ConditioningError,
    DENSE_CAP,
    LowRankSymmetric,
    NoStabilizingSolutionError,
    ORACLE_CAP,
    SizeCapError,
    SolveReport,
    care_oracle_small,
    make_example1,
    make_example2,
    residual_dense,
)
from .cayley import ShiftSingularError, choose_alpha
from .dense import SingularUpdateError, adda_solve_dense
from .lowrank import radda_solve, residual_lowrank
from .serialize import load_problem, save_problem

__version__ = "0.1.0"

__all__ = [
    "BreakdownError",
    "CareProblem",
    "ConditioningError",
    "DENSE_CAP",
    "LowRankSymmetric",
    "NoStabilizingSolutionError",
    "ORACLE_CAP",
    "ShiftSingularError",
    "SingularUpdateError",
    "SizeCapError",
    "SolveReport",
    "adda_solve_dense",
    "care_oracle_small",
    "choose_alpha",
    "load_problem",
    "make_example1",
    "make_example2",
    "radda_solve",
    "residual_dense",
    "residual_lowrank",
    "save_problem",
]
