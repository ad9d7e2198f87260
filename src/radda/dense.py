"""Dense reference implementation of the doubling iteration.

It runs on the low-rank engine's run path (lowrank.drive): its k = 0
state is build_shifted's operator expanded to n x n, and it doubles the
dense iterates from there.  Everything here is desk-scale (n capped) on
purpose: it exists to arbitrate, not to compete.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .cayley import BaseDoublingOperator
from .lowrank import drive
from .problems import (BreakdownError, CareProblem, DENSE_CAP, SizeCapError,
                       residual_dense)


class SingularUpdateError(BreakdownError):
    """The inner update matrix I + Y_k X_k was numerically singular."""


def _lu_small(M: np.ndarray, k: int):
    """LU of the update matrix M = I + Y X at iteration k, raising
    SingularUpdateError when M has non-finite entries or a zero pivot."""
    if not np.all(np.isfinite(M)):
        raise SingularUpdateError(
            f"I + Y X has non-finite entries at iteration {k}", k=k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(M)
    if np.abs(np.diag(lu)).min() == 0.0:
        raise SingularUpdateError(f"I + Y X is singular at iteration {k}",
                                  k=k)
    return lu, piv


@dataclass(frozen=True)
class AddaDenseState:
    """One iterate of the dense doubling recursion."""

    k: int
    ahat: np.ndarray
    X: np.ndarray
    Y: np.ndarray


def init_dense(op: BaseDoublingOperator) -> AddaDenseState:
    """The dense k = 0 iterate on the base operator op (build_shifted):
    ahat0 = I + 2a V_a^{-1} is op applied to the identity, and
    X0 = D D', Y0 = P P' are expanded from op's Cholesky factors, so the
    dense and low-rank engines start from one factorization of A - a I.
    Desk-scale only (n <= DENSE_CAP).
    """
    n = op.D.shape[0]
    if n > DENSE_CAP:
        raise SizeCapError(f"n={n} exceeds the dense cap {DENSE_CAP}")
    return AddaDenseState(k=0, ahat=op.apply(np.eye(n)), X=op.D @ op.D.T,
                          Y=op.P @ op.P.T)


def adda_step_dense(state: AddaDenseState) -> AddaDenseState:
    """Advance the dense alternating-direction doubling recursion one step:

        ahat_{k+1} = ahat (I + Y X)^{-1} ahat
        X_{k+1}    = X + ahat' (I + X Y)^{-1} X ahat
        Y_{k+1}    = Y + ahat Y (I + X Y)^{-1} ahat'

    One LU of K = I + Y X serves all three solves, because
    (I + X Y)' = K when X and Y are symmetric.  An iterate that overflows
    raises BreakdownError.
    """
    ahat, X, Y = state.ahat, state.X, state.Y
    with np.errstate(over="ignore", invalid="ignore"):
        lu_piv = _lu_small(np.eye(len(ahat)) + Y @ X, state.k)
        ahat_next = ahat @ sla.lu_solve(lu_piv, ahat, check_finite=False)
        X_next = X + ahat.T @ sla.lu_solve(lu_piv, X @ ahat, trans=1,
                                           check_finite=False)
        Y_next = Y + ahat @ (Y @ sla.lu_solve(lu_piv, ahat.T, trans=1,
                                              check_finite=False))
        X_next = (X_next + X_next.T) / 2.0
        Y_next = (Y_next + Y_next.T) / 2.0
    if not all(np.all(np.isfinite(Z)) for Z in (ahat_next, X_next, Y_next)):
        raise BreakdownError(
            f"the dense iterate is not finite after iteration {state.k}",
            k=state.k)
    return AddaDenseState(k=state.k + 1, ahat=ahat_next, X=X_next, Y=Y_next)


def adda_solve_dense(problem: CareProblem, *, alpha: float | None = None,
                     tol: float = 1e-12, maxit: int = 30):
    """Dense doubling driver; returns (X, SolveReport).

    Runs on the low-rank solver's run path (lowrank.drive), so the two
    modes share the default shift (choose_alpha), the k = 0 operator
    (build_shifted), the loop, the stopping rule (relative residual <=
    tol) and the report layout, and can be compared row by row.  The rank
    columns of the report carry the numerical ranks of the dense
    iterates.  A BreakdownError carries the partial report in .report.
    """
    if problem.n > DENSE_CAP:
        raise SizeCapError(
            f"n={problem.n} exceeds the dense cap {DENSE_CAP}")
    state, report = drive(
        problem, alpha, init_dense, adda_step_dense,
        lambda s: residual_dense(problem, s.X),
        lambda s: (int(np.linalg.matrix_rank(s.X)),
                   int(np.linalg.matrix_rank(s.Y))), tol, maxit)
    return state.X, report
