"""Dense reference implementation of the doubling iteration.

Everything here is desk-scale (n capped) on purpose: it exists to arbitrate,
not to compete.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.linalg as sla

from .cayley import ShiftSingularError, check_shift, choose_alpha
from .problems import (BreakdownError, CareProblem, DENSE_CAP, SizeCapError,
                       drive, iterate, residual_dense)


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


def init_dense(problem: CareProblem, alpha: float) -> AddaDenseState:
    """Dense starting iterate (Ahat0, X0, Y0) of the reference iteration
    at shift a = alpha:

        Ahat0 = I + 2a V_a^{-1},
        X0    = 2a U_a^{-1} Q A_a^{-1},
        Y0    = 2a A_a^{-1} G U_a^{-1},

    with X0, Y0 symmetrized.  The only factorization is the dense inverse
    of A_a = A - a I; it shares nothing with the low-rank operator.  A
    non-positive or non-finite shift raises ValueError, an exactly
    singular A_a ShiftSingularError.  Desk-scale only (n <= DENSE_CAP).
    """
    check_shift(alpha)
    n = problem.n
    if n > DENSE_CAP:
        raise SizeCapError(f"n={n} exceeds the dense cap {DENSE_CAP}")
    A = problem.a_dense()
    G = problem.B @ problem.B.T
    Q = problem.C.T @ problem.C
    Aa = A - alpha * np.eye(n)
    try:
        Aa_inv = np.linalg.inv(Aa)
    except np.linalg.LinAlgError as exc:
        raise ShiftSingularError(
            f"A - {alpha} I is singular; pick a different shift") from exc
    Ua = Aa.T + Q @ Aa_inv @ G
    Va = Aa + G @ Aa_inv.T @ Q
    Ahat0 = np.eye(n) + 2.0 * alpha * np.linalg.inv(Va)
    X0 = 2.0 * alpha * np.linalg.solve(Ua, Q @ Aa_inv)
    Y0 = 2.0 * alpha * (Aa_inv @ np.linalg.solve(Ua.T, G).T)
    X0 = (X0 + X0.T) / 2.0
    Y0 = (Y0 + Y0.T) / 2.0
    return AddaDenseState(k=0, ahat=Ahat0, X=X0, Y=Y0)


def adda_step_dense(state: AddaDenseState) -> AddaDenseState:
    """Advance the dense alternating-direction doubling recursion one step:

        ahat_{k+1} = ahat (I + Y X)^{-1} ahat
        X_{k+1}    = X + ahat' (I + X Y)^{-1} X ahat
        Y_{k+1}    = Y + ahat Y (I + X Y)^{-1} ahat'

    One LU of K = I + Y X serves all three solves, because
    (I + X Y)' = K when X and Y are symmetric.
    """
    ahat, X, Y = state.ahat, state.X, state.Y
    n = ahat.shape[0]
    lu, piv = _lu_small(np.eye(n) + Y @ X, state.k)
    ahat_next = ahat @ sla.lu_solve((lu, piv), ahat)
    X_next = X + ahat.T @ sla.lu_solve((lu, piv), X @ ahat, trans=1)
    Y_next = Y + ahat @ (Y @ sla.lu_solve((lu, piv), ahat.T, trans=1))
    X_next = (X_next + X_next.T) / 2.0
    Y_next = (Y_next + Y_next.T) / 2.0
    return AddaDenseState(k=state.k + 1, ahat=ahat_next, X=X_next, Y=Y_next)


def adda_solve_dense(problem: CareProblem, *, alpha: float | None = None,
                     tol: float = 1e-12, maxit: int = 30):
    """Dense doubling driver; returns (X, SolveReport).

    Shares the low-rank driver's default shift (choose_alpha), loop,
    stopping rule (relative residual <= tol) and report layout, so the
    two modes can be compared row by row.  The rank columns of the report
    carry the numerical ranks of the dense iterates.  A SingularUpdateError
    carries the partial report in .report.
    """
    if problem.n > DENSE_CAP:
        raise SizeCapError(
            f"n={problem.n} exceeds the dense cap {DENSE_CAP}")
    if tol <= 0.0 or maxit < 1:
        raise ValueError("tol must be positive and maxit at least 1")
    t0 = perf_counter()
    a = choose_alpha(problem) if alpha is None else float(alpha)
    state = init_dense(problem, a)
    state, report = drive(
        iterate(state, adda_step_dense),
        lambda s: residual_dense(problem, s.X),
        lambda s: (int(np.linalg.matrix_rank(s.X)),
                   int(np.linalg.matrix_rank(s.Y))),
        tol, maxit, t0, a)
    return state.X, report
