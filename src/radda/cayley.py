"""Shift selection and the shifted-solve kernels feeding both doubling
iterations.

Everything revolves around A_a = A - a I for a positive shift a: one LU of
A_a is reused for every block solve with A_a and A_a', and the inverses of
the two Schur-complement-like matrices

    U_a = A_a' + Q A_a^{-1} G,        V_a = A_a + G A_a^{-T} Q,

are applied through the Woodbury identity with m x m / p x p cores, so the
large-scale path never forms an n x n inverse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .problems import CareProblem


class ShiftSingularError(RuntimeError):
    """A - a I is singular; retry with a different shift."""


@dataclass(frozen=True)
class ShiftedFactorization:
    """Reusable solve handles for the shifted matrix A_a = A - a I.

    solve applies A_a^{-1} and solve_t applies A_a^{-T}, both accepting
    n x t blocks; a single factorization backs the pair.
    """

    alpha: float
    n: int
    solve: Callable[[np.ndarray], np.ndarray]
    solve_t: Callable[[np.ndarray], np.ndarray]


#: base applies behind each rung's doubling-rate estimate
RATE_APPLIES = 8
#: ratio between consecutive shifts of the search ladder
LADDER_RATIO = 0.5
#: bound on the shifts one search factors.  20 rungs reach alpha0 / 5e5,
#: which is sqrt(lmin lmax), the best single shift, for lmax / lmin up to
#: about 3e11; a rate that keeps falling cannot run the ladder to underflow
MAX_RUNGS = 20


def _norm_shift(problem: CareProblem) -> float:
    """sqrt(||A||_1 ||A||_inf): scale-aware, cheap, positive for any
    nonzero A, and an upper bound on the spectral radius of A."""
    A = problem.A
    if sp.issparse(A):
        absA = abs(A)
        n1 = float(np.asarray(absA.sum(axis=0)).max())
        ninf = float(np.asarray(absA.sum(axis=1)).max())
    else:
        absA = np.abs(np.asarray(A, dtype=float))
        n1 = float(absA.sum(axis=0).max())
        ninf = float(absA.sum(axis=1).max())
    alpha = float(np.sqrt(n1 * ninf))
    if alpha <= 0.0:
        raise ValueError("A = 0 admits no positive default shift")
    return alpha


def choose_alpha(problem: CareProblem) -> float:
    """Default shift: the best rung of a halving ladder.

    The ladder starts at alpha0 = sqrt(||A||_1 ||A||_inf), which sits
    near the top of the spectrum, and tries alpha0, alpha0/2, alpha0/4,
    ...  Each shift is scored by an estimate of the spectral radius of its
    base doubling operator, which sets how many doublings a solve needs.
    The search stops at the first rung whose estimate is no lower than the
    best so far, or after MAX_RUNGS rungs, and returns the best shift.
    Each rung costs one factorization of A - alpha I, freed before the
    next rung is built, and RATE_APPLIES base applies of width m.

    Raises ShiftSingularError if A - alpha0 I is singular, and ValueError
    for A = 0.  A later rung that is singular or numerically unusable
    ends the search.
    """
    alpha = _norm_shift(problem)
    best_alpha, best_rate = alpha, _doubling_rate(problem, alpha)
    for _ in range(MAX_RUNGS - 1):
        alpha *= LADDER_RATIO
        try:
            rate = _doubling_rate(problem, alpha)
        except (ShiftSingularError, ValueError):
            break
        if not rate < best_rate:      # a NaN estimate ends the search too
            break
        best_alpha, best_rate = alpha, rate
    return best_alpha


def _doubling_rate(problem: CareProblem, alpha: float) -> float:
    """Power-iteration estimate of the spectral radius of the base
    doubling operator E_a at shift a = alpha.

    From z = P0 / ||P0||_F (P0 = A_a^{-1} B), RATE_APPLIES applies of E_a,
    renormalizing after each, give the geometric mean of the growth
    factors ||E_a z||_F.  The factorization of A - alpha I lives only as
    long as this call.
    """
    shifted = build_shifted(problem, alpha)
    D0, P0, W0 = base_blocks(problem, shifted)
    op = BaseDoublingOperator(problem, shifted, D0, P0, W0)
    z = P0
    scale = float(np.linalg.norm(z))
    rate = 1.0
    for _ in range(RATE_APPLIES):
        if scale == 0.0:          # B = 0, or E_a annihilated z
            return 0.0
        z = op.apply(z / scale)
        scale = float(np.linalg.norm(z))
        rate *= scale ** (1.0 / RATE_APPLIES)
    return rate


def build_shifted(problem: CareProblem, alpha: float) -> ShiftedFactorization:
    """Factor A - alpha I once and wrap the forward/transposed solves.

    Sparse A goes through SuperLU (one factorization serves both
    orientations); dense A through an LAPACK LU.  An exactly singular
    shifted matrix raises ShiftSingularError.
    """
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"shift must be positive and finite, got {alpha}")
    n = problem.n
    if sp.issparse(problem.A):
        Aa = (problem.A - alpha * sp.identity(n, format="csr")).tocsc()
        try:
            lu = spla.splu(Aa)
        except RuntimeError as exc:
            raise ShiftSingularError(
                f"A - {alpha} I is singular; pick a different shift") from exc

        def solve(Z, _lu=lu):
            return _lu.solve(np.asarray(Z, dtype=float))

        def solve_t(Z, _lu=lu):
            return _lu.solve(np.asarray(Z, dtype=float), trans="T")
    else:
        Aa = problem.a_dense() - alpha * np.eye(n)
        with warnings.catch_warnings():
            # exact singularity is reported as an exception below, not a warning
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(Aa, check_finite=True)
        if np.abs(np.diag(lu)).min() == 0.0:
            raise ShiftSingularError(
                f"A - {alpha} I is singular; pick a different shift")

        def solve(Z, _lu=lu, _piv=piv):
            return sla.lu_solve((_lu, _piv), np.asarray(Z, dtype=float))

        def solve_t(Z, _lu=lu, _piv=piv):
            return sla.lu_solve((_lu, _piv), np.asarray(Z, dtype=float),
                                trans=1)

    return ShiftedFactorization(alpha=float(alpha), n=n,
                                solve=solve, solve_t=solve_t)


def base_blocks(problem: CareProblem, shifted: ShiftedFactorization):
    """(D0, P0, W0) at the shift of shifted: D0 = A_a^{-T} C' (n x p),
    P0 = A_a^{-1} B (n x m) and W0 = D0'B = C A_a^{-1} B (p x m).

    Non-finite solves raise ValueError: the shift is numerically unusable.
    """
    D0 = shifted.solve_t(np.asarray(problem.C.T, dtype=float))
    P0 = shifted.solve(np.asarray(problem.B, dtype=float))
    if not (np.all(np.isfinite(D0)) and np.all(np.isfinite(P0))):
        raise ValueError("shifted solves produced non-finite values; "
                         "the shift is numerically unusable")
    return D0, P0, D0.T @ problem.B


class BaseDoublingOperator:
    """Matrix-free form of I + 2a V_a^{-1}, the depth-0 doubling operator.

    V_a^{-1} = A_a^{-1} - A_a^{-1} B (I + B' A_a^{-T} Q A_a^{-1} B)^{-1}
               B' A_a^{-T} Q A_a^{-1}
    by the Woodbury identity, and with D0 = A_a^{-T} C', P0 = A_a^{-1} B,
    W0 = D0'B the m x m core collapses to I + W0'W0 (SPD, one Cholesky).
    apply costs one shifted solve plus thin corrections; apply_t is the
    transposed action from the same data.
    """

    def __init__(self, problem: CareProblem, shifted: ShiftedFactorization,
                 D0: np.ndarray, P0: np.ndarray, W0: np.ndarray):
        self._C = problem.C
        self._B = problem.B
        self._shifted = shifted
        self._two_alpha = 2.0 * shifted.alpha
        self._P0 = P0
        self._W0 = W0
        self._E0 = D0 @ W0
        m = problem.m
        self._chol = sla.cho_factor(np.eye(m) + W0.T @ W0)

    @property
    def n(self) -> int:
        return self._shifted.n

    def apply(self, Z: np.ndarray) -> np.ndarray:
        u = self._shifted.solve(Z)
        h = sla.cho_solve(self._chol, self._W0.T @ (self._C @ u))
        return Z + self._two_alpha * (u - self._P0 @ h)

    def apply_t(self, Z: np.ndarray) -> np.ndarray:
        v = self._shifted.solve_t(Z)
        h = sla.cho_solve(self._chol, self._B.T @ v)
        return Z + self._two_alpha * (v - self._E0 @ h)
