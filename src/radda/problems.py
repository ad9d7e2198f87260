"""Problem containers, benchmark generators, and dense reference utilities.

The equations treated throughout the package are continuous-time algebraic
Riccati equations in the low-rank-driver form

    A'X + XA - X G X + Q = 0,      Q = C'C,  G = BB',

with n x n A (typically banded), tall-skinny B (n x m) and short-fat C
(p x n), m, p << n.  The dual equation A Y + Y A' - Y Q Y + G = 0 is the
same equation for the transposed data, see :func:`dual_problem`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import eigvalsh, svdvals

#: Largest n accepted by the eigen-based ground-truth solver.
ORACLE_CAP = 256
#: Largest n for which dense n x n assembly / iteration is permitted.
DENSE_CAP = 512


class SizeCapError(ValueError):
    """A dense or oracle code path was asked to exceed its size cap."""


class NoStabilizingSolutionError(RuntimeError):
    """The Hamiltonian spectrum does not split into n stable and n unstable
    eigenvalues, so no stabilizing solution can be extracted."""


class ConditioningError(RuntimeError):
    """The stable invariant-subspace basis is too ill-conditioned to invert."""


class BreakdownError(RuntimeError):
    """A small-core solve failed during a doubling step.

    Carries the iteration index k; when raised out of a solve the partial
    report accumulated so far is attached as .report.
    """

    def __init__(self, message: str, k: int,
                 report: SolveReport | None = None):
        super().__init__(message)
        self.k = k
        self.report = report


def lu_small(M: np.ndarray, k: int, what: str, error: type):
    """LU of a small core at iteration k, raising error (a BreakdownError
    subclass) when M has non-finite entries or a zero pivot."""
    if not np.all(np.isfinite(M)):
        raise error(f"{what} has non-finite entries at iteration {k}", k=k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(M)
    if np.abs(np.diag(lu)).min() == 0.0:
        raise error(f"{what} is singular at iteration {k}", k=k)
    return lu, piv


@dataclass(frozen=True)
class CareProblem:
    """Coefficient data (A, B, C) of one Riccati problem.

    Q = C'C and G = BB' are implied and never stored; the low-rank solver
    only touches them through B and C.  A may be a scipy.sparse matrix
    (the banded generators produce CSR) or a dense ndarray.  Wrong shapes
    and non-finite entries raise ValueError.
    """

    A: sp.spmatrix | np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.ndim != 2 or self.A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.B.ndim != 2 or self.B.shape[0] != n:
            raise ValueError(f"B must be {n} x m, got shape {self.B.shape}")
        if self.C.ndim != 2 or self.C.shape[1] != n:
            raise ValueError(f"C must be p x {n}, got shape {self.C.shape}")
        a_entries = self.A.tocsr().data if sp.issparse(self.A) else self.A
        for name, M in (("A", a_entries), ("B", self.B), ("C", self.C)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} has non-finite entries")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.A)

    def a_dense(self) -> np.ndarray:
        """A as a dense ndarray (desk-scale code paths only)."""
        if sp.issparse(self.A):
            return self.A.toarray()
        return np.asarray(self.A, dtype=float)


@dataclass(frozen=True)
class LowRankSymmetric:
    """A symmetric matrix held as F S F' with tall F (n x r) and small
    symmetric core S (r x r).  Reconstruction is opt-in and desk-scale."""

    F: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        r = self.F.shape[1]
        if self.S.shape != (r, r):
            raise ValueError(
                f"core shape {self.S.shape} does not match {r} factor columns")
        if r:
            scale = max(1.0, float(np.abs(self.S).max()))
            if not np.allclose(self.S, self.S.T, rtol=0.0, atol=1e-12 * scale):
                raise ValueError("core matrix must be symmetric")

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def rank(self) -> int:
        return self.F.shape[1]

    def reconstruct(self) -> np.ndarray:
        """Form the full n x n matrix F S F'."""
        M = self.F @ self.S @ self.F.T
        return (M + M.T) / 2.0


@dataclass
class SolveReport:
    """Per-run bookkeeping shared by the dense and low-rank drivers.

    residual_history holds (k, relative residual) pairs including the
    initial iterate k = 0; rank_history holds (k, rank of the X factor,
    rank of the Y factor); wall_times[0] covers setup plus the initial
    residual and wall_times[k] covers step k plus its residual check.
    termination is one of "converged", "max-iterations", "breakdown".
    alpha is the shift the solve used.
    """

    alpha: float | None = None
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    rank_history: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    termination: str = "converged"


def iterate(state, step):
    """The iterates state, step(state), step(step(state)), ... on demand."""
    while True:
        yield state
        state = step(state)


def drive(iterates, residual, ranks, tol: float, maxit: int, t0: float,
          alpha: float):
    """Run a doubling iteration under the shared stopping rule.

    Takes the k = 0 iterate and up to maxit more from iterates, stopping
    at the first whose residual(state) is at most tol.  Returns the last
    iterate taken and its SolveReport: wall_times[0] runs from t0, and
    ranks(state), a pair of factor ranks, is evaluated outside the timed
    sections, and alpha is the shift recorded in the report.  A
    BreakdownError out of a step leaves with the partial report attached
    and termination "breakdown".
    """
    report = SolveReport(alpha=alpha, termination="max-iterations")
    start = t0
    try:
        for k, state in enumerate(islice(iterates, maxit + 1)):
            res = residual(state)
            report.residual_history.append((k, res))
            report.wall_times.append(perf_counter() - start)
            report.rank_history.append((k, *ranks(state)))
            report.iterations = k
            if res <= tol:
                report.termination = "converged"
                break
            start = perf_counter()
    except BreakdownError as exc:
        report.termination = "breakdown"
        exc.report = report
        raise
    return state, report


def make_example1(n: int) -> CareProblem:
    """First built-in benchmark family.

    Tridiagonal A with -12 on the diagonal, -3 above, 2 below;
    B = 0.02 * ones(n, 1), C = 0.01 * ones(1, n).
    """
    if n < 2:
        raise ValueError(f"this family needs n >= 2, got n={n}")
    A = sp.diags([2.0, -12.0, -3.0], offsets=[-1, 0, 1],
                 shape=(n, n), format="csr")
    B = np.full((n, 1), 0.02)
    C = np.full((1, n), 0.01)
    return CareProblem(A, B, C)


def make_example2(n: int) -> CareProblem:
    """Second built-in benchmark family.

    Pentadiagonal A with -10 on the diagonal, -3 and -2 on the first and
    second superdiagonals, 2 and 1 on the first and second subdiagonals;
    B = 0.005 * ones(n, 1), C = 0.001 * ones(1, n).
    """
    if n < 3:
        raise ValueError(f"this family needs n >= 3, got n={n}")
    A = sp.diags([1.0, 2.0, -10.0, -3.0, -2.0], offsets=[-2, -1, 0, 1, 2],
                 shape=(n, n), format="csr")
    B = np.full((n, 1), 0.005)
    C = np.full((1, n), 0.001)
    return CareProblem(A, B, C)


def dual_problem(problem: CareProblem) -> CareProblem:
    """The transposed-data problem whose stabilizing solution is the Y of
    the dual equation A Y + Y A' - Y Q Y + G = 0."""
    At = problem.A.T
    if sp.issparse(At):
        At = At.tocsr()
    return CareProblem(At, problem.C.T.copy(), problem.B.T.copy())


def spectral_norm_sym(M: np.ndarray) -> float:
    """2-norm of a symmetric matrix via its extreme eigenvalues."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return float(np.abs(eigvalsh(M)).max())


def qnorm(problem: CareProblem) -> float:
    """||Q||_2 = sigma_max(C)^2, computed from the thin factor."""
    s = svdvals(problem.C)
    return float(s[0] ** 2) if s.size else 0.0


def residual_dense(problem: CareProblem, X: np.ndarray) -> float:
    """Relative residual ||A'X + XA - X G X + Q||_2 / ||Q||_2.

    X = 0 gives exactly 1.0 for any problem with C != 0.  When C = 0 the
    normalization degenerates; the absolute residual is returned and a
    RuntimeWarning is emitted.
    """
    X = np.asarray(X, dtype=float)
    A = problem.A
    Q = problem.C.T @ problem.C
    GX = problem.B @ (problem.B.T @ X)
    R = np.asarray(A.T @ X) + np.asarray(X @ A) - X @ GX + Q
    return relative_residual(spectral_norm_sym((R + R.T) / 2.0),
                             spectral_norm_sym(Q))


def relative_residual(num: float, den: float) -> float:
    """num / den for a residual norm num and den = ||Q||_2, or num itself
    with a RuntimeWarning when C = 0 makes den vanish."""
    if den == 0.0:
        warnings.warn("C = 0 makes ||Q||_2 = 0; reporting the absolute "
                      "residual instead of a relative one", RuntimeWarning)
        return num
    return num / den


def hamiltonian(problem: CareProblem) -> np.ndarray:
    """The dense 2n x 2n block matrix [[A, -G], [-Q, -A']].

    H J is symmetric (equivalently H J = -J H') for J = [[0, I], [-I, 0]];
    the stable invariant subspace encodes the stabilizing solution
    (see care_oracle_small).
    """
    if problem.n > DENSE_CAP:
        raise SizeCapError(
            f"n={problem.n} exceeds the dense cap {DENSE_CAP}")
    A = problem.a_dense()
    G = problem.B @ problem.B.T
    Q = problem.C.T @ problem.C
    return np.block([[A, -G], [-Q, -A.T]])


def care_oracle_small(problem: CareProblem) -> np.ndarray:
    """Ground-truth stabilizing solution via the Hamiltonian eigenproblem.

    Eigen-decomposes the 2n x 2n block matrix, keeps the n eigenvectors
    with Re(lambda) < 0, stacks them as [X1; X2], and returns the
    symmetrized real part of X2 X1^{-1}.  Deliberately independent of the
    doubling iterations so it can arbitrate between them.

    Raises
    ------
    SizeCapError
        if n exceeds ORACLE_CAP.
    NoStabilizingSolutionError
        if the stable eigenvalue count is not exactly n (eigenvalues on
        the imaginary axis land here too).
    ConditioningError
        if the subspace basis X1 has condition number above 1e12.
    """
    n = problem.n
    if n > ORACLE_CAP:
        raise SizeCapError(f"n={n} exceeds the oracle cap {ORACLE_CAP}")
    H = hamiltonian(problem)
    lam, V = np.linalg.eig(H)
    stable = lam.real < 0.0
    k = int(stable.sum())
    if k != n:
        raise NoStabilizingSolutionError(
            f"{k} eigenvalues in the open left half-plane, expected {n}")
    Vs = V[:, stable]
    X1, X2 = Vs[:n], Vs[n:]
    cond = np.linalg.cond(X1)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(
            f"stable subspace basis has condition number {cond:.3e}")
    X = np.linalg.solve(X1.T, X2.T).T
    X = X.real
    return (X + X.T) / 2.0
