"""Problem containers, benchmark generators, dense reference utilities and
the SolveReport that lowrank.drive fills for both engines.

The equations treated throughout the package are continuous-time algebraic
Riccati equations in the low-rank-driver form

    A'X + XA - X G X + Q = 0,      Q = C'C,  G = BB',

with n x n A (typically banded), tall-skinny B (n x m) and short-fat C
(p x n), m, p << n.  The doubling iterations also carry Y, the solution
of the dual equation A Y + Y A' - Y Q Y + G = 0, which is the same
equation for the transposed data (A', C', B').
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
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
    """A doubling step could not factor the matrix its update inverts, or
    an iterate's residual is not finite.

    Carries the iteration index k; when raised out of a solve the partial
    report accumulated so far is attached as .report.
    """

    def __init__(self, message: str, k: int,
                 report: SolveReport | None = None):
        super().__init__(message)
        self.k = k
        self.report = report


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

    def a_dense(self) -> np.ndarray:
        """A as a dense ndarray (desk-scale code paths only)."""
        if sp.issparse(self.A):
            return self.A.toarray()
        return np.asarray(self.A, dtype=float)


@dataclass(frozen=True)
class LowRankSymmetric:
    """A symmetric positive semidefinite matrix held as its Cholesky
    factor: X = F F' with tall F (n x r).  Reconstruction is opt-in and
    desk-scale."""

    F: np.ndarray

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def rank(self) -> int:
        return self.F.shape[1]

    @property
    def S(self) -> np.ndarray:
        """The r x r identity: X = F S F' for readers of the core form."""
        return np.eye(self.rank)

    def reconstruct(self) -> np.ndarray:
        """Form the full n x n matrix F F'."""
        return self.F @ self.F.T


@dataclass
class SolveReport:
    """Per-run bookkeeping of lowrank.drive, shared by both engines.

    residual_history holds (k, relative residual) pairs including the
    initial iterate k = 0; rank_history holds (k, rank of the X factor,
    rank of the Y factor); wall_times[0] covers setup plus the initial
    residual and wall_times[k] covers step k plus its residual check.
    termination is one of "converged", "max-iterations", "breakdown".
    alpha is the shift the solve used.

    returned names what the solve handed back: "iterate", the last
    doubling iterate, or "galerkin", the low-rank engine's Galerkin
    finish on that iterate's basis.  A Galerkin finish adds one final row
    at the same k to all three lists: its residual, the width of the
    returned factor beside the iterate's Y width, and the time of the
    finish.  The last residual is then that of the returned solution,
    and iterations stays the iterate's k.
    """

    alpha: float | None = None
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    rank_history: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    termination: str = "converged"
    returned: str = "iterate"


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
    normalization degenerates and the absolute residual is returned,
    silently: a solve of such a problem has X = 0, residual exactly 0.0,
    at every iterate.
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
    when C = 0 makes den vanish."""
    return num / den if den else num


def care_oracle_small(problem: CareProblem) -> np.ndarray:
    """Ground-truth stabilizing solution via the Hamiltonian eigenproblem.

    Eigen-decomposes the 2n x 2n Hamiltonian [[A, -G], [-Q, -A']], keeps
    the n eigenvectors with Re(lambda) < 0, stacks them as [X1; X2], and
    returns the symmetrized real part of X2 X1^{-1}.  Deliberately
    independent of the doubling iterations so it can arbitrate between
    them.

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
    A = problem.a_dense()
    G = problem.B @ problem.B.T
    Q = problem.C.T @ problem.C
    H = np.block([[A, -G], [-Q, -A.T]])
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
