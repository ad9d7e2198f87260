"""Closed-form and structure verifiers for the dense doubling iterates.

Test-only: the acceptance gate (criteria 5 and 7) and tests/test_dense.py
check iterates against the stabilizing solutions from the eigen-oracle and
against the symplectic pencil structure.  dual_problem gives the oracle
the dual equation, whose solution the iterates Y_k approach, and
reference_start the k = 0 iterate from explicit inverses, which the tests
of build_shifted's operator compare against.  reference_residual_lowrank
is the factored residual from one Householder QR of the whole basis,
which the streamed residual_lowrank is checked against.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from radda import CareProblem, care_oracle_small
from radda.dense import AddaDenseState
from radda.problems import qnorm as _qnorm_of, relative_residual, \
    spectral_norm_sym


@dataclass(frozen=True)
class VerificationContext:
    """Ground-truth data for closed-form iterate checks: the stabilizing
    solutions of the primal and dual equations, the closed-loop matrices
    R = A - G X*, S = A' - Q Y*, and their Cayley transforms."""

    Xstar: np.ndarray
    Ystar: np.ndarray
    R: np.ndarray
    S: np.ndarray
    CR: np.ndarray
    CS: np.ndarray


def dual_problem(problem: CareProblem) -> CareProblem:
    """The transposed-data problem whose stabilizing solution is the Y of
    the dual equation A Y + Y A' - Y Q Y + G = 0."""
    At = problem.A.T
    if sp.issparse(At):
        At = At.tocsr()
    return CareProblem(At, problem.C.T.copy(), problem.B.T.copy())


def reference_start(problem: CareProblem, alpha: float) -> AddaDenseState:
    """The k = 0 iterate at shift a = alpha from its explicit-inverse
    formulas, independent of build_shifted's operator:

        Ahat0 = I + 2a V_a^{-1},
        X0    = 2a U_a^{-1} Q A_a^{-1},
        Y0    = 2a A_a^{-1} G U_a^{-1},

    with A_a = A - a I, U_a = A_a' + Q A_a^{-1} G, V_a = A_a + G A_a^{-T} Q,
    and X0, Y0 symmetrized.
    """
    n = problem.n
    G = problem.B @ problem.B.T
    Q = problem.C.T @ problem.C
    Aa = problem.a_dense() - alpha * np.eye(n)
    Aa_inv = np.linalg.inv(Aa)
    Ua = Aa.T + Q @ Aa_inv @ G
    Va = Aa + G @ Aa_inv.T @ Q
    Ahat0 = np.eye(n) + 2.0 * alpha * np.linalg.inv(Va)
    X0 = 2.0 * alpha * np.linalg.solve(Ua, Q @ Aa_inv)
    Y0 = 2.0 * alpha * (Aa_inv @ np.linalg.solve(Ua.T, G).T)
    return AddaDenseState(k=0, ahat=Ahat0, X=(X0 + X0.T) / 2.0,
                          Y=(Y0 + Y0.T) / 2.0)


def reference_residual_lowrank(problem: CareProblem, D: np.ndarray,
                               qnorm: float | None = None) -> float:
    """Relative residual of X = D D' (D one n x r array) from the
    triangular factor R of F = [C' | D | A'D], taken by one Householder QR
    of the whole of F, and the core

        [[ I,  0,      0 ],
         [ 0, -W W',   I ],      W = D'B,
         [ 0,  I,      0 ]]

    between R and R'.  The same algebra as residual_lowrank, which streams
    the rows of F instead of holding it.
    """
    D = np.asarray(D, dtype=float)
    n, p = problem.n, problem.p
    r = D.shape[1]
    if qnorm is None:
        qnorm = _qnorm_of(problem)
    F = np.empty((n, p + 2 * r), order="F")
    F[:, :p] = problem.C.T
    F[:, p:p + r] = D
    F[:, p + r:] = problem.A.T @ D
    R = sla.qr(F, mode="raw", overwrite_a=True)[1]
    R1, R2, R3 = R[:, :p], R[:, p:p + r], R[:, p + r:]
    G = R2 @ (D.T @ problem.B)
    M = R2 @ R3.T
    core = R1 @ R1.T - G @ G.T + M + M.T
    return relative_residual(spectral_norm_sym(core), qnorm)


def _cayley(M: np.ndarray, alpha: float) -> np.ndarray:
    n = M.shape[0]
    shifted = M - alpha * np.eye(n)
    try:
        return np.linalg.solve(shifted, M + alpha * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Cayley transform undefined: matrix - {alpha} I is singular"
        ) from exc


def build_verification_context(problem: CareProblem,
                               alpha: float) -> VerificationContext:
    """Assemble the oracle solutions and Cayley transforms once per problem."""
    Xstar = care_oracle_small(problem)
    Ystar = care_oracle_small(dual_problem(problem))
    A = problem.a_dense()
    G = problem.B @ problem.B.T
    Q = problem.C.T @ problem.C
    R = A - G @ Xstar
    S = A.T - Q @ Ystar
    return VerificationContext(Xstar=Xstar, Ystar=Ystar, R=R, S=S,
                               CR=_cayley(R, alpha), CS=_cayley(S, alpha))


@dataclass(frozen=True)
class DoublingIdentityReport:
    """Frobenius deviations of the two closed forms at one iterate, plus
    the spectral radius of the closed-loop Cayley transform."""

    k: int
    dev_ahat: float
    dev_gap: float
    rho_cayley: float


def verify_doubling_identities(state: AddaDenseState,
                               ctx: VerificationContext) -> DoublingIdentityReport:
    """Measure how well an iterate matches its closed form.

    The doubling operator satisfies  ahat_k = (I + Y_k X*) Ck(R)  and the
    error obeys  X* - X_k = (I + X_k Y*) Ck(S) X* Ck(R),  where Ck(.) is
    the 2^k-th power of the Cayley transform of the closed-loop matrix.
    Both identities hold at k = 0 as well.
    """
    n = state.X.shape[0]
    e = 2 ** state.k
    CRk = np.linalg.matrix_power(ctx.CR, e)
    CSk = np.linalg.matrix_power(ctx.CS, e)
    I = np.eye(n)
    dev_ahat = float(np.linalg.norm(
        state.ahat - (I + state.Y @ ctx.Xstar) @ CRk, "fro"))
    dev_gap = float(np.linalg.norm(
        (ctx.Xstar - state.X) - (I + state.X @ ctx.Ystar) @ CSk @ ctx.Xstar @ CRk,
        "fro"))
    rho = float(np.abs(np.linalg.eigvals(ctx.CR)).max())
    return DoublingIdentityReport(k=state.k, dev_ahat=dev_ahat,
                                  dev_gap=dev_gap, rho_cayley=rho)


def verify_symplectic_pencil(state: AddaDenseState) -> float:
    """Normalized deviation || M J M' - L J L' ||_F / ||M||_F^2 of the pencil

        M = [[ahat, 0], [-X, I]],      L = [[I, Y], [0, ahat']],

    which vanishes identically when X and Y are symmetric — a structural
    invariant of every iterate.
    """
    n = state.X.shape[0]
    I = np.eye(n)
    Z = np.zeros((n, n))
    M = np.block([[state.ahat, Z], [-state.X, I]])
    L = np.block([[I, state.Y], [Z, state.ahat.T]])
    J = np.block([[Z, I], [-I, Z]])
    dev = np.linalg.norm(M @ J @ M.T - L @ J @ L.T, "fro")
    return float(dev / np.linalg.norm(M, "fro") ** 2)
