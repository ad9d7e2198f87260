"""Closed-form and structure verifiers for the dense doubling iterates.

Test-only: the acceptance gate (criteria 5 and 7) and tests/test_dense.py
check iterates against the stabilizing solutions from the eigen-oracle and
against the symplectic pencil structure.
"""

from dataclasses import dataclass

import numpy as np

from radda import AddaDenseState, CareProblem, care_oracle_small, dual_problem


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
