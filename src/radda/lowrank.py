"""The low-rank doubling engine.

The doubling operator is never formed: it lives as a base operator (one
shifted solve plus thin corrections) and a chain of rank-p_j updates, one
per completed step.  The solution iterates live as factor pairs
X_k = D_k Sigma_k D_k', Y_k = P_k Gamma_k P_k' whose factors double in
width per step while every core update happens at (p_k + m_k)-scale.

The n-scale work of a step is the chain applied to the factors.  An
untruncated step reuses the blocks the previous step appended, so it costs
two depth-(k-1) applies of half width per side, 2 (p + m) 4^(k-1) base
columns; K doublings from the start then cost (p + m)(1 + (4^K - 4)/6)
columns in all.  After truncation a step falls back to one depth-k apply
per side, 2^k (p_k + m_k) columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
import scipy.linalg as sla

from .cayley import BaseDoublingOperator, build_shifted, choose_alpha
from .problems import BreakdownError, CareProblem, LowRankSymmetric, drive, \
    iterate, lu_small, qnorm as _qnorm_of, relative_residual, \
    spectral_norm_sym


def apply_ahat(base: BaseDoublingOperator, chain: tuple, Z: np.ndarray,
               transposed: bool = False) -> np.ndarray:
    """Apply the depth-k doubling operator (or its transpose) to an n x t
    block.

    Level j acts as the square of level j-1 plus a thin correction
    U_j V_j', with chain[j-1] = (U_j, V_j) holding n x p_{j-1} blocks and
    level 0 the base operator.  The recursion
    A_j Z = A_{j-1}(A_{j-1} Z) + U_j (V_j' Z)  costs 2^k base applies of
    the full width of Z, k = len(chain), which stays cheap for the small
    iteration counts the quadratic convergence produces.
    """
    Z = np.asarray(Z, dtype=float)
    squeeze = Z.ndim == 1
    if squeeze:
        Z = Z[:, None]
    out = _apply_level(base, chain, len(chain), Z, transposed)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("operator apply produced non-finite values")
    return out[:, 0] if squeeze else out


def _apply_level(base: BaseDoublingOperator, chain: tuple, j: int,
                 Z: np.ndarray, transposed: bool) -> np.ndarray:
    if j == 0:
        return base.apply_t(Z) if transposed else base.apply(Z)
    U, V = chain[j - 1]
    inner = _apply_level(base, chain, j - 1,
                         _apply_level(base, chain, j - 1, Z, transposed),
                         transposed)
    if transposed:
        return inner + V @ (U.T @ Z)
    return inner + U @ (V.T @ Z)


@dataclass(frozen=True)
class RaddaState:
    """One factored iterate: X_k = D Sigma D', Y_k = P Gamma P', the
    depth-k doubling operator and the cached cross-Gram matrix D'P.

    The operator ahat_k is the base operator followed by chain, the
    tuple of k thin corrections (U_j, V_j) that apply_ahat reads; a step
    appends one and never rebuilds the base.

    doubled marks factors that are exactly the previous step's factors
    followed by the blocks that step appended: D = [D_{k-1}, V_k] with V_k
    the right block of the last chain correction, and P = [P_{k-1},
    ahat_{k-1} P_{k-1}].  radda_step sets it and the next step uses it to
    halve the operator applies; any change of the factors (truncation, a
    rotation, a hand-built state) must leave it False.
    """

    k: int
    D: np.ndarray
    Sigma: np.ndarray
    P: np.ndarray
    Gamma: np.ndarray
    base: BaseDoublingOperator
    chain: tuple
    cross: np.ndarray
    doubled: bool = False

    @property
    def rank_x(self) -> int:
        return self.D.shape[1]

    @property
    def rank_y(self) -> int:
        return self.P.shape[1]


def init_lowrank(problem: CareProblem,
                 op: BaseDoublingOperator) -> RaddaState:
    """The factored k = 0 iterate on the base operator op (build_shifted).

    op's D0 = A_a^{-T} C' and P0 = A_a^{-1} B are the factors; this builds
    only the p x p / m x m cores, the resolvents

        Sigma0 = 2a (I + W0 W0')^{-1},
        Gamma0 = 2a (I + W0' W0)^{-1},

    from op's W0 = D0' B = C A_a^{-1} B.  No n x n algebra and no solve.
    """
    D0, P0, W0 = op.D0, op.P0, op.W0
    two_a = 2.0 * op.alpha
    p, m = problem.p, problem.m
    Sigma0 = two_a * np.linalg.inv(np.eye(p) + W0 @ W0.T)
    Gamma0 = two_a * np.linalg.inv(np.eye(m) + W0.T @ W0)
    Sigma0 = (Sigma0 + Sigma0.T) / 2.0
    Gamma0 = (Gamma0 + Gamma0.T) / 2.0
    return RaddaState(k=0, D=D0, Sigma=Sigma0, P=P0, Gamma=Gamma0,
                      base=op, chain=(), cross=D0.T @ P0)


def _first_two_powers(base: BaseDoublingOperator, chain: tuple,
                      Z: np.ndarray, transposed: bool) -> np.ndarray:
    """[ahat Z, ahat^2 Z] (or the transposed powers) as one n x 2t block,
    for the operator of base and chain.  S is freed on return, before the
    caller adds its correction."""
    S = apply_ahat(base, chain, Z, transposed=transposed)
    return np.hstack([S, apply_ahat(base, chain, S, transposed=transposed)])


def radda_step(state: RaddaState) -> RaddaState:
    """Advance the factored iterate one doubling step.

    With the cross-Gram W = D'P cached, the projected Gram matrices
    D'Y D = W Gamma W' and P'X P = W' Sigma W never touch n-scale data.
    The new diagonal core blocks are the resolvents

        Sigma~ = (I + Sigma (D'Y D))^{-1} Sigma,
        Gamma~ = (I + Gamma (P'X P))^{-1} Gamma,

    the factors double (D gains ahat'D, P gains ahat P), and the operator
    itself gains the thin correction -[(ahat P) Gamma W' Sigma
    (I + (D'Y D) Sigma)^{-1}] (ahat'D)', whose blocks are the new P and D
    columns times an m_k x p_k core, so it needs no apply of its own.  One
    LU of I + Sigma (D'Y D) serves both core solves on the Sigma side,
    since (I + (D'Y D) Sigma)' is the same matrix.

    On a doubled state, with prev = ahat_{k-1}, (U_k, V_k) the last
    correction and F = prev P_{k-1} the block the last step appended to P,

        ahat' D = [S, prev' S] + V_k (U_k' D),      S = prev' V_k,
        ahat P  = [T, prev T]  + U_k (V_k' P),      T = prev F,

    so each side takes two depth-(k-1) applies of half width in place of
    one depth-k apply.  Other states apply the depth-k chain directly.
    """
    D, Sigma, P, Gamma = state.D, state.Sigma, state.P, state.Gamma
    W = state.cross
    gram_y = W @ Gamma @ W.T          # D' Y D   (p_k x p_k)
    gram_x = W.T @ Sigma @ W          # P' X P   (m_k x m_k)
    p_k = D.shape[1]
    m_k = P.shape[1]

    lu_s = lu_small(np.eye(p_k) + Sigma @ gram_y, state.k, "I + Sigma (D'YD)",
                    BreakdownError)
    lu_g = lu_small(np.eye(m_k) + Gamma @ gram_x, state.k, "I + Gamma (P'XP)",
                    BreakdownError)
    sigma_new = sla.lu_solve(lu_s, Sigma)
    gamma_new = sla.lu_solve(lu_g, Gamma)
    sigma_new = (sigma_new + sigma_new.T) / 2.0
    gamma_new = (gamma_new + gamma_new.T) / 2.0
    # m_k x p_k core of the operator correction; the right-solve against
    # I + (D'YD) Sigma transposes into the factor already at hand
    small = sla.lu_solve(lu_s, (Gamma @ W.T @ Sigma).T).T

    base, chain = state.base, state.chain
    if state.doubled:
        prev = chain[:-1]
        U_k, V_k = chain[-1]
        D_new = _first_two_powers(base, prev, V_k, transposed=True)
        D_new += V_k @ (U_k.T @ D)
        P_new = _first_two_powers(base, prev, P[:, m_k // 2:],
                                  transposed=False)
        P_new += U_k @ (V_k.T @ P)
    else:
        D_new = apply_ahat(base, chain, D, transposed=True)
        P_new = apply_ahat(base, chain, P)
    chain_next = chain + ((-(P_new @ small), D_new),)

    cross_next = np.block([[W, D.T @ P_new],
                           [D_new.T @ P, D_new.T @ P_new]])
    return RaddaState(
        k=state.k + 1,
        D=np.hstack([D, D_new]),
        Sigma=sla.block_diag(Sigma, sigma_new),
        P=np.hstack([P, P_new]),
        Gamma=sla.block_diag(Gamma, gamma_new),
        base=base,
        chain=chain_next,
        cross=cross_next,
        doubled=True,
    )


def residual_lowrank(problem: CareProblem, D: np.ndarray, Sigma: np.ndarray,
                     qnorm: float | None = None) -> float:
    """Relative residual of X = D Sigma D' without forming n x n data.

    The residual A'X + XA - X G X + Q has column space inside
    F = [C' | D | A'D], so the triangular factor R of F = QR (Q is never
    formed) reduces the spectral norm to a (p + 2r) x (p + 2r) symmetric
    eigenproblem with the indefinite core

        [[ I,  0,          0     ],
         [ 0, -S W W' S,   S     ],      W = D'B,  S = Sigma,
         [ 0,  S,          0     ]].

    The identity needs no rank assumptions on F.  A zero ||Q||_2 triggers
    the same absolute-residual fallback as the dense path.  Non-finite
    entries in F raise ValueError.
    """
    D = np.asarray(D, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    n, p = problem.n, problem.p
    r = D.shape[1]
    if qnorm is None:
        qnorm = _qnorm_of(problem)
    # F is built once, column-major, and factored in place by LAPACK
    F = np.empty((n, p + 2 * r), order="F")
    F[:, :p] = problem.C.T
    F[:, p:p + r] = D
    F[:, p + r:] = problem.A.T @ D
    R = sla.qr(F, mode="raw", overwrite_a=True)[1]
    # R times the block core times R', one block at a time
    R1, R2, R3 = R[:, :p], R[:, p:p + r], R[:, p + r:]
    G = R2 @ (Sigma @ (D.T @ problem.B))
    M = (R2 @ Sigma) @ R3.T
    core = R1 @ R1.T - G @ G.T + M + M.T
    return relative_residual(spectral_norm_sym((core + core.T) / 2.0), qnorm)


def truncate_factors(D: np.ndarray, Sigma: np.ndarray, tol: float):
    """Rank-revealing recompression of a factor pair (D, Sigma).

    Thin QR of D, symmetric eigendecomposition of the projected core,
    drop eigenvalues with |lambda| <= tol * |lambda|_max; the represented
    matrix moves by at most tol * ||D Sigma D'||_2 in spectral norm.
    tol = 0 passes the factors through untouched (exact-zero eigenvalues
    included), and an empty factor is returned as-is.
    """
    if tol < 0.0:
        raise ValueError(f"truncation tolerance must be >= 0, got {tol}")
    if tol == 0.0 or D.shape[1] == 0:
        return D, Sigma
    Q, R = sla.qr(D, mode="economic")
    core = R @ Sigma @ R.T
    lam, V = sla.eigh((core + core.T) / 2.0)
    amax = np.abs(lam).max()
    if amax == 0.0:
        return D[:, :0], Sigma[:0, :0]
    keep = np.abs(lam) > tol * amax
    return Q @ V[:, keep], np.diag(lam[keep])


def radda_solve(problem: CareProblem, *, alpha: float | None = None,
                tol: float = 1e-12, maxit: int = 30,
                truncate_tol: float = 0.0):
    """Solve the Riccati equation in factored form by doubling.

    Parameters
    ----------
    problem : CareProblem
        Coefficient data; A may be sparse (preferred at scale) or dense.
    alpha : float, optional
        Positive shift.  Default: choose_alpha(problem), the best rung of
        a halving search that starts at sqrt(||A||_1 ||A||_inf).
    tol : float
        Stop once the relative residual drops to tol or below.
    maxit : int
        Iteration budget; exceeding it returns with termination
        "max-iterations" rather than raising.
    truncate_tol : float
        Relative eigenvalue cutoff for per-step factor recompression.
        0 (default) disables truncation and the factor widths double
        exactly each step.

    Returns
    -------
    (LowRankSymmetric, SolveReport)
        The factored solution X = F S F' and the run bookkeeping.

    Raises
    ------
    ShiftSingularError
        if A - alpha I is singular (for the default shift: at the search's
        first rung, sqrt(||A||_1 ||A||_inf)).
    BreakdownError
        if a small-core solve fails mid-run; the exception carries the
        partial report in .report.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")
    if truncate_tol < 0.0:
        raise ValueError(
            f"truncation tolerance must be >= 0, got {truncate_tol}")

    def truncated_step(state):
        state = radda_step(state)
        D, Sigma = truncate_factors(state.D, state.Sigma, truncate_tol)
        P, Gamma = truncate_factors(state.P, state.Gamma, truncate_tol)
        return replace(state, D=D, Sigma=Sigma, P=P, Gamma=Gamma,
                       cross=D.T @ P, doubled=False)

    t0 = perf_counter()
    a = choose_alpha(problem) if alpha is None else float(alpha)
    state = init_lowrank(problem, build_shifted(problem, a))
    qn = _qnorm_of(problem)
    state, report = drive(
        iterate(state, truncated_step if truncate_tol > 0.0 else radda_step),
        lambda s: residual_lowrank(problem, s.D, s.Sigma, qn),
        lambda s: (s.rank_x, s.rank_y),
        tol, maxit, t0, a)
    return LowRankSymmetric(state.D, state.Sigma), report
