"""The low-rank doubling engine.

The doubling operator is never formed: it lives as a base operator (one
shifted solve plus thin corrections) and a chain of rank-p_j updates, one
per completed step.  The solution iterates live in Cholesky form
X_k = D_k D_k', Y_k = P_k P_k': each step appends one block to each
factor, so the widths double, and the only small-scale algebra is the
Cholesky factorization of a p_k x p_k and an m_k x m_k Gram matrix.

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

from .cayley import BaseDoublingOperator, _times_inv_lt, build_shifted, \
    choose_alpha
from .problems import BreakdownError, CareProblem, LowRankSymmetric, drive, \
    iterate, qnorm as _qnorm_of, relative_residual, spectral_norm_sym


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
    """One factored iterate: X_k = D D', Y_k = P P' and the depth-k
    doubling operator.  The factors are all it keeps of the iterate; a
    step forms the cross-Gram D'P itself, and no array of a state is
    written after it is built (at k = 0, D and P are the base operator's).

    The operator ahat_k is the base operator followed by chain, the
    tuple of k thin corrections (U_j, V_j) that apply_ahat reads; a step
    appends one and never rebuilds the base.

    chol holds the lower Cholesky factors (L_x, L_y) of the step that
    produced this state, and marks factors that are exactly that step's
    factors followed by the blocks it appended: D = [D_{k-1}, V_k] with
    V_k the right block of the last chain correction, and P = [P_{k-1},
    (ahat_{k-1} P_{k-1}) L_y^{-T}].  radda_step sets it and the next step
    uses it to halve the operator applies; any change of the factors
    (truncation, a rotation, a hand-built state) must leave it None.
    """

    k: int
    D: np.ndarray
    P: np.ndarray
    base: BaseDoublingOperator
    chain: tuple
    chol: tuple | None = None

    @property
    def rank_x(self) -> int:
        return self.D.shape[1]

    @property
    def rank_y(self) -> int:
        return self.P.shape[1]


def init_lowrank(op: BaseDoublingOperator) -> RaddaState:
    """The factored k = 0 iterate X0 = D D', Y0 = P P' on the base
    operator op (build_shifted), which already holds both factors: the
    state shares op.D and op.P and does no work of its own.
    """
    return RaddaState(k=0, D=op.D, P=op.P, base=op, chain=())


def _first_two_powers(base: BaseDoublingOperator, chain: tuple,
                      Z: np.ndarray, L: np.ndarray,
                      transposed: bool) -> np.ndarray:
    """[(ahat Z) L', ahat^2 Z] (or the transposed powers) as one n x 2t
    block, for the operator of base and chain.  S and T are freed on
    return, before the caller adds its correction."""
    S = apply_ahat(base, chain, Z, transposed=transposed)
    T = apply_ahat(base, chain, S, transposed=transposed)
    return np.hstack([S @ L.T, T])


def radda_step(state: RaddaState) -> RaddaState:
    """Advance the factored iterate one doubling step.

    With the cross-Gram W = D'P, formed here from the factors, and the
    lower Cholesky factors

        L_x L_x' = I + W W',      L_y L_y' = I + W'W,

    the push-through identity turns the dense update into one block
    appended to each factor, D~ = [D, N_x] and P~ = [P, N_y] with

        N_x = (ahat'D) L_x^{-T},      N_y = (ahat P) L_y^{-T},

    and the operator gains the thin correction -N_y (L_y^{-1} W' L_x) N_x',
    the new columns times an m_k x p_k matrix, so it needs no apply of its
    own.  Both Gram matrices have every eigenvalue >= 1: a factorization
    fails only once W is so large that rounding swamps the identity, and
    that, or a non-finite W or Gram matrix, raises BreakdownError.

    On a doubled state, with prev = ahat_{k-1}, (U_k, V_k) the last
    correction, (M_x, M_y) = chol the last step's factors and F the block
    the last step appended to P,

        ahat' D = [S M_x', prev' S] + V_k (U_k' D),      S = prev' V_k,
        ahat P  = [T M_y', prev T]  + U_k (V_k' P),      T = prev F,

    so each side takes two depth-(k-1) applies of half width in place of
    one depth-k apply.  Other states apply the depth-k chain directly.
    """
    D, P, k = state.D, state.P, state.k
    W = D.T @ P
    p_k, m_k = W.shape
    if not np.all(np.isfinite(W)):
        raise BreakdownError(f"D'P is non-finite at iteration {k}", k=k)
    try:
        L_x = sla.cholesky(np.eye(p_k) + W @ W.T, lower=True)
        L_y = sla.cholesky(np.eye(m_k) + W.T @ W, lower=True)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise BreakdownError(
            f"no Cholesky factor of a Gram matrix at iteration {k}: {exc}",
            k=k) from exc

    base, chain = state.base, state.chain
    # N_x, N_y hold ahat'D, ahat P until scaled: one copy of each block
    if state.chol is not None:
        prev = chain[:-1]
        U_k, V_k = chain[-1]
        prev_x, prev_y = state.chol
        N_x = _first_two_powers(base, prev, V_k, prev_x, transposed=True)
        N_x += V_k @ (U_k.T @ D)
        N_y = _first_two_powers(base, prev, P[:, m_k // 2:], prev_y,
                                transposed=False)
        N_y += U_k @ (V_k.T @ P)
    else:
        N_x = apply_ahat(base, chain, D, transposed=True)
        N_y = apply_ahat(base, chain, P)
    N_x = _times_inv_lt(N_x, L_x)
    N_y = _times_inv_lt(N_y, L_y)
    small = sla.solve_triangular(L_y, W.T @ L_x, lower=True)
    return RaddaState(
        k=k + 1,
        D=np.hstack([D, N_x]),
        P=np.hstack([P, N_y]),
        base=base,
        chain=chain + ((-(N_y @ small), N_x),),
        chol=(L_x, L_y),
    )


def residual_lowrank(problem: CareProblem, D: np.ndarray,
                     qnorm: float | None = None) -> float:
    """Relative residual of X = D D' without forming n x n data.

    The residual A'X + XA - X G X + Q has column space inside
    F = [C' | D | A'D], so the triangular factor R of F = QR (Q is never
    formed) reduces the spectral norm to a (p + 2r) x (p + 2r) symmetric
    eigenproblem with the indefinite core

        [[ I,  0,      0 ],
         [ 0, -W W',   I ],      W = D'B.
         [ 0,  I,      0 ]]

    The identity needs no rank assumptions on F.  A zero ||Q||_2 triggers
    the same absolute-residual fallback as the dense path.  Non-finite
    entries in F raise ValueError.
    """
    D = np.asarray(D, dtype=float)
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
    # R times the block core times R', one block at a time; eigvalsh reads
    # only the lower triangle
    R1, R2, R3 = R[:, :p], R[:, p:p + r], R[:, p + r:]
    G = R2 @ (D.T @ problem.B)
    M = R2 @ R3.T
    core = R1 @ R1.T - G @ G.T + M + M.T
    return relative_residual(spectral_norm_sym(core), qnorm)


def truncate_factors(D: np.ndarray, tol: float) -> np.ndarray:
    """Rank-revealing recompression of a Cholesky factor D of X = D D'.

    Thin QR of D, SVD of its triangular factor, drop singular values
    s <= sqrt(tol) * s_max: the eigenvalues s^2 of X at most tol * ||X||_2
    go, so X moves by at most tol * ||X||_2 in spectral norm.  tol = 0
    passes D through untouched, and an empty factor is returned as-is.
    """
    if tol < 0.0:
        raise ValueError(f"truncation tolerance must be >= 0, got {tol}")
    if tol == 0.0 or D.shape[1] == 0:
        return D
    Q, R = sla.qr(D, mode="economic")
    U, s, _ = sla.svd(R)
    keep = s > np.sqrt(tol) * s[0]
    return Q @ (U[:, keep] * s[keep])


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
        a ladder of powers of two around sqrt(||A||_1 ||A||_inf), searched
        from the rung that Ritz values of A and A^{-1} favour.
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
        The factored solution X = F F' (S is the identity) and the run
        bookkeeping.

    Raises
    ------
    ShiftSingularError
        if A - alpha I is singular (for the default shift: if no rung of
        the search is usable).
    BreakdownError
        if a step's cross-Gram matrix D'P turns non-finite or one of its
        two Cholesky factorizations fails mid-run; the exception carries
        the partial report in .report.
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
        D = truncate_factors(state.D, truncate_tol)
        P = truncate_factors(state.P, truncate_tol)
        return replace(state, D=D, P=P, chol=None)

    t0 = perf_counter()
    a = choose_alpha(problem) if alpha is None else float(alpha)
    state = init_lowrank(build_shifted(problem, a))
    qn = _qnorm_of(problem)
    state, report = drive(
        iterate(state, truncated_step if truncate_tol > 0.0 else radda_step),
        lambda s: residual_lowrank(problem, s.D, qn),
        lambda s: (s.rank_x, s.rank_y),
        tol, maxit, t0, a)
    return LowRankSymmetric(state.D, np.eye(state.rank_x)), report
