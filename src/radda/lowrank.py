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

The n-scale memory is the factors themselves.  D and P are tuples of
column blocks, one per step, so a step appends its new blocks without
copying the old ones; each chain correction is those two blocks and a
small coupling, so past the shifted LU an untruncated state holds only
blocks of D and P.  The factored residual streams the rows of its basis
through a QR, so it holds one row block of that basis beside A'D.

drive is the one run path of both engines and of the CLI's compare: it
picks the shift, builds the k = 0 operator and doubles under the shared
stopping rule.

radda_solve adds a Galerkin finish.  range(D_k) is a rational Krylov
space with its pole repeated at the shift, and the Galerkin solution of
the Riccati equation projected on [C', D_k, A'D_k], the projection step
of RKSM and of extended block Arnoldi, often meets tol a doubling or
more before the iterate does.  It is tried once per solve: at the first
iterate whose residual lies in (tol, 1e4 tol], and only if that basis has
p + 2r <= n/4 columns.  The factor it returns replaces the iterate when
its own factored residual is at most tol; otherwise the doubling goes
on.  On the 32 x 32 convection-diffusion grid (tol 1e-10, truncation
1e-13) it ends the solve at k = 6 in place of 7 and halves its time
(0.24 -> 0.12 s, one BLAS thread) at rank 21 (20 or 21 before); at
N = 16 it fires on 7 of 8 seeds.  The paper's second family at n = 3e5 (k = 2 residual
2.2e-7) and dense n = 256 instances (132 basis columns at k = 4) never
reach it, nor does the first family at n = 1e5 or 2e5.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
import scipy.linalg as sla
from scipy.linalg import solve_continuous_are

from .cayley import BaseDoublingOperator, _times_inv_lt, build_shifted, \
    choose_alpha
from .problems import BreakdownError, CareProblem, LowRankSymmetric, \
    SolveReport, qnorm as _qnorm_of, relative_residual, spectral_norm_sym


def apply_ahat(base: BaseDoublingOperator, chain: tuple, Z: np.ndarray,
               transposed: bool = False) -> np.ndarray:
    """Apply the depth-k doubling operator (or its transpose) to an n x t
    block or an n-vector.

    Level j acts as the square of level j-1 plus a thin correction
    F_j K_j V_j', with chain[j-1] = (F_j, K_j, V_j): F_j and V_j the blocks
    step j appended to P and D, K_j its small m x p coupling, and level 0
    the base operator.  The recursion
    A_j Z = A_{j-1}(A_{j-1} Z) + F_j (K_j (V_j' Z))  costs 2^k base applies
    of the full width of Z, k = len(chain), which stays cheap for the small
    iteration counts the quadratic convergence produces.
    """
    return _apply_level(base, chain, len(chain), Z, transposed)


def _apply_level(base: BaseDoublingOperator, chain: tuple, j: int,
                 Z: np.ndarray, transposed: bool) -> np.ndarray:
    if j == 0:
        return base.apply_t(Z) if transposed else base.apply(Z)
    F, K, V = chain[j - 1]
    inner = _apply_level(base, chain, j - 1,
                         _apply_level(base, chain, j - 1, Z, transposed),
                         transposed)
    if transposed:
        return inner + V @ (K.T @ (F.T @ Z))
    return inner + F @ (K @ (V.T @ Z))


@dataclass(frozen=True)
class RaddaState:
    """One factored iterate: X_k = D D', Y_k = P P' and the depth-k
    doubling operator.  D and P are tuples of n-row column blocks whose
    concatenations are the Cholesky factors; the factors are all a state
    keeps of the iterate, a step forms the cross-Gram D'P itself, and no
    block of a state is written after it is built (at k = 0, D and P are
    the base operator's single blocks).

    The operator ahat_k is the base operator followed by chain, the
    tuple of k thin corrections (F_j, K_j, V_j) that apply_ahat reads; a
    step appends one and never rebuilds the base.  F_j and V_j are the
    blocks step j appended to P and D, held once (chain[j-1][0] is P[j]
    and chain[j-1][2] is D[j] until truncation rebuilds the factors).

    chol holds the lower Cholesky factors (L_x, L_y) of the step that
    produced this state, and marks factors that are exactly that step's
    factors followed by its chain correction's outer blocks,
    P = (*P_{k-1}, F_k) and D = (*D_{k-1}, V_k).  radda_step sets it and
    the next step uses it to halve the operator applies; any change of
    the factors (truncation, a rotation, a hand-built state) must leave
    it None.
    """

    k: int
    D: tuple
    P: tuple
    base: BaseDoublingOperator
    chain: tuple
    chol: tuple | None = None

    @property
    def rank_x(self) -> int:
        return sum(block.shape[1] for block in self.D)

    @property
    def rank_y(self) -> int:
        return sum(block.shape[1] for block in self.P)


def _joined(blocks: tuple) -> np.ndarray:
    """The concatenation of column blocks; a single block is returned
    as-is, not copied."""
    return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def init_lowrank(op: BaseDoublingOperator) -> RaddaState:
    """The factored k = 0 iterate X0 = D D', Y0 = P P' on the base
    operator op (build_shifted), which already holds both factors: the
    state shares op.D and op.P, as one block each, and does no work of
    its own.
    """
    return RaddaState(k=0, D=(op.D,), P=(op.P,), base=op, chain=())


def _first_two_powers(base: BaseDoublingOperator, chain: tuple,
                      Z: np.ndarray, L: np.ndarray,
                      transposed: bool) -> np.ndarray:
    """[(ahat Z) L', ahat^2 Z] (or the transposed powers) as one n x 2t
    block, for the operator of base and chain, written into one
    allocation.  S and T are freed on return, before the caller adds its
    correction."""
    S = apply_ahat(base, chain, Z, transposed=transposed)
    t = S.shape[1]
    out = np.empty((S.shape[0], 2 * t))
    np.matmul(S, L.T, out=out[:, :t])
    out[:, t:] = apply_ahat(base, chain, S, transposed=transposed)
    return out


def radda_step(state: RaddaState) -> RaddaState:
    """Advance the factored iterate one doubling step.

    With the cross-Gram W = D'P, formed here block by block from the
    factors, and the lower Cholesky factors

        L_x L_x' = I + W W',      L_y L_y' = I + W'W,

    the push-through identity turns the dense update into one block
    appended to each factor, D~ = (*D, N_x) and P~ = (*P, N_y) with

        N_x = (ahat'D) L_x^{-T},      N_y = (ahat P) L_y^{-T},

    and the operator gains the thin correction N_y K N_x', with the
    m_k x p_k coupling K = -L_y^{-1} W' L_x, so it needs no apply of its
    own: the chain holds (N_y, K, N_x), the appended blocks themselves.
    The old blocks are kept, not copied.  Both Gram matrices have every
    eigenvalue >= 1: a factorization fails only once W is so large that
    rounding swamps the identity, and that, a non-finite W or Gram
    matrix, or a non-finite operator apply raises BreakdownError.

    On a doubled state, with prev = ahat_{k-1}, (F, K_k, V) the last
    correction (F = P[-1], V = D[-1]) and (M_x, M_y) = chol the last
    step's factors,

        ahat' D = [S M_x', prev' S] + V K_k' (D'F)',      S = prev' V,
        ahat P  = [T M_y', prev T]  + F K_k (V'P),        T = prev F,

    so each side takes two depth-(k-1) applies of half width in place of
    one depth-k apply, and D'F and V'P are W's last column and row blocks.
    Other states apply the depth-k chain directly, to the factors
    concatenated once.
    """
    D, P, k = state.D, state.P, state.k
    W = np.block([[d.T @ f for f in P] for d in D])
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
    # N_x, N_y hold ahat'D, ahat P until scaled: one copy of each block.
    # An overflowing apply is named below as a breakdown, so the inf it
    # feeds to the rest of the chain raises no warning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        if state.chol is not None:
            prev = chain[:-1]
            F, K_k, V = chain[-1]
            prev_x, prev_y = state.chol
            # explicit offsets: a zero-width block gives an empty slice
            row, col = p_k - V.shape[1], m_k - F.shape[1]
            N_x = _first_two_powers(base, prev, V, prev_x, transposed=True)
            N_x += V @ (K_k.T @ W[:, col:].T)
            N_y = _first_two_powers(base, prev, F, prev_y, transposed=False)
            N_y += F @ (K_k @ W[row:])
        else:
            N_x = apply_ahat(base, chain, _joined(D), transposed=True)
            N_y = apply_ahat(base, chain, _joined(P))
    if not (np.all(np.isfinite(N_x)) and np.all(np.isfinite(N_y))):
        raise BreakdownError(
            f"an operator apply is non-finite at iteration {k}", k=k)
    N_x = _times_inv_lt(N_x, L_x)
    N_y = _times_inv_lt(N_y, L_y)
    K = sla.solve_triangular(L_y, W.T @ L_x, lower=True)
    return RaddaState(
        k=k + 1,
        D=(*D, N_x),
        P=(*P, N_y),
        base=base,
        chain=chain + ((N_y, np.negative(K, out=K), N_x),),
        chol=(L_x, L_y),
    )


#: rows of the residual's basis that one QR of its streamed
#: factorization takes in
_ROW_BLOCK = 1 << 15


def residual_lowrank(problem: CareProblem, D,
                     qnorm: float | None = None) -> float:
    """Relative residual of X = D D' without forming n x n data.

    D is the n x r Cholesky factor, or a sequence of n-row column blocks
    whose concatenation is; a state's D can be passed as it is.

    The residual A'X + XA - X G X + Q has column space inside
    F = [C' | D | A'D], so the triangular factor R of F = QR (Q is never
    formed) reduces the spectral norm to a (p + 2r) x (p + 2r) symmetric
    eigenproblem with the indefinite core

        [[ I,  0,      0 ],
         [ 0, -W W',   I ],      W = D'B.
         [ 0,  I,      0 ]]

    R comes from a flat TSQR over row blocks of F: the running R is
    stacked on the next rows of F and factored again, so F is never held
    whole, only A'D and one row block beside the factor.  W is summed
    over the same row blocks; one dot product over all n rows loses
    enough of W at scale (2e-11 of 9 on example 1 at n = 5e5) to lift a
    converged residual from 3e-13 to 3.5e-12.  The identity needs no rank
    assumptions on F.  When C = 0 makes ||Q||_2 = 0 the
    absolute residual is returned, silently, as on the dense path.
    Non-finite entries in F raise ValueError, an overflowing core gives
    inf.
    """
    blocks = [np.asarray(block, dtype=float) for block in
              ((D,) if isinstance(D, np.ndarray) else D)]
    n, p = problem.n, problem.p
    r = sum(block.shape[1] for block in blocks)
    if qnorm is None:
        qnorm = _qnorm_of(problem)
    columns = [problem.C.T, *blocks,
               *(problem.A.T @ block for block in blocks)]
    R = np.empty((0, p + 2 * r))
    W = np.zeros((r, problem.m))
    # an overflowing W or core shows below as a non-finite core
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _ROW_BLOCK):
            rows = slice(start, min(start + _ROW_BLOCK, n))
            # the running R on these rows of F, column-major so that
            # LAPACK factors it in place; W sums over the same rows, so a
            # factor and its blocks give the same bits
            S = np.empty((len(R) + rows.stop - start, R.shape[1]),
                         order="F")
            S[:len(R)] = R
            col = 0
            for block in columns:
                S[len(R):, col:col + block.shape[1]] = block[rows]
                col += block.shape[1]
            W += S[len(R):, p:p + r].T @ problem.B[rows]
            R = sla.qr(S, mode="raw", overwrite_a=True)[1]
            del S   # before the next block is allocated
        # R times the block core times R', one block at a time; eigvalsh
        # reads only the lower triangle
        R1, R2, R3 = R[:, :p], R[:, p:p + r], R[:, p + r:]
        G = R2 @ W
        M = R2 @ R3.T
        core = R1 @ R1.T - G @ G.T + M + M.T
    if not np.all(np.isfinite(core)):
        return np.inf
    return relative_residual(spectral_norm_sym(core), qnorm)


def _check_truncate_tol(tol: float) -> None:
    if not 0.0 <= tol < 1.0:
        raise ValueError(
            f"truncation tolerance must lie in [0, 1), got {tol}")


def truncate_factors(D: np.ndarray, tol: float) -> np.ndarray:
    """Rank-revealing recompression of a Cholesky factor D of X = D D'.

    Thin QR of D, SVD of its triangular factor, drop singular values
    s <= sqrt(tol) * s_max: the eigenvalues s^2 of X at most tol * ||X||_2
    go, so X moves by at most tol * ||X||_2 in spectral norm.  tol = 0
    passes D through untouched, and an empty factor is returned as-is.
    ValueError unless 0 <= tol < 1: a cutoff of 1 or more would drop
    every direction.
    """
    _check_truncate_tol(tol)
    if tol == 0.0 or D.shape[1] == 0:
        return D
    Q, R = sla.qr(D, mode="economic")
    U, s, _ = sla.svd(R)
    keep = s > np.sqrt(tol) * s[0]
    return Q @ (U[:, keep] * s[keep])


def drive(problem: CareProblem, alpha: float | None, start, step,
          residual, ranks, tol: float, maxit: int, finish=None):
    """One doubling solve under the shared stopping rule.

    Takes the shift a = alpha, or choose_alpha(problem) when alpha is
    None, factors A - a I once (build_shifted) and takes the k = 0 state
    from start(operator); then state = step(state) for k = 1 ... maxit,
    stopping at the first state whose residual(state) is at most tol.
    Returns the last state and its SolveReport, which records a;
    ranks(state) is evaluated outside the timed sections.  A
    BreakdownError out of a step, or a residual that is not finite, leaves
    with the partial report attached and termination "breakdown".
    ValueError unless tol > 0 and maxit >= 1.

    finish, when given, is called as finish(state, res) on each iterate
    whose residual res is above tol.  It returns None to go on doubling,
    or (solution, its residual) with that residual at most tol, which
    ends the run: the solution is returned in place of the iterate, its
    row is added at the iterate's k and report.returned reads "galerkin".
    The time of an attempt that returns None counts towards the next
    step's row.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")
    t0 = perf_counter()
    a = choose_alpha(problem) if alpha is None else float(alpha)
    state = start(build_shifted(problem, a))
    report = SolveReport(alpha=a, termination="max-iterations")

    def record(k, res):
        report.residual_history.append((k, res))
        report.wall_times.append(perf_counter() - t0)
        report.rank_history.append((k, *ranks(state)))
        report.iterations = k

    try:
        for k in range(maxit + 1):
            if k:
                state = step(state)
            res = residual(state)
            if not np.isfinite(res):
                raise BreakdownError(
                    f"the residual is not finite at iteration {k}", k=k)
            record(k, res)
            if res <= tol:
                report.termination = "converged"
                break
            t0 = perf_counter()
            finished = None if finish is None else finish(state, res)
            if finished is not None:
                state, res = finished
                record(k, res)
                report.termination = "converged"
                report.returned = "galerkin"
                break
    except BreakdownError as exc:
        report.termination = "breakdown"
        exc.report = report
        raise
    return state, report


#: the Galerkin finish is tried at the first iterate whose residual lies
#: in (tol, _GALERKIN_WINDOW * tol]
_GALERKIN_WINDOW = 1e4
#: relative cutoff of the rank-revealing QR of the Galerkin basis
_BASIS_CUTOFF = 1e-13


def _galerkin_factor(problem: CareProblem, D, cutoff: float):
    """Cholesky factor of the Galerkin solution of the Riccati equation on
    the span of [C', D, A'D], or None when the small equation fails.

    D is a factor or a sequence of its column blocks.  The basis columns
    are scaled to unit length and orthonormalized by a column-pivoted QR
    that keeps the directions whose diagonal entry exceeds _BASIS_CUTOFF
    of the first, giving Q.  The projected equation with coefficients
    (Q'AQ, Q'B, CQ) is solved by scipy's solve_continuous_are; a
    LinAlgError, a LinAlgWarning, a floating-point error or a non-finite
    Y inside it makes the attempt fail, with no warning left behind.  The
    factor is Q V diag(w)^(1/2) over the eigenpairs (w, V) of Y with
    w > cutoff * max(w), a cutoff at rounding level when cutoff is 0.
    """
    blocks = (D,) if isinstance(D, np.ndarray) else tuple(D)
    A, B, C = problem.A, problem.B, problem.C
    if B.shape[1] == 0:
        B = np.zeros((problem.n, 1))    # the same equation, as scipy takes it
    basis = np.hstack([C.T, *blocks, *(A.T @ block for block in blocks)])
    norms = np.linalg.norm(basis, axis=0)
    basis = basis[:, norms > 0.0] / norms[norms > 0.0]
    Q, R, _ = sla.qr(basis, mode="economic", pivoting=True)
    diag = np.abs(np.diagonal(R))
    Q = Q[:, :np.count_nonzero(diag > _BASIS_CUTOFF * diag[0])]
    CQ = C @ Q
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            with np.errstate(over="raise", invalid="raise",
                             divide="raise"):
                Y = solve_continuous_are(Q.T @ (A @ Q), Q.T @ B,
                                         CQ.T @ CQ, np.eye(B.shape[1]))
    except (ValueError, FloatingPointError, np.linalg.LinAlgError,
            sla.LinAlgWarning):
        return None
    if not np.all(np.isfinite(Y)):
        return None
    w, V = sla.eigh(Y)
    if cutoff == 0.0:
        cutoff = len(w) * np.finfo(float).eps
    keep = w > cutoff * w[-1]
    return Q @ (V[:, keep] * np.sqrt(w[keep]))


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
        Relative eigenvalue cutoff for per-step factor recompression, in
        [0, 1).  0 (default) disables truncation and the factor widths
        double exactly each step.  It also cuts the eigenvalues of the
        Galerkin finish's small solution (rounding level when 0).

    Returns
    -------
    (LowRankSymmetric, SolveReport)
        The Cholesky factor F of the solution X = F F' and the run
        bookkeeping.  F is the last iterate's D, or, when the Galerkin
        finish (see the module docstring) passed tol, the factor of the
        Galerkin solution on that iterate's basis; report.returned says
        which ("iterate" or "galerkin").

    Raises
    ------
    ValueError
        unless tol > 0, maxit >= 1 and 0 <= truncate_tol < 1.
    ShiftSingularError
        if A - alpha I is singular or gives a start that is not finite
        (for the default shift: if no rung of the search is usable).
    BreakdownError
        if a step's cross-Gram matrix D'P or an operator apply turns
        non-finite, one of its two Cholesky factorizations fails or a
        residual overflows mid-run; the exception carries the partial
        report in .report.
    """
    _check_truncate_tol(truncate_tol)

    def truncated_step(state):
        state = radda_step(state)
        D = truncate_factors(_joined(state.D), truncate_tol)
        P = truncate_factors(_joined(state.P), truncate_tol)
        return replace(state, D=(D,), P=(P,), chol=None)

    qn = _qnorm_of(problem)
    tried = False

    def finish(state, res):
        # one attempt, at the first iterate inside the window, while the
        # basis [C', D, A'D] is narrow next to n
        nonlocal tried
        if tried or not res <= _GALERKIN_WINDOW * tol:
            return None
        tried = True
        if problem.p + 2 * state.rank_x > problem.n / 4:
            return None
        F = _galerkin_factor(problem, state.D, truncate_tol)
        if F is None:
            return None
        res_f = residual_lowrank(problem, F, qn)
        if not res_f <= tol:
            return None
        # the state drive returns, never stepped: its D is the Galerkin
        # factor, its ranks are the final row's
        return replace(state, D=(F,), chol=None), res_f

    state, report = drive(
        problem, alpha, init_lowrank,
        truncated_step if truncate_tol > 0.0 else radda_step,
        lambda s: residual_lowrank(problem, s.D, qn),
        lambda s: (s.rank_x, s.rank_y), tol, maxit, finish)
    D = state.D
    del state   # the operator and P go first, for the join to reuse
    return LowRankSymmetric(_joined(D)), report
