"""The low-rank doubling engine.

The doubling operator is never formed: it lives as a base operator (one
shifted solve plus thin corrections) and a chain of rank-p_j updates, one
per completed step.  The solution iterates live in Cholesky form
X_k = D_k D_k', Y_k = P_k P_k': each step appends one block to each
factor, so the widths double, and the only small-scale algebra is the
Cholesky factorization of a p_k x p_k and an m_k x m_k Gram matrix.

The n-scale work of a step is the chain applied to the factors.  A step
reuses the blocks the previous step appended, so it costs two
depth-(k-1) applies of half width per side, 2 (p + m) 4^(k-1) base
columns; K doublings from the start then cost (p + m)(1 + (4^K - 4)/6)
columns in all.  The step has no other path: the doubling never cuts its
factors, and truncate_tol cuts only the factor a solve returns.

The n-scale memory is the factors themselves.  A state is its base
operator and chain alone, each chain correction the two blocks its step
appended and a small coupling, and D and P are read off the pair as
tuples of those blocks: past the shifted LU a state holds only blocks of
D and P, never copied.  The factored residual streams the rows of its
basis through a QR, so it holds one row block of that basis beside A'D.

drive is the one run path of both engines and of the CLI's compare: it
picks the shift, builds the k = 0 operator and doubles under the shared
stopping rule.

radda_solve adds a Galerkin finish.  The blocks the doubling appended
to D span a rational Krylov space with its pole repeated at the
shift that holds range(D_k), and the Galerkin solution of the Riccati
equation projected on [C', V, A'V], V those blocks (the projection step
of RKSM and of extended block Arnoldi), often meets tol a doubling or
more before the iterate does.  It is tried at each iterate with
residual at most 1e4 tol, and at one with residual at most 1e6 tol when
the quadratic model res_k^3 / res_(k-1)^2 says the next iterate still
misses tol, so that a pass saves at least two doublings; always only
while the iterate cut at truncate_tol has p + 2r <= n/4 basis columns.
Its factor is returned in place of the iterate when it stabilizes the
projected closed loop and its own factored residual is at most tol;
otherwise the doubling goes on.  On the 32 x 32 convection-diffusion
grid (tol 1e-10, truncation 1e-13) it passes at k = 5, where the iterate
alone needs k = 7, at a residual of about 1e-12 and rank 21, and the
solve takes about 0.04 s (one BLAS thread).  The paper's second family at n = 3e5
(k = 2 residual 2.2e-7, model 4.6e-14) and dense n = 256 instances (132
basis columns at k = 4) make no attempt.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.linalg as sla
from scipy.linalg import solve_continuous_are

from .cayley import BaseDoublingOperator, _times_inv_lt, build_shifted, \
    choose_alpha
from .problems import BreakdownError, CareProblem, FinishAttempt, \
    LowRankSymmetric, SolveReport, qnorm as _qnorm_of, relative_residual, \
    spectral_norm_sym

_log = logging.getLogger("radda")


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
    if not chain:
        return base.apply_t(Z) if transposed else base.apply(Z)
    F, K, V = chain[-1]
    prev = chain[:-1]
    inner = apply_ahat(base, prev, apply_ahat(base, prev, Z, transposed),
                       transposed)
    if transposed:
        return inner + V @ (K.T @ (F.T @ Z))
    return inner + F @ (K @ (V.T @ Z))


@dataclass(frozen=True)
class RaddaState:
    """One factored iterate X_k = D D', Y_k = P P' and its depth-k
    doubling operator, held as the base operator and chain alone.

    chain is the tuple of k = len(chain) thin corrections (F_j, K_j, V_j)
    that apply_ahat reads after the base; a step appends one and never
    rebuilds the base.  F_j and V_j are the blocks step j appended to P
    and D, so the factors are read off the pair, D = (base.D, V_1, ...,
    V_k) and P = (base.P, F_1, ..., F_k): tuples of n-row column blocks
    whose concatenations are the Cholesky factors, never written after
    they are built.
    """

    base: BaseDoublingOperator
    chain: tuple

    @property
    def D(self) -> tuple:
        return (self.base.D, *(V for _, _, V in self.chain))

    @property
    def P(self) -> tuple:
        return (self.base.P, *(F for F, _, _ in self.chain))

    @property
    def k(self) -> int:
        return len(self.chain)

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
    state is op with an empty chain and does no work of its own.
    """
    return RaddaState(op, ())


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


def _gram_factors(W: np.ndarray) -> tuple:
    """The lower Cholesky factors of I + W W' and I + W'W.  A product that
    overflows leaves a non-finite Gram matrix, which the factorization
    rejects with ValueError, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram_x = np.eye(len(W)) + W @ W.T
        gram_y = np.eye(W.shape[1]) + W.T @ W
    return (sla.cholesky(gram_x, lower=True),
            sla.cholesky(gram_y, lower=True))


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

    At k = 0 the applies are the base operator's.  At k >= 1 the factors
    end in the last correction's own blocks, (F, K_k, V) = chain[-1] with
    F = P[-1] and V = D[-1], so W's leading block is the last step's D'P
    bit for bit, its Cholesky factors (M_x, M_y) are that step's (L_x, L_y),
    and with prev = ahat_{k-1},

        ahat' D = [S M_x', prev' S] + V K_k' (D'F)',      S = prev' V,
        ahat P  = [T M_y', prev T]  + F K_k (V'P),        T = prev F,

    so each side takes two depth-(k-1) applies of half width in place of
    one depth-k apply, and D'F and V'P are W's last column and row blocks.
    """
    D, P, base, chain = state.D, state.P, state.base, state.chain
    k = state.k
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.block([[d.T @ f for f in P] for d in D])
    if not np.all(np.isfinite(W)):
        raise BreakdownError(f"D'P is non-finite at iteration {k}", k=k)
    try:
        L_x, L_y = _gram_factors(W)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise BreakdownError(
            f"no Cholesky factor of a Gram matrix at iteration {k}: {exc}",
            k=k) from exc

    # N_x, N_y hold ahat'D, ahat P until scaled: one copy of each block.
    # An overflowing apply is named below as a breakdown, so the inf it
    # feeds to the rest of the chain raises no warning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        if not chain:
            N_x = apply_ahat(base, chain, base.D, transposed=True)
            N_y = apply_ahat(base, chain, base.P)
        else:
            F, K_k, V = chain[-1]
            # explicit offsets: a zero-width block gives an empty slice
            row, col = W.shape[0] - V.shape[1], W.shape[1] - F.shape[1]
            M_x, M_y = _gram_factors(W[:row, :col])
            prev = chain[:-1]
            N_x = _first_two_powers(base, prev, V, M_x, transposed=True)
            N_x += V @ (K_k.T @ W[:, col:].T)
            N_y = _first_two_powers(base, prev, F, M_y, transposed=False)
            N_y += F @ (K_k @ W[row:])
    if not (np.all(np.isfinite(N_x)) and np.all(np.isfinite(N_y))):
        raise BreakdownError(
            f"an operator apply is non-finite at iteration {k}", k=k)
    N_x = _times_inv_lt(N_x, L_x)
    N_y = _times_inv_lt(N_y, L_y)
    K = sla.solve_triangular(L_y, W.T @ L_x, lower=True)
    return RaddaState(base, chain + ((N_y, np.negative(K, out=K), N_x),))


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

    finish, when given, is called as finish(state, report) on each
    iterate whose residual, the last of report.residual_history, is
    above tol.  It returns None to go on doubling, or the residual, at
    most tol, of a solution it keeps for the caller, which ends the run
    converged: that residual gets one more row at the iterate's k, with
    the iterate's ranks, and the iterate is returned.  The time of an
    attempt that returns None counts towards the next step's row.
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
            res = None if finish is None else finish(state, report)
            if res is not None:
                record(k, res)
                report.termination = "converged"
                break
    except BreakdownError as exc:
        report.termination = "breakdown"
        exc.report = report
        raise
    return state, report


#: the Galerkin finish is tried at each iterate whose residual is at most
#: _GALERKIN_WINDOW * tol, and at one up to _GALERKIN_REACH * tol whose
#: next iterate the quadratic model res_k^3 / res_(k-1)^2 puts above tol
_GALERKIN_WINDOW = 1e4
_GALERKIN_REACH = 1e6
#: relative cutoff of the rank-revealing QR of the Galerkin basis
_BASIS_CUTOFF = 1e-13


def _galerkin_factor(problem: CareProblem, blocks: tuple, cutoff: float):
    """Cholesky factor of the Galerkin solution of the Riccati equation on
    the span of [C', V, A'V], with the number of basis columns kept; the
    factor is None when the small equation fails.

    blocks are the iterate's own D: the base block and the block each
    step appended.  The basis columns are scaled to unit length and
    orthonormalized by a column-pivoted QR that keeps the directions
    whose diagonal entry exceeds _BASIS_CUTOFF of the first, giving Q.
    The projected equation with coefficients (Q'AQ, Q'B, CQ) is solved by
    scipy's solve_continuous_are; a LinAlgError, a LinAlgWarning, a
    floating-point error or a non-finite Y inside it makes the attempt
    fail, with no warning left behind, and so does a Y that does not
    stabilize the projected closed loop Q'AQ - (Q'B)(Q'B)'Y, checked from
    its eigenvalues.  The factor is Q V diag(w)^(1/2) over the eigenpairs
    (w, V) of Y with w > cutoff * max(w), a cutoff at rounding level when
    cutoff is 0.
    """
    A, B, C = problem.A, problem.B, problem.C
    if B.shape[1] == 0:
        B = np.zeros((problem.n, 1))    # the same equation, as scipy takes it
    # one column-major basis, scaled and factored in place
    columns = [C.T, *blocks, *(A.T @ block for block in blocks)]
    basis = np.empty((problem.n, sum(c.shape[1] for c in columns)),
                     order="F")
    np.concatenate(columns, axis=1, out=basis)
    del columns
    norms = np.linalg.norm(basis, axis=0)
    if not np.all(norms > 0.0):
        basis, norms = basis[:, norms > 0.0], norms[norms > 0.0]
    basis /= norms
    Q, R, _ = sla.qr(basis, mode="economic", pivoting=True,
                     overwrite_a=True)
    del basis
    diag = np.abs(np.diagonal(R))
    Q = Q[:, :np.count_nonzero(diag > _BASIS_CUTOFF * diag[0])]
    AQ, BQ, CQ = Q.T @ (A @ Q), Q.T @ B, C @ Q
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            with np.errstate(over="raise", invalid="raise",
                             divide="raise"):
                Y = solve_continuous_are(AQ, BQ, CQ.T @ CQ,
                                         np.eye(B.shape[1]))
                stable = np.all(np.isfinite(Y)) and np.all(
                    sla.eigvals(AQ - BQ @ (BQ.T @ Y)).real < 0.0)
    except (ValueError, FloatingPointError, np.linalg.LinAlgError,
            sla.LinAlgWarning):
        stable = False
    if not stable:
        return None, Q.shape[1]
    w, V = sla.eigh(Y)
    if cutoff == 0.0:
        cutoff = len(w) * np.finfo(float).eps
    keep = w > cutoff * w[-1]
    return Q @ (V[:, keep] * np.sqrt(w[keep])), Q.shape[1]


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
        Relative eigenvalue cutoff, in [0, 1), of the returned factor
        (0, the default, cuts nothing); the doubling itself never cuts.
        A converged iterate is cut once by truncate_factors, and the cut
        is returned, its residual and width in the last history rows,
        when it drops a column and its own residual is at most tol.  A
        Galerkin finish cuts its small solution's eigenvalues at
        truncate_tol (rounding level when 0), and the finish's n/4 guard
        reads the cut iterate's width.

    Returns
    -------
    (LowRankSymmetric, SolveReport)
        The Cholesky factor F of the solution X = F F' and the run
        bookkeeping.  F is the last iterate's D, or its cut (see
        truncate_tol), or, when a Galerkin finish (see the module
        docstring) passed tol, the factor of the Galerkin solution on the
        blocks the doubling appended up to that iterate; report.returned
        says which ("iterate" or "galerkin"), the last rank_history row
        holds F's width, and report.attempts lists every attempt.  Each
        attempt also writes one debug line to the "radda" logger.

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
    qn = _qnorm_of(problem)
    galerkin = None   # the factor of the finish that passed tol

    def finish(state, report):
        nonlocal galerkin
        # attempt at a residual near tol, or at one from which the
        # quadratic model sees the next doubling still miss it, while
        # p + 2r <= n/4 for the width r of the iterate's cut factor; the
        # basis [C', D, A'D] itself is built on the uncut blocks
        history = report.residual_history
        res = history[-1][1]
        if not (res <= _GALERKIN_WINDOW * tol or (
                res <= _GALERKIN_REACH * tol and len(history) > 1
                and res * (res / history[-2][1]) ** 2 > tol)):
            return None
        # the join copies D, so only when there is a cut to measure
        width = state.rank_x if truncate_tol == 0.0 else \
            truncate_factors(_joined(state.D), truncate_tol).shape[1]
        if problem.p + 2 * width > problem.n / 4:
            return None
        t0 = perf_counter()
        F, columns = _galerkin_factor(problem, state.D, truncate_tol)
        res_f = None if F is None else residual_lowrank(problem, F, qn)
        attempt = FinishAttempt(k=state.k, columns=columns,
                                residual=res_f,
                                seconds=perf_counter() - t0)
        report.attempts.append(attempt)
        _log.debug("galerkin attempt at k = %d: %d basis columns, "
                   "residual %s, %.3g s", attempt.k, attempt.columns,
                   "failed" if res_f is None else f"{res_f:.3e}",
                   attempt.seconds)
        if res_f is None or not res_f <= tol:
            return None
        galerkin, report.returned = F, "galerkin"
        return res_f

    state, report = drive(
        problem, alpha, init_lowrank, radda_step,
        lambda s: residual_lowrank(problem, s.D, qn),
        lambda s: (s.rank_x, s.rank_y), tol, maxit, finish)
    D = state.D
    del state   # the operator and P go first, for the join to reuse
    F = _joined(D) if galerkin is None else galerkin
    if (truncate_tol > 0.0 and report.termination == "converged"
            and report.returned == "iterate"):
        # one cut of the converged iterate, kept if it still meets tol
        cut = truncate_factors(F, truncate_tol)
        if cut.shape[1] < F.shape[1]:
            res = residual_lowrank(problem, cut, qn)
            if res <= tol:
                report.residual_history[-1] = (report.iterations, res)
                F = cut
    # the last row holds the width of the factor returned
    k, _, rank_y = report.rank_history[-1]
    report.rank_history[-1] = (k, F.shape[1], rank_y)
    return LowRankSymmetric(F), report
