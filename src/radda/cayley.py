"""Shift selection for both doubling iterations, and the k = 0 operator of
the low-rank one.

Everything revolves around A_a = A - a I for a positive shift a: one LU of
A_a is reused for every block solve with A_a and A_a', and the inverses of
the two Schur-complement-like matrices

    U_a = A_a' + Q A_a^{-1} G,        V_a = A_a + G A_a^{-T} Q,

are applied through the Woodbury identity with p x m couplings, so the
large-scale path never forms an n x n inverse.

The default shift (choose_alpha) comes from a ladder of powers of two
around alpha0 = sqrt(||A||_1 ||A||_inf).  Ritz values of A and A^{-1}
from two short Arnoldi runs give each rung, before any is factored, the
Cayley contraction that A's own spectrum sets there (its floor); the
search starts where that floor is lowest and factors only the rungs whose
floor could still beat the best score so far.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .problems import CareProblem


class ShiftSingularError(RuntimeError):
    """A - a I is singular; retry with a different shift."""


#: base applies behind each rung's doubling-rate estimate
RATE_APPLIES = 8
#: Arnoldi steps of the probe on A, and again on A^{-1}
PROBE_STEPS = 6
#: bound on the rungs one search factors, and the ladder's extent: the
#: rungs are alpha0 2^-j for j = -MAX_RUNGS/2 ... MAX_RUNGS.  The lowest,
#: alpha0 / 1e6, is sqrt(lmin lmax), the best single shift, for
#: lmax / lmin up to about 1e12; the highest, 1024 alpha0, leaves room for
#: a B/C coupling that moves the Hamiltonian's spectrum far left of A's
MAX_RUNGS = 20


def _norm_shift(problem: CareProblem) -> float:
    """sqrt(||A||_1 ||A||_inf): scale-aware, cheap, positive for any
    nonzero A, and an upper bound on the spectral radius of A."""
    absA = abs(problem.A)
    n1 = float(np.asarray(absA.sum(axis=0)).max())
    ninf = float(np.asarray(absA.sum(axis=1)).max())
    # one power of two scales both norms: the product cannot overflow (they
    # are within a factor n), and a shift finite unscaled is bit-identical
    e = math.frexp(max(n1, ninf))[1]
    alpha = math.ldexp(
        math.sqrt(math.ldexp(n1, -e) * math.ldexp(ninf, -e)), e)
    if alpha <= 0.0:
        raise ValueError("A = 0 admits no positive default shift")
    return alpha


def choose_alpha(problem: CareProblem) -> float:
    """Default shift: the best rung of a ladder alpha0 2^-j, searched from
    the rung that A's spectrum favours.

    alpha0 = sqrt(||A||_1 ||A||_inf) bounds the spectral radius of A, and
    the rungs run from alpha0 2^(MAX_RUNGS/2) down to alpha0 2^-MAX_RUNGS.
    Before any rung is factored, a probe of PROBE_STEPS Arnoldi steps on A
    and as many on A^{-1} (Penzl's heuristic) estimates both ends of A's
    spectrum.  Its Ritz values, reflected into the left half-plane, give
    every rung a floor, the largest Cayley factor |(l + a)/(l - a)| over
    them: the contraction of that rung's base doubling operator when B and
    C couple weakly, at no factorization.  The search starts at the rung
    with the lowest floor and scores a rung by the larger of its floor and
    an estimate of the base operator's spectral radius, which sees the
    B/C coupling the floor misses, capped at 1.  It walks down, then up,
    and ends a direction at the first rung whose score does not improve on
    the best, or, before factoring it, whose floor alone does not.

    Each factored rung costs one factorization of A - alpha I, freed
    before the next rung is built, and RATE_APPLIES base applies of width
    m; the probe costs one LU of A, freed before the first rung.  At most
    MAX_RUNGS rungs are factored.  A rung that is singular or numerically
    unusable ends the walk in its direction; if it is the start rung, the
    next-lowest floor starts the walk instead.  Raises ShiftSingularError
    if no rung is usable, and ValueError for A = 0.
    """
    alpha0 = _norm_shift(problem)
    js = [j for j in range(-(MAX_RUNGS // 2), MAX_RUNGS + 1)
          if 0.0 < alpha0 * 2.0 ** -j < math.inf]
    floors = dict(zip(js, _rung_floors(
        _probe_ritz(problem, alpha0), [2.0 ** -j for j in js])))
    factored = 0
    unusable = set()

    def score(j):
        nonlocal factored
        factored += 1
        try:
            rate = _doubling_rate(problem, alpha0 * 2.0 ** -j)
        except (ShiftSingularError, ValueError):
            rate = math.nan
        if not math.isfinite(rate):
            unusable.add(j)
        # with a stabilizing solution, E_a's spectral radius is below 1 at
        # every shift: an estimate above 1 measures transient growth and
        # ranks no rung above another
        return min(max(rate, floors[j]), 1.0)

    for start in sorted(js, key=lambda j: (floors[j], abs(j)))[:MAX_RUNGS]:
        best = score(start)
        if start not in unusable:
            break
    else:
        raise ShiftSingularError("no shift of the search is usable")
    best_j = start
    for step in (1, -1):                # down the ladder, then up
        j = start + step
        while (j in floors and j not in unusable and factored < MAX_RUNGS
               and floors[j] < best):
            s = score(j)
            if not s < best:            # a NaN score ends the walk too
                break
            best_j, best = j, s
            j += step
    return alpha0 * 2.0 ** -best_j


def _probe_ritz(problem: CareProblem, alpha0: float) -> np.ndarray:
    """Ritz values of A / alpha0 from PROBE_STEPS Arnoldi steps on A and
    as many on A^{-1}, both started from B 1 + C' 1 (or from ones when
    that vanishes).  The A^{-1} half is left out if A is singular or its
    solves are not finite; its LU is freed on return."""
    A = problem.A
    v0 = problem.B.sum(axis=1) + problem.C.sum(axis=0)
    if not np.linalg.norm(v0) > 0.0:
        v0 = np.ones(problem.n)
    ritz = _arnoldi_ritz(lambda v: (A @ v) / alpha0, v0)
    try:
        solve = _factor(problem, 0.0)
    except ShiftSingularError:
        return ritz
    theta = _arnoldi_ritz(lambda v: alpha0 * solve(v), v0)
    theta = theta[np.abs(theta) > np.finfo(float).tiny]
    return np.concatenate([ritz, 1.0 / theta])


def _arnoldi_ritz(matvec, v: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hessenberg matrix of up to PROBE_STEPS Arnoldi
    steps from v, with Gram-Schmidt run twice per step.  A step whose
    image is not finite ends the run; an invariant subspace ends it with
    exact eigenvalues."""
    V = np.empty((PROBE_STEPS + 1, v.size))     # the basis, one per row
    H = np.zeros((PROBE_STEPS + 1, PROBE_STEPS))
    V[0] = v / np.linalg.norm(v)
    k = 0
    for j in range(PROBE_STEPS):
        w = np.asarray(matvec(V[j]), dtype=float).ravel()
        scale = np.linalg.norm(w)
        if not np.isfinite(scale):
            break
        for _ in range(2):
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            H[:j + 1, j] += h
        H[j + 1, j] = np.linalg.norm(w)
        k = j + 1
        if not H[j + 1, j] > 1e-12 * scale:
            break
        V[j + 1] = w / H[j + 1, j]
    return np.linalg.eigvals(H[:k, :k])


def _rung_floors(ritz: np.ndarray, shifts) -> list:
    """For each shift a, max |(l + a)/(l - a)| over the Ritz values l
    reflected into the closed left half-plane (0 for no Ritz values)."""
    lam = -np.abs(ritz.real) + 1j * ritz.imag
    return [float(np.abs((lam + a) / (lam - a)).max(initial=0.0))
            for a in shifts]


def _doubling_rate(problem: CareProblem, alpha: float) -> float:
    """Power-iteration estimate of the spectral radius of the base
    doubling operator E_a at shift a = alpha.

    From z = P / ||P||_F (op.P spans the range of A_a^{-1} B), RATE_APPLIES
    applies of E_a, renormalizing after each, give the geometric mean of
    the growth factors ||E_a z||_F.  The operator, and with it the
    factorization of A - alpha I, lives only as long as this call.
    """
    op = build_shifted(problem, alpha)
    z = op.P
    scale = float(np.linalg.norm(z))
    rate = 1.0
    for _ in range(RATE_APPLIES):
        if scale == 0.0:          # B = 0, or E_a annihilated z
            return 0.0
        z = op.apply(z / scale)
        scale = float(np.linalg.norm(z))
        rate *= scale ** (1.0 / RATE_APPLIES)
    return rate


def check_shift(alpha: float) -> None:
    """Raise ValueError unless alpha is a positive, finite shift."""
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"shift must be positive and finite, got {alpha}")


def build_shifted(problem: CareProblem, alpha: float) -> BaseDoublingOperator:
    """The k = 0 doubling operator at shift alpha.

    Factors A - alpha I once, one factorization serving both orientations
    (a band LU for narrow-band sparse A, SuperLU for other sparse A and an
    LAPACK LU for dense A; see _factor), then solves for the starting
    iterates' Cholesky factors D and P and the operator's two couplings.
    An exactly singular shifted matrix raises ShiftSingularError; a bad
    shift, or shifted solves that come out non-finite, raise ValueError.
    """
    check_shift(alpha)
    return BaseDoublingOperator(problem, alpha, _factor(problem, alpha))


def _factor(problem: CareProblem, alpha: float):
    """solve(Z, transposed=False) applying A_a^{-1} (or A_a^{-T}) to an
    n x t block, from one factorization of A_a = A - alpha I.  A_a itself
    is freed on return, before any solve runs.

    A sparse A_a whose LAPACK band storage is no larger than A's CSR
    arrays is factored by band LU; if that LU swapped no rows, its two
    triangular band factors serve every solve.  Any other sparse A_a goes
    to SuperLU, and a dense one to an LAPACK LU.
    """
    n = problem.n
    if sp.issparse(problem.A):
        band_solve = _band_factor(problem.A, alpha)
        if band_solve is not None:
            return band_solve
        Aa = (problem.A - alpha * sp.identity(n, format="csr")).tocsc()
        try:
            lu = spla.splu(Aa)
        except RuntimeError as exc:
            raise ShiftSingularError(
                f"A - {alpha} I is singular; pick a different shift") from exc

        def solve(Z, transposed=False):
            return lu.solve(np.asarray(Z, dtype=float),
                            trans="T" if transposed else "N")
        return solve

    Aa = problem.a_dense() - alpha * np.eye(n)
    with warnings.catch_warnings():
        # exact singularity is reported as an exception below, not a warning
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu_piv = sla.lu_factor(Aa, check_finite=True)
    if np.abs(np.diag(lu_piv[0])).min() == 0.0:
        raise ShiftSingularError(
            f"A - {alpha} I is singular; pick a different shift")

    def solve(Z, transposed=False):
        return sla.lu_solve(lu_piv, np.asarray(Z, dtype=float),
                            trans=int(transposed))
    return solve


def _band_factor(A, alpha: float):
    """Band-LU solve closure for the sparse A - alpha I, or None when its
    band storage would outgrow A's CSR arrays or the LU pivoted.

    With no row swaps, dgbtrf's output holds U (upper bandwidth ku) in
    rows kl..kl+ku and the unit-diagonal L (lower bandwidth kl) in rows
    kl+ku..2kl+ku; each solve is two dtbsv sweeps per column.
    """
    csr = A.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    n = csr.shape[0]
    offsets = np.repeat(np.arange(n), np.diff(csr.indptr))
    offsets -= csr.indices
    kl = int(offsets.max(initial=0))
    ku = int(-offsets.min(initial=0))
    csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    if 8 * (2 * kl + ku + 1) * n > csr_bytes:
        return None

    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl + ku + offsets, csr.indices] = csr.data
    ab[kl + ku] -= alpha
    del offsets
    lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise ShiftSingularError(
            f"A - {alpha} I is singular; pick a different shift")
    if not np.array_equal(piv, np.arange(n)):
        return None
    U = np.asfortranarray(lu[kl:kl + ku + 1])
    L = np.asfortranarray(lu[kl + ku:])

    def solve(Z, transposed=False):
        X = np.array(Z, dtype=float, order="F")
        x = X.reshape(-1, order="F")
        for off in range(0, x.size, n):
            if transposed:
                blas.dtbsv(ku, U, x, offx=off, trans=1, overwrite_x=1)
                blas.dtbsv(kl, L, x, offx=off, lower=1, trans=1, diag=1,
                           overwrite_x=1)
            else:
                blas.dtbsv(kl, L, x, offx=off, lower=1, diag=1,
                           overwrite_x=1)
                blas.dtbsv(ku, U, x, offx=off, overwrite_x=1)
        return X
    return solve


def _times_inv_lt(Z: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Z L^{-T} by L's explicit inverse: faster than a solve on a tall Z."""
    return Z @ sla.solve_triangular(L, np.eye(len(L)), lower=True).T


class BaseDoublingOperator:
    """The k = 0 doubling operator I + 2a V_a^{-1} at one shift a,
    matrix-free, with the Cholesky factors of the starting iterates.

    From D0 = A_a^{-T} C' (n x p), P0 = A_a^{-1} B (n x m) and
    W0 = D0'B = C A_a^{-1} B (p x m), the attributes D and P beside alpha
    are

        D = sqrt(2a) D0 L^{-T},    L L' = I + W0 W0',
        P = sqrt(2a) P0 M^{-T},    M M' = I + W0' W0,

    so X0 = 2a D0 (I + W0 W0')^{-1} D0' = D D' and
    Y0 = 2a P0 (I + W0'W0)^{-1} P0' = P P'.  By the Woodbury identity

        apply(Z)   = Z + 2a u - P (K_p (C u)),     u = A_a^{-1} Z,
        apply_t(Z) = Z + 2a v - D (K_d (B'v)),     v = A_a^{-T} Z,

    with K_p = sqrt(2a) M^{-1} W0' and K_d = sqrt(2a) L^{-1} W0: one
    shifted solve plus thin corrections per apply.  Built by build_shifted.
    """

    def __init__(self, problem: CareProblem, alpha: float, solve):
        D0 = solve(problem.C.T, transposed=True)
        P0 = solve(problem.B)
        if not (np.all(np.isfinite(D0)) and np.all(np.isfinite(P0))):
            raise ValueError("shifted solves produced non-finite values; "
                             "the shift is numerically unusable")
        W0 = D0.T @ problem.B
        # an overflowed W0 W0' is non-finite and raises ValueError here
        L = sla.cholesky(np.eye(problem.p) + W0 @ W0.T, lower=True)
        M = sla.cholesky(np.eye(problem.m) + W0.T @ W0, lower=True)
        scale = np.sqrt(2.0 * alpha)
        self.alpha = float(alpha)
        self.D = scale * _times_inv_lt(D0, L)
        self.P = scale * _times_inv_lt(P0, M)
        self._K_d = scale * sla.solve_triangular(L, W0, lower=True)
        self._K_p = scale * sla.solve_triangular(M, W0.T, lower=True)
        self._C = problem.C
        self._B = problem.B
        self._solve = solve
        self._two_alpha = 2.0 * self.alpha

    def apply(self, Z: np.ndarray) -> np.ndarray:
        u = self._solve(Z)
        return Z + self._two_alpha * u - self.P @ (self._K_p @ (self._C @ u))

    def apply_t(self, Z: np.ndarray) -> np.ndarray:
        v = self._solve(Z, transposed=True)
        return Z + self._two_alpha * v - self.D @ (self._K_d @ (self._B.T @ v))
