"""Output checks, independent of the solver's own stopping test.

The low-rank residual is re-derived with a seeded Lanczos estimate at large
n, or from the reconstructed dense X at small n; dense instances are also
compared with the Hamiltonian eigen-oracle and the dense doubling baseline.
Each check returns the list of its failures as messages (empty: passed).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import radda

#: relative Frobenius agreement required between solutions of one instance
AGREEMENT_TOL = 1e-8


def lanczos_residual(problem: radda.CareProblem, F: np.ndarray,
                     S: np.ndarray, rng: np.random.Generator) -> float:
    """Matrix-free estimate of ||A'X + XA - XBB'X + C'C||_2 / ||C'C||_2 for
    X = F S F', by Lanczos from a seeded start vector.

    X is first rewritten as Q K Q' with orthonormal Q (thin QR of F), so
    the rounding error of each product stays at the scale of ||X||, not of
    ||F||^2 ||S||; the estimate's own floor is then about 1e-13 at n = 3e5.
    """
    A, B, C = problem.A, problem.B, problem.C
    Q, R = sla.qr(F, mode="economic")
    K = R @ S @ R.T
    K = (K + K.T) / 2.0
    QB = Q.T @ B

    def matvec(v):
        v = np.ravel(v)
        u = K @ (Q.T @ v)
        w = K @ (Q.T @ (A @ v)) - K @ (QB @ (QB.T @ u))
        return A.T @ (Q @ u) + Q @ w + C.T @ (C @ v)

    n = problem.n
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    lam = spla.eigsh(op, k=1, which="LM", tol=1e-6, v0=rng.standard_normal(n),
                     return_eigenvectors=False)
    return float(abs(lam[0]) / np.linalg.norm(C, 2) ** 2)


def _relative_gap(X: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(X - ref) / np.linalg.norm(ref))


def check_lowrank(workload, problem: radda.CareProblem, x, report,
                  rng: np.random.Generator, references=None) -> list:
    """Check one radda_solve output.  references, on dense instances, maps
    a label to a dense solution X must agree with to AGREEMENT_TOL."""
    failed = []
    if report.termination != "converged":
        failed.append(f"termination {report.termination}")
    if workload.kind == "example2":
        res = lanczos_residual(problem, x.F, x.S, rng)
    else:
        X = x.reconstruct()
        res = radda.residual_dense(problem, X)
        for label, ref in (references or {}).items():
            gap = _relative_gap(X, ref)
            if not gap <= AGREEMENT_TOL:
                failed.append(f"low-rank vs {label}: {gap:.3e}")
    if not res <= workload.tol:
        failed.append(f"independent residual {res:.3e} > tol {workload.tol}")
    return failed


def check_dense(workload, problem: radda.CareProblem, X: np.ndarray, report,
                oracle: np.ndarray) -> list:
    """Check one adda_solve_dense output against the tolerance and the
    eigen-oracle."""
    failed = []
    if report.termination != "converged":
        failed.append(f"dense termination {report.termination}")
    res = radda.residual_dense(problem, X)
    if not res <= workload.tol:
        failed.append(f"dense residual {res:.3e} > tol {workload.tol}")
    gap = _relative_gap(X, oracle)
    if not gap <= AGREEMENT_TOL:
        failed.append(f"dense vs oracle: {gap:.3e}")
    return failed
