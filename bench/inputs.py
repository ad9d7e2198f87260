"""Seeded generators for the file-fed workloads.

The program sees these inputs only as problem files written with the
package's own save_problem.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

import radda


def make_fdm2d(N: int, rng: np.random.Generator,
               conv: float = 10.0) -> radda.CareProblem:
    """2D convection-diffusion on an N x N interior grid of the unit square.

    A = (I(x)T + T(x)I)/h^2 - conv diag(x)(I(x)D) - conv diag(y)(D(x)I),
    h = 1/(N+1), T = tridiag(1, -2, 1), D = tridiag(-1, 0, 1)/(2h);
    B (n x 1) and C (1 x n) are standard normal.
    """
    h = 1.0 / (N + 1)
    eye = sp.identity(N, format="csr")
    T = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(N, N))
    D = sp.diags([-1.0, 0.0, 1.0], [-1, 0, 1], shape=(N, N)) / (2.0 * h)
    grid = h * np.arange(1, N + 1)
    x = np.tile(grid, N)
    y = np.repeat(grid, N)
    A = ((sp.kron(eye, T) + sp.kron(T, eye)) / h ** 2
         - conv * sp.diags(x) @ sp.kron(eye, D)
         - conv * sp.diags(y) @ sp.kron(D, eye))
    n = N * N
    return radda.CareProblem(A.tocsr(), rng.standard_normal((n, 1)),
                             rng.standard_normal((1, n)))


def make_dense(n: int, rng: np.random.Generator) -> radda.CareProblem:
    """Dense stable A = M - (max |Re lambda(M)| + 1) I with
    M = N(n x n)/sqrt(n); B = 0.3 N(n x 4), C = 0.3 N(4 x n)."""
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    A = M - (np.abs(np.linalg.eigvals(M).real).max() + 1.0) * np.eye(n)
    return radda.CareProblem(A, 0.3 * rng.standard_normal((n, 4)),
                             0.3 * rng.standard_normal((4, n)))


def write_problem_files(workload, seed: int, workdir) -> list:
    """Write the seeded instances of a file-fed workload; return the paths."""
    make = make_fdm2d if workload.kind == "fdm2d" else make_dense
    paths = []
    for i, child in enumerate(
            np.random.SeedSequence(seed).spawn(workload.instances)):
        path = workdir / f"instance-{i}.json"
        radda.save_problem(path, make(workload.size,
                                      np.random.default_rng(child)))
        paths.append(path)
    return paths
