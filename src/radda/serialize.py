"""JSON round-trip for problems.

Floats go through Python's repr, the shortest decimal that reproduces the
binary64 value exactly, so save -> load is bit-faithful.  Sparse A is
stored as (offset, band) pairs ("banded") while its d distinct diagonals
hold no more than 2 nnz entries (d n <= 2 nnz), and otherwise as the
data, indices and indptr arrays of its canonical CSR form ("csr"), so a
file stays O(nnz + n); dense A as nested row lists.  B is stored flat in
column-major order, C flat in row-major order.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from .problems import CareProblem


def _matrix_to_dict(M) -> dict:
    if sp.issparse(M):
        coo = M.tocoo(copy=True)
        coo.sum_duplicates()
        offsets = np.unique(coo.col - coo.row).tolist()
        if len(offsets) * M.shape[0] <= 2 * coo.nnz:
            return {
                "kind": "banded",
                "offsets": offsets,
                "bands": [np.asarray(M.diagonal(k), dtype=float).tolist()
                          for k in offsets],
            }
        csr = coo.tocsr()
        return {
            "kind": "csr",
            "data": np.asarray(csr.data, dtype=float).tolist(),
            "indices": csr.indices.tolist(),
            "indptr": csr.indptr.tolist(),
        }
    return {"kind": "dense", "entries": np.asarray(M, dtype=float).tolist()}


def _matrix_from_dict(doc: dict, n: int):
    kind = doc.get("kind")
    if kind == "banded":
        offsets = [int(k) for k in doc["offsets"]]
        bands = [np.asarray(b, dtype=float) for b in doc["bands"]]
        if len(offsets) != len(bands):
            raise ValueError("offsets and bands lists differ in length")
        if not offsets:
            return sp.csr_matrix((n, n))
        for k, b in zip(offsets, bands):
            if abs(k) >= n or b.shape != (n - abs(k),):
                raise ValueError(f"band at offset {k} has length {b.size}, "
                                 f"expected {n - abs(k)}")
        return sp.diags(bands, offsets=offsets, shape=(n, n), format="csr")
    if kind == "csr":
        data = np.asarray(doc["data"], dtype=float)
        indices = np.asarray(doc["indices"], dtype=np.int64)
        indptr = np.asarray(doc["indptr"], dtype=np.int64)
        if data.ndim != 1 or indices.shape != data.shape:
            raise ValueError("csr data and indices differ in length")
        if (indptr.shape != (n + 1,) or indptr[0] != 0
                or indptr[-1] != data.size):
            raise ValueError(f"csr indptr must hold {n + 1} offsets "
                             f"from 0 to {data.size}")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("csr indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"csr column index outside [0, {n})")
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))
    if kind == "dense":
        A = np.asarray(doc["entries"], dtype=float)
        if A.shape != (n, n):
            raise ValueError(f"dense matrix has shape {A.shape}, "
                             f"expected {(n, n)}")
        return A
    raise ValueError(f"unknown matrix kind {kind!r}")


def problem_to_dict(problem: CareProblem) -> dict:
    """Plain-dict form of a problem, suitable for json.dump."""
    return {
        "n": problem.n,
        "m": problem.m,
        "p": problem.p,
        "A": _matrix_to_dict(problem.A),
        "B": problem.B.flatten(order="F").tolist(),
        "C": problem.C.flatten(order="C").tolist(),
    }


def problem_from_dict(doc: dict) -> CareProblem:
    """Inverse of problem_to_dict, with shape validation."""
    n, m, p = int(doc["n"]), int(doc["m"]), int(doc["p"])
    if n < 1 or m < 0 or p < 0:
        raise ValueError(f"n must be positive and m, p non-negative, "
                         f"got n={n} m={m} p={p}")
    A = _matrix_from_dict(doc["A"], n)
    B = np.asarray(doc["B"], dtype=float)
    C = np.asarray(doc["C"], dtype=float)
    if B.size != n * m:
        raise ValueError(f"B has {B.size} entries, expected {n * m}")
    if C.size != p * n:
        raise ValueError(f"C has {C.size} entries, expected {p * n}")
    return CareProblem(A, B.reshape((n, m), order="F"),
                       C.reshape((p, n), order="C"))


def save_problem(path, problem: CareProblem) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh)
        fh.write("\n")


def load_problem(path) -> CareProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))

