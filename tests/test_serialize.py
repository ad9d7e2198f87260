"""JSON round-trips must be exact: repr floats reproduce binary64 bit for bit."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_stable_problem
from radda import CareProblem, LowRankSymmetric, make_example2
from radda.serialize import (load_problem, load_solution, problem_from_dict,
                             problem_to_dict, save_problem, save_solution,
                             solution_from_dict, solution_to_dict)


def awkward_problem():
    """Entries chosen to break any non-shortest float formatting."""
    rng = np.random.default_rng(99)
    A = sp.diags([rng.uniform(-1, 1, 5), [-2.1, -1 / 3, -0.1, np.pi, -1e-300,
                                          -7.25]],
                 offsets=[-1, 0], shape=(6, 6), format="csr")
    B = rng.standard_normal((6, 2)) * 1e-7
    C = rng.standard_normal((3, 6)) * 1e5
    return CareProblem(A, B, C)


def assert_problems_equal(a, b):
    assert (a.n, a.m, a.p) == (b.n, b.m, b.p)
    assert a.is_sparse == b.is_sparse
    np.testing.assert_array_equal(a.a_dense(), b.a_dense())
    np.testing.assert_array_equal(a.B, b.B)
    np.testing.assert_array_equal(a.C, b.C)


def test_banded_round_trip_is_exact():
    p = awkward_problem()
    doc = json.loads(json.dumps(problem_to_dict(p)))
    assert doc["A"]["kind"] == "banded"
    assert_problems_equal(p, problem_from_dict(doc))


def test_dense_round_trip_is_exact():
    rng = np.random.default_rng(1)
    p = CareProblem(rng.standard_normal((5, 5)), rng.standard_normal((5, 2)),
                    rng.standard_normal((1, 5)))
    doc = json.loads(json.dumps(problem_to_dict(p)))
    assert doc["A"]["kind"] == "dense"
    assert_problems_equal(p, problem_from_dict(doc))


def test_file_round_trip(tmp_path):
    p = make_example2(9)
    path = tmp_path / "problem.json"
    save_problem(path, p)
    assert_problems_equal(p, load_problem(path))


def test_b_and_c_orientation_survives():
    # non-square thin blocks catch any row/column-major mixup
    rng = np.random.default_rng(8)
    p = CareProblem(-np.eye(4), rng.standard_normal((4, 3)),
                    rng.standard_normal((2, 4)))
    q = problem_from_dict(problem_to_dict(p))
    np.testing.assert_array_equal(p.B, q.B)
    np.testing.assert_array_equal(p.C, q.C)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(n=0), "positive"),
    (lambda d: d["A"].update(kind="mystery"), "kind"),
    (lambda d: d.update(B=[1.0, 2.0]), "entries"),
    (lambda d: d["A"]["bands"].__setitem__(0, [1.0]), "band"),
])
def test_bad_documents_are_rejected(mutate, message):
    doc = problem_to_dict(make_example2(5))
    mutate(doc)
    with pytest.raises(ValueError, match=message):
        problem_from_dict(doc)


def test_band_offset_out_of_range_rejected():
    doc = problem_to_dict(make_example2(5))
    doc["A"]["offsets"][0] = -9
    with pytest.raises(ValueError):
        problem_from_dict(doc)


def test_solution_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    F = rng.standard_normal((8, 3))
    S = rng.standard_normal((3, 3))
    x = LowRankSymmetric(F, (S + S.T) / 2)
    path = tmp_path / "solution.json"
    save_solution(path, x)
    y = load_solution(path)
    np.testing.assert_array_equal(x.F, y.F)
    np.testing.assert_array_equal(x.S, y.S)
    doc = solution_to_dict(x)
    assert doc["rank"] == 3
    z = solution_from_dict(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(x.F, z.F)


@pytest.mark.parametrize("identity", [True, False])
def test_solution_core_round_trip(identity):
    rng = np.random.default_rng(22)
    F = rng.standard_normal((6, 4))
    S = np.eye(4) if identity else np.diag([1.0, 2.0, 3.0, 4.0])
    doc = json.loads(json.dumps(solution_to_dict(LowRankSymmetric(F, S))))
    if identity:
        assert doc["core"] == {"kind": "identity"}
    else:
        assert doc["core"]["kind"] == "dense"
    y = solution_from_dict(doc)
    np.testing.assert_array_equal(y.F, F)
    np.testing.assert_array_equal(y.S, S)


def test_dense_identity_core_still_loads():
    # files written before identity cores had their own kind
    F = np.arange(6.0).reshape(3, 2)
    doc = {"n": 3, "rank": 2,
           "factor": {"kind": "dense", "entries": F.tolist()},
           "core": {"kind": "dense", "entries": np.eye(2).tolist()}}
    y = solution_from_dict(doc)
    np.testing.assert_array_equal(y.F, F)
    np.testing.assert_array_equal(y.S, np.eye(2))


def test_random_problem_round_trip_sweep():
    rng = np.random.default_rng(4)
    for n, mp in ((4, 1), (11, 2), (23, 3)):
        p = random_stable_problem(rng, n, mp=mp)
        assert_problems_equal(p, problem_from_dict(problem_to_dict(p)))


def scattered_problem(n=4000, nnz=12_000):
    """Sparse A with entries scattered over thousands of diagonals."""
    rng = np.random.default_rng(5)
    A = sp.coo_matrix((rng.standard_normal(nnz),
                       (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
                      shape=(n, n)).tocsr() - 10.0 * sp.identity(n)
    return CareProblem(A.tocsr(), rng.standard_normal((n, 1)),
                       rng.standard_normal((1, n)))


def test_scattered_sparse_round_trip_is_exact_and_o_nnz(tmp_path):
    p = scattered_problem()
    path = tmp_path / "problem.json"
    save_problem(path, p)
    with open(path) as fh:
        assert json.load(fh)["A"]["kind"] == "csr"
    # at most ~25 characters per stored float and index, not one per
    # entry of every touched diagonal (thousands of times n)
    assert path.stat().st_size < 64 * (p.A.nnz + p.n)
    q = load_problem(path)
    a, b = p.A.tocsr(), q.A.tocsr()
    a.sum_duplicates()
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(p.B, q.B)
    np.testing.assert_array_equal(p.C, q.C)


def test_banded_while_diagonals_hold_half_the_entries():
    # d n <= 2 nnz writes bands: one diagonal of n = 20 with 10 stored
    # entries is banded, with 9 it is csr
    assert problem_to_dict(make_example2(40))["A"]["kind"] == "banded"
    for stored, kind in ((10, "banded"), (9, "csr")):
        A = sp.csr_matrix((np.arange(1.0, stored + 1),
                           (np.arange(stored), np.arange(stored))),
                          shape=(20, 20))
        p = CareProblem(A, np.ones((20, 1)), np.ones((1, 20)))
        doc = json.loads(json.dumps(problem_to_dict(p)))
        assert doc["A"]["kind"] == kind
        assert_problems_equal(p, problem_from_dict(doc))


@pytest.mark.parametrize("field, value, message", [
    ("data", [1.0], "length"),
    ("indptr", [0, 1, 2], "indptr"),
    ("indptr", [0, 2, 1, 2, 2, 2] + [2] * 15, "non-decreasing"),
    ("indices", [0, 20], "index"),
    ("indices", [-1, 0], "index"),
])
def test_bad_csr_documents_are_rejected(field, value, message):
    wide = sp.csr_matrix(([1.0, 1.0], ([0, 19], [19, 0])), shape=(20, 20))
    doc = problem_to_dict(CareProblem(wide, np.ones((20, 1)),
                                      np.ones((1, 20))))
    assert doc["A"]["kind"] == "csr"
    doc["A"][field] = value
    with pytest.raises(ValueError, match=message):
        problem_from_dict(doc)
