"""Problem containers, generators, and the dense reference utilities."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from conftest import random_stable_problem, scalar_problem
from radda import (CareProblem, LowRankSymmetric, NoStabilizingSolutionError,
                   SizeCapError, care_oracle_small, make_example1,
                   make_example2, residual_dense)
from radda.problems import qnorm, spectral_norm_sym
from verification import dual_problem

SQRT2 = np.sqrt(2.0)


def riccati_residual_matrix(problem, X):
    A = problem.a_dense()
    Q = problem.C.T @ problem.C
    G = problem.B @ problem.B.T
    return A.T @ X + X @ A - X @ G @ X + Q


class TestGenerators:
    def test_example1_stencil_n4(self):
        A = make_example1(4).a_dense()
        expected = np.array([
            [-12.0, -3.0, 0.0, 0.0],
            [2.0, -12.0, -3.0, 0.0],
            [0.0, 2.0, -12.0, -3.0],
            [0.0, 0.0, 2.0, -12.0],
        ])
        np.testing.assert_array_equal(A, expected)

    def test_example1_inputs(self):
        p = make_example1(10)
        assert isinstance(p.A, sp.csr_matrix)
        np.testing.assert_array_equal(p.B, np.full((10, 1), 0.02))
        np.testing.assert_array_equal(p.C, np.full((1, 10), 0.01))
        assert (p.n, p.m, p.p) == (10, 1, 1)

    def test_example2_stencil_n5(self):
        A = make_example2(5).a_dense()
        np.testing.assert_array_equal(A[2], [1.0, 2.0, -10.0, -3.0, -2.0])
        np.testing.assert_array_equal(np.diag(A), np.full(5, -10.0))
        assert A[0, 3] == 0.0 and A[4, 1] == 0.0

    def test_example2_minimum_size(self):
        A = make_example2(3).a_dense()
        expected = np.array([
            [-10.0, -3.0, -2.0],
            [2.0, -10.0, -3.0],
            [1.0, 2.0, -10.0],
        ])
        np.testing.assert_array_equal(A, expected)

    def test_size_floors(self):
        with pytest.raises(ValueError):
            make_example1(1)
        with pytest.raises(ValueError):
            make_example2(2)

    @pytest.mark.parametrize("make", [make_example1, make_example2])
    def test_families_are_stable(self, make):
        # all eigenvalues strictly left of the imaginary axis
        lam = np.linalg.eigvals(make(40).a_dense())
        assert lam.real.max() < 0.0


class TestContainers:
    def test_problem_shape_validation(self):
        A = np.eye(4)
        with pytest.raises(ValueError):
            CareProblem(np.ones((4, 3)), np.ones((4, 1)), np.ones((1, 4)))
        with pytest.raises(ValueError):
            CareProblem(A, np.ones((3, 1)), np.ones((1, 4)))
        with pytest.raises(ValueError):
            CareProblem(A, np.ones((4, 1)), np.ones((1, 5)))
        with pytest.raises(ValueError):
            CareProblem(A, np.ones(4), np.ones((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sparse_a_rejected(self, bad):
        A = make_example1(6).A.copy()
        A.data[4] = bad
        with pytest.raises(ValueError, match="A has non-finite"):
            CareProblem(A, np.ones((6, 1)), np.ones((1, 6)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_dense_data_rejected(self, bad):
        for name in "ABC":
            data = {"A": -np.eye(4), "B": np.ones((4, 1)),
                    "C": np.ones((1, 4))}
            data[name] = data[name].copy()
            data[name][-1, 0] = bad
            with pytest.raises(ValueError, match=f"{name} has non-finite"):
                CareProblem(**data)

    def test_lowrank_container(self):
        F = np.random.default_rng(3).standard_normal((5, 2))
        x = LowRankSymmetric(F)
        assert x.rank == 2 and x.n == 5
        np.testing.assert_array_equal(x.S, np.eye(2))
        X = x.reconstruct()
        np.testing.assert_array_equal(X, X.T)
        np.testing.assert_allclose(X, F @ F.T, rtol=1e-15)

    def test_dual_problem_solves_dual_equation(self):
        p = make_example1(12)
        d = dual_problem(p)
        Y = care_oracle_small(d)
        A = p.a_dense()
        Q = p.C.T @ p.C
        G = p.B @ p.B.T
        dual_res = A @ Y + Y @ A.T - Y @ Q @ Y + G
        # Floor is the oracle's eigendecomposition error amplified by ||A||,
        # so normalise by the sizes of the terms actually being cancelled.
        scale = (np.linalg.norm(A @ Y) + np.linalg.norm(Y @ Q @ Y)
                 + np.linalg.norm(G))
        assert np.linalg.norm(dual_res) <= 1e-10 * scale


class TestNorms:
    def test_spectral_norm_sym_exact(self):
        assert spectral_norm_sym(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0
        assert spectral_norm_sym(np.diag([1.0, -7.0, 3.0])) == 7.0
        assert spectral_norm_sym(np.zeros((3, 3))) == 0.0
        assert spectral_norm_sym(np.zeros((0, 0))) == 0.0

    def test_spectral_norm_sym_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_norm_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            M = rng.standard_normal((7, 7))
            M = M + M.T
            assert spectral_norm_sym(M) == pytest.approx(
                np.linalg.norm(M, 2), rel=1e-13)

    def test_qnorm_matches_dense(self):
        p = random_stable_problem(np.random.default_rng(5), 9, mp=2)
        Q = p.C.T @ p.C
        assert qnorm(p) == pytest.approx(np.linalg.norm(Q, 2), rel=1e-13)


class TestResidualDense:
    def test_zero_iterate_is_exactly_one(self):
        for p in (make_example1(17), make_example2(9),
                  random_stable_problem(np.random.default_rng(0), 11, mp=2)):
            assert residual_dense(p, np.zeros((p.n, p.n))) == 1.0

    def test_scalar_root(self):
        p = scalar_problem()
        X = np.array([[SQRT2 - 1.0]])  # exact stabilizing root
        assert residual_dense(p, X) <= 1e-15

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        p = random_stable_problem(rng, 10)
        X = rng.standard_normal((10, 10))
        X = X + X.T
        R = riccati_residual_matrix(p, X)
        expect = np.linalg.norm(R, 2) / np.linalg.norm(p.C.T @ p.C, 2)
        assert residual_dense(p, X) == pytest.approx(expect, rel=1e-12)

    def test_zero_c_falls_back_to_absolute(self):
        p = CareProblem(-np.eye(3), np.ones((3, 1)), np.zeros((1, 3)))
        r = residual_dense(p, np.zeros((3, 3)))
        # no warning, which pyproject's filterwarnings would turn into an
        # error; the residual matrix is G-free at X = 0 and Q = 0, so
        # exactly zero
        assert r == 0.0


class TestOracle:
    def test_scalar_value(self):
        # 2*(-2)x + 1 - 4x^2 = 0  =>  x = (-2 + sqrt(8)) / 4
        p = scalar_problem(a=-2.0, b=2.0, c=1.0)
        X = care_oracle_small(p)
        assert X[0, 0] == pytest.approx((-2.0 + np.sqrt(8.0)) / 4.0, abs=1e-14)

    def test_solves_equation_and_stabilizes(self):
        p = make_example1(32)
        X = care_oracle_small(p)
        R = riccati_residual_matrix(p, X)
        assert np.linalg.norm(R, 2) <= 1e-11 * np.linalg.norm(p.C.T @ p.C, 2)
        closed_loop = p.a_dense() - p.B @ (p.B.T @ X)
        assert np.linalg.eigvals(closed_loop).real.max() < 0.0

    def test_agrees_with_scipy(self):
        # third opinion, deliberately from outside the package
        p = random_stable_problem(np.random.default_rng(42), 14, mp=2)
        X = care_oracle_small(p)
        ref = sla.solve_continuous_are(
            p.a_dense(), p.B, p.C.T @ p.C, np.eye(p.m))
        assert np.linalg.norm(X - ref, "fro") <= 1e-9 * np.linalg.norm(ref, "fro")

    def test_stable_a_with_zero_c_gives_zero(self):
        p = CareProblem(np.diag([-1.0, -2.0, -3.0]), np.ones((3, 1)),
                        np.zeros((1, 3)))
        X = care_oracle_small(p)
        assert np.abs(X).max() <= 1e-14

    def test_imaginary_axis_split_rejected(self):
        # eigenvalues +-i with no damping: no stable/unstable split
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        p = CareProblem(A, np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(NoStabilizingSolutionError):
            care_oracle_small(p)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            care_oracle_small(make_example1(300))
