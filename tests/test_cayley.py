"""Shift choice, shifted factorizations, and the two initializations."""

import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (convection_diffusion_problem, random_stable_problem,
                      scalar_problem, tiny_norm_problem, uneven_problem)
from radda import (CareProblem, ShiftSingularError, SizeCapError,
                   choose_alpha, make_example1, make_example2, radda_solve)
from radda.cayley import MAX_RUNGS, RATE_APPLIES, _norm_shift, build_shifted
from radda.dense import init_dense
from radda.lowrank import init_lowrank
from verification import reference_start


def coupled_problem():
    """Example 1 at n = 64 with B and C scaled by 100: the coupling moves
    the Hamiltonian's spectrum far left of A's, so the best shift sits
    above the norm shift and the search factors several rungs."""
    p = make_example1(64)
    return CareProblem(p.A, 100.0 * p.B, 100.0 * p.C)


class TestChooseAlpha:
    @pytest.fixture
    def rungs(self, monkeypatch):
        """The shifts the search factors, in order."""
        import radda.cayley as cayley_mod
        tried = []
        build = cayley_mod.build_shifted

        def recorded(problem, alpha):
            tried.append(alpha)
            return build(problem, alpha)

        monkeypatch.setattr(cayley_mod, "build_shifted", recorded)
        return tried

    def test_example_values_are_exact(self, rungs):
        # the probe's floors put the search's start on the chosen rung, and
        # neither neighbour's floor beats its score, so no other is factored
        for problem, tried, chosen in (
                (make_example1(8), [17.0], 17.0),
                (make_example1(512), [17.0], 17.0),
                (make_example2(16), [9.0], 9.0)):
            rungs.clear()
            assert choose_alpha(problem) == chosen
            assert rungs == tried

    def test_spread_spectrum_takes_a_lower_rung(self):
        p = convection_diffusion_problem(np.random.default_rng(0), 16)
        alpha = choose_alpha(p)
        alpha0 = _norm_shift(p)
        assert alpha < alpha0 / 4
        kw = dict(tol=1e-10, truncate_tol=1e-13)
        _, at_norm_shift = radda_solve(p, alpha=alpha0, **kw)
        _, at_chosen = radda_solve(p, **kw)
        assert at_chosen.alpha == alpha
        assert at_norm_shift.termination == "converged"
        assert at_chosen.termination == "converged"
        assert at_chosen.iterations < at_norm_shift.iterations
        assert at_chosen.iterations <= 6

    def test_log_spread_diagonal_gets_its_geometric_shift(self):
        # eigenvalues -1 ... -1e8: the best single shift is sqrt(1 * 1e8)
        n = 64
        A = sp.diags(-np.logspace(0, 8, n), format="csr")
        p = CareProblem(A, np.ones((n, 1)), np.ones((1, n)))
        assert 0.5e4 <= choose_alpha(p) <= 2e4

    def test_strong_coupling_takes_a_higher_rung(self):
        p = coupled_problem()
        alpha = choose_alpha(p)
        alpha0 = _norm_shift(p)
        assert alpha > alpha0
        _, at_norm_shift = radda_solve(p, alpha=alpha0)
        _, at_chosen = radda_solve(p, alpha=alpha)
        assert at_chosen.termination == "converged"
        assert at_chosen.iterations < at_norm_shift.iterations

    @pytest.mark.parametrize("sparse", [True, False])
    def test_singular_later_rung_ends_search(self, rungs, sparse):
        # A - 2I is exactly singular, and 2 has the lowest floor: the search
        # starts at the next-lowest one, 1, and the walk up ends at 2
        A = np.diag([-4.0, 2.0, -1.0])
        p = CareProblem(sp.csr_matrix(A) if sparse else A, np.ones((3, 1)),
                        np.ones((1, 3)))
        assert choose_alpha(p) == 1.0
        assert rungs == [2.0, 1.0, 0.5]

    def test_singular_start_rung_is_skipped(self, rungs):
        # the norm shift 1 is A's eigenvalue, so its floor is 0
        p = CareProblem(np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        alpha = choose_alpha(p)
        assert rungs[0] == 1.0 and 1.0 not in rungs[1:]
        assert alpha in rungs[1:]

    def test_no_usable_rung_raises(self, monkeypatch):
        import radda.cayley as cayley_mod
        tried = []

        def singular(problem, alpha):
            tried.append(alpha)
            raise ShiftSingularError(f"A - {alpha} I is singular")

        monkeypatch.setattr(cayley_mod, "build_shifted", singular)
        with pytest.raises(ShiftSingularError):
            choose_alpha(make_example1(8))
        assert len(tried) == MAX_RUNGS == len(set(tried))

    @pytest.mark.parametrize("case", ["B = 0", "C = 0", "A singular",
                                      "huge A"])
    def test_degenerate_inputs_give_a_finite_shift(self, case):
        n = 64
        A, B, C = make_example1(n).A, np.ones((n, 1)), np.ones((1, n))
        if case == "B = 0":
            B = np.zeros((n, 1))
        elif case == "C = 0":
            C = np.zeros((1, n))
        elif case == "A singular":
            A = sp.diags(-np.arange(n, dtype=float), format="csr")
        else:
            A, B, C = -1e200 * np.eye(3), np.ones((3, 1)), np.ones((1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = choose_alpha(CareProblem(A, B, C))
        assert np.isfinite(alpha) and alpha > 0.0

    def test_each_rung_costs_rate_applies(self, rungs, monkeypatch):
        import radda.cayley as cayley_mod
        widths = []
        op = cayley_mod.BaseDoublingOperator
        apply = op.apply

        def counted(self, Z):
            widths.append(Z.shape[1])
            return apply(self, Z)

        monkeypatch.setattr(op, "apply", counted)
        p = coupled_problem()
        choose_alpha(p)
        assert len(rungs) >= 2
        assert widths == [p.m] * (RATE_APPLIES * len(rungs))

    def test_each_rung_is_freed_before_the_next(self, monkeypatch):
        # every factorization the search makes, the probe's LU of A among
        # them, is freed before the next one is made
        import radda.cayley as cayley_mod
        live = []
        factor = cayley_mod._factor

        def tracked(problem, alpha):
            assert all(ref() is None for ref in live)
            solve = factor(problem, alpha)
            live.append(weakref.ref(solve))
            return solve

        monkeypatch.setattr(cayley_mod, "_factor", tracked)
        choose_alpha(coupled_problem())
        assert len(live) >= 3

    def test_sparse_and_dense_paths_agree(self):
        p = random_stable_problem(np.random.default_rng(6), 13, mp=2)
        dense = CareProblem(p.a_dense(), p.B, p.C)
        assert choose_alpha(p) == pytest.approx(choose_alpha(dense), rel=1e-15)

    def test_huge_norms_give_a_finite_shift(self):
        # ||A||_1 ||A||_inf = 1e400 overflows, the shift 1e200 does not
        p = CareProblem(-1e200 * np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        _, report = radda_solve(p)
        assert report.alpha == pytest.approx(1e200, rel=1e-15)
        assert report.termination == "converged"

    def test_zero_matrix_rejected(self):
        p = CareProblem(np.zeros((3, 3)), np.ones((3, 1)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            choose_alpha(p)


class TestBuildShifted:
    @pytest.mark.parametrize("sparse", [True, False])
    def test_solves_match_direct(self, sparse):
        rng = np.random.default_rng(11)
        p = random_stable_problem(rng, 10, mp=1)
        if not sparse:
            p = CareProblem(p.a_dense(), p.B, p.C)
        alpha = 3.5
        op = build_shifted(p, alpha)
        dense = reference_start(p, alpha)
        assert op.alpha == alpha
        assert op.D.shape == (10, p.p) and op.P.shape == (10, p.m)
        np.testing.assert_allclose(op.D @ op.D.T, dense.X, rtol=0.0,
                                   atol=1e-12 * np.abs(dense.X).max())
        np.testing.assert_allclose(op.P @ op.P.T, dense.Y, rtol=0.0,
                                   atol=1e-12 * np.abs(dense.Y).max())

    def test_singular_shift_sparse(self):
        p = CareProblem(sp.identity(6, format="csr"), np.ones((6, 1)),
                        np.ones((1, 6)))
        with pytest.raises(ShiftSingularError):
            build_shifted(p, 1.0)

    def test_singular_shift_dense(self):
        p = CareProblem(np.eye(6), np.ones((6, 1)), np.ones((1, 6)))
        with pytest.raises(ShiftSingularError):
            build_shifted(p, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, np.nan, np.inf])
    def test_bad_shift_rejected(self, alpha):
        with pytest.raises(ValueError):
            build_shifted(make_example1(4), alpha)

    @pytest.mark.parametrize("scale, p", [(1e-300, 1), (1e-100, 2)])
    def test_unusable_start_is_shift_singular(self, scale, p):
        # 1e-300: W0 W0' overflows; 1e-100: I + W0 W0' rounds to a
        # singular 2 x 2, so its Cholesky factorization fails
        problem = tiny_norm_problem(scale, p)
        with pytest.raises(ShiftSingularError, match="indefinite start"):
            build_shifted(problem, scale)

    def test_no_usable_rung_is_shift_singular(self):
        # every rung's start overflows at A = -1e-300 I
        with pytest.raises(ShiftSingularError, match="no shift"):
            choose_alpha(tiny_norm_problem(1e-300))


def pivoting_problem(n=40):
    """Bidiagonal A whose shift by 1 has |subdiagonal| > |diagonal|, so a
    partial-pivoting band LU of A - I swaps rows."""
    A = sp.diags([5.0, -1.0], [-1, 0], shape=(n, n), format="csr")
    return CareProblem(A, np.ones((n, 1)), np.ones((1, n)))


def unsymmetric_problem(n=60):
    """Sparse A with a subdiagonal and random entries two or more places
    above the diagonal, none mirrored: a structurally unsymmetric pattern
    whose far entries make the band storage outgrow the CSR arrays."""
    rng = np.random.default_rng(4)
    upper = sp.triu(sp.random(n, n, density=0.1, random_state=rng,
                              data_rvs=lambda k: rng.uniform(-1, 1, k)), k=2)
    A = (upper + sp.diags([1.0, -3.0], [-1, 0], shape=(n, n))).tocsr()
    return CareProblem(A, rng.standard_normal((n, 2)),
                       rng.standard_normal((1, n)))


# (problem, shift, whether A - alpha I takes SuperLU)
FACTOR_CASES = {
    "band": (make_example2(200), 9.0, False),
    "wide": (convection_diffusion_problem(np.random.default_rng(2), 8), 40.0,
             True),
    "pivoting": (pivoting_problem(), 1.0, True),
    "unsymmetric": (unsymmetric_problem(), 2.0, True),
}

#: the keywords of every SuperLU factorization: minimum degree on the
#: pattern of A_a' + A_a, in symmetric mode (pivoting stays at its default)
SYMMETRIC_MODE = dict(permc_spec="MMD_AT_PLUS_A",
                      options=dict(SymmetricMode=True))


class TestFactorPaths:
    @pytest.fixture
    def splu_calls(self, monkeypatch):
        """(problem size, keywords) of each SuperLU factorization, in
        order."""
        import radda.cayley as cayley_mod
        calls = []
        splu = cayley_mod.spla.splu

        def recorded(M, *args, **kwargs):
            assert not args
            calls.append((M.shape[0], kwargs))
            return splu(M, *args, **kwargs)

        monkeypatch.setattr(cayley_mod.spla, "splu", recorded)
        return calls

    def test_narrow_band_never_calls_superlu(self, monkeypatch):
        import radda.cayley as cayley_mod

        def refuse(*args, **kwargs):
            raise AssertionError("SuperLU called on a narrow-band matrix")

        monkeypatch.setattr(cayley_mod.spla, "splu", refuse)
        for problem, alpha in ((make_example2(2000), 9.0),
                               (make_example1(2000), 17.0)):
            op = build_shifted(problem, alpha)
            assert np.all(np.isfinite(op.D)) and np.all(np.isfinite(op.P))

    def test_singular_wide_band_raises_from_superlu(self, splu_calls):
        # one stored entry at (0, n-1) makes the band as wide as A, so
        # A - I (that entry alone) goes to SuperLU, which finds it singular
        n = 6
        A = sp.identity(n, format="lil")
        A[0, n - 1] = 1.0
        p = CareProblem(A.tocsr(), np.ones((n, 1)), np.ones((1, n)))
        with pytest.raises(ShiftSingularError):
            build_shifted(p, 1.0)
        assert splu_calls == [(n, SYMMETRIC_MODE)]

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("case", sorted(FACTOR_CASES))
    def test_solves_match_dense(self, splu_calls, case, width):
        from radda.cayley import _factor
        problem, alpha, superlu = FACTOR_CASES[case]
        solve = _factor(problem, alpha)
        assert splu_calls == ([(problem.n, SYMMETRIC_MODE)] if superlu
                              else [])
        Aa = problem.a_dense() - alpha * np.eye(problem.n)
        Z = np.random.default_rng(width).standard_normal((problem.n, width))
        Z_before = Z.copy()
        for transposed, M in ((False, Aa), (True, Aa.T)):
            got = solve(Z, transposed=transposed)
            want = np.linalg.solve(M, Z)
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(Z, Z_before)

    def test_every_superlu_factorization_is_symmetric_mode(self,
                                                          splu_calls):
        # the shift search's probe at shift 0, each rung it factors and
        # the solve's own shift all take the same ordering
        problem = FACTOR_CASES["wide"][0]
        radda_solve(problem, tol=1e-10)
        assert len(splu_calls) >= 3
        assert all(call == (problem.n, SYMMETRIC_MODE) for call in splu_calls)

    @pytest.mark.parametrize("case", ["band", "wide"])
    def test_duplicate_entries_match_canonical(self, case):
        problem, alpha, _ = FACTOR_CASES[case]
        A = problem.A.tocsr()
        # split the stored A[0, 0] into two halves with one column index
        # repeated in row 0: a non-canonical CSR with the same value
        indptr = A.indptr.copy()
        indptr[1:] += 1
        head = A.indptr[1]
        first = A.indices[:head].tolist().index(0)
        half = A.data[first] / 2.0
        data = np.concatenate([A.data[:first], [half, half],
                               A.data[first + 1:]])
        indices = np.concatenate([A.indices[:first], [0, 0],
                                  A.indices[first + 1:]])
        dup = sp.csr_matrix((data, indices, indptr), shape=A.shape)
        assert not dup.has_canonical_format
        want = build_shifted(problem, alpha)
        got = build_shifted(CareProblem(dup, problem.B, problem.C), alpha)
        np.testing.assert_array_equal(got.D, want.D)
        np.testing.assert_array_equal(got.P, want.P)
        # factoring reads the duplicate without rewriting the caller's A
        assert dup.nnz == A.nnz + 1


class TestInitLowRank:
    def test_scalar_values(self):
        p = scalar_problem()
        op = build_shifted(p, 1.0)
        init = init_lowrank(op)
        # D0 = P0 = -0.5 scaled by sqrt(2a / (1 + W0^2)) = sqrt(1.6)
        assert init.D[0][0, 0] == pytest.approx(-np.sqrt(0.4), abs=1e-15)
        assert init.P[0][0, 0] == pytest.approx(-np.sqrt(0.4), abs=1e-15)
        x0 = (init.D[0] @ init.D[0].T)[0, 0]
        assert x0 == pytest.approx(0.4, abs=1e-15)
        # the k = 0 iterate: the operator's own factors, not copies, and
        # no chain corrections, so the first step applies the base
        # operator to the factors whole
        assert (init.k, init.chain) == (0, ())
        assert len(init.D) == len(init.P) == 1
        assert init.D[0] is op.D and init.P[0] is op.P and init.base is op

    def test_cross_blocks_agree_both_routes(self):
        # D0'B and C P0 are the same matrix reached through the forward
        # and transposed solve; with p = m = 1 both factors carry the same
        # scale sqrt(2a / (1 + W0^2)), so D'B and C P must agree to rounding
        p = make_example2(20)
        op = build_shifted(p, choose_alpha(p))
        np.testing.assert_allclose(op.D.T @ p.B, p.C @ op.P, rtol=0.0,
                                   atol=1e-15)

    def test_reconstruction_matches_dense_init(self):
        p = make_example1(16)
        init = init_lowrank(build_shifted(p, 17.0))
        dense = reference_start(p, 17.0)
        (D,), (P,) = init.D, init.P
        np.testing.assert_allclose(D @ D.T, dense.X,
                                   atol=1e-14 * np.abs(dense.X).max())
        np.testing.assert_allclose(P @ P.T, dense.Y,
                                   atol=1e-14 * np.abs(dense.Y).max())

    def test_random_starts_match_dense_init(self):
        # p = m = 2 makes both Cholesky factors of the init 2 x 2; the
        # uneven problem (p = 1, m = 2) tells the p x p factor from the m x m
        rng = np.random.default_rng(17)
        for p in (random_stable_problem(rng, 15, mp=1),
                  random_stable_problem(rng, 15, mp=2), uneven_problem()):
            alpha = choose_alpha(p)
            init = init_lowrank(build_shifted(p, alpha))
            dense = reference_start(p, alpha)
            (D,), (P,) = init.D, init.P
            assert D.shape == (p.n, p.p) and P.shape == (p.n, p.m)
            np.testing.assert_allclose(D @ D.T, dense.X, rtol=0.0,
                                       atol=1e-13 * np.abs(dense.X).max())
            np.testing.assert_allclose(P @ P.T, dense.Y, rtol=0.0,
                                       atol=1e-13 * np.abs(dense.Y).max())


class TestBaseOperator:
    def materialize(self, op, n, transposed=False):
        eye = np.eye(n)
        return op.apply_t(eye) if transposed else op.apply(eye)

    def test_matches_dense_operator(self):
        # the uneven problem (p = 1, m = 2) tells the p x m coupling of
        # apply_t from the m x p one of apply
        for p, alpha in ((make_example1(16), 17.0), (uneven_problem(), 7.0)):
            op = build_shifted(p, alpha)
            ahat_dense = reference_start(p, alpha).ahat
            got = self.materialize(op, p.n)
            np.testing.assert_allclose(got, ahat_dense, atol=1e-14)
            got_t = self.materialize(op, p.n, transposed=True)
            np.testing.assert_allclose(got_t, ahat_dense.T, atol=1e-14)

    def test_degenerate_input_is_pure_cayley(self):
        # with B = 0 the operator collapses to (A + aI)(A - aI)^{-1}
        n, alpha = 12, 5.0
        A = -np.diag(np.arange(1.0, n + 1)) + np.diag(np.ones(n - 1), 1)
        p = CareProblem(A, np.zeros((n, 1)), np.zeros((1, n)))
        init = init_lowrank(build_shifted(p, alpha))
        cayley = np.linalg.solve(A - alpha * np.eye(n), A + alpha * np.eye(n))
        got = self.materialize(init.base, n)
        np.testing.assert_allclose(got, cayley, atol=1e-13)

    def test_scalar_value(self):
        p = scalar_problem()
        init = init_lowrank(build_shifted(p, 1.0))
        got = init.base.apply(np.eye(1))[0, 0]
        assert got == pytest.approx(0.2, abs=1e-15)


class TestInitDense:
    def test_scalar_values(self):
        p = scalar_problem()
        s0 = init_dense(build_shifted(p, 1.0))
        assert s0.k == 0
        assert s0.ahat[0, 0] == pytest.approx(0.2, abs=1e-15)
        assert s0.X[0, 0] == pytest.approx(0.4, abs=1e-15)
        assert s0.Y[0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_outputs_symmetric(self):
        p = make_example2(14)
        s0 = init_dense(build_shifted(p, 18.0))
        np.testing.assert_array_equal(s0.X, s0.X.T)
        np.testing.assert_array_equal(s0.Y, s0.Y.T)

    def test_matches_reference_start(self):
        # the expanded operator against the explicit-inverse formulas
        for p in (uneven_problem(), make_example2(14)):
            alpha = choose_alpha(p)
            s0 = init_dense(build_shifted(p, alpha))
            ref = reference_start(p, alpha)
            for got, want in ((s0.ahat, ref.ahat), (s0.X, ref.X),
                              (s0.Y, ref.Y)):
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-13 * np.abs(want).max())

    def test_cap(self):
        p = make_example1(600)
        with pytest.raises(SizeCapError):
            init_dense(build_shifted(p, 17.0))
