"""Factored doubling engine: operator chain, step algebra, residual,
truncation, and the solve driver."""

import importlib
import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import convection_diffusion_problem, random_stable_problem, \
    scalar_problem, uncontrollable_problem, uneven_problem, unstable_problem
from radda import (BreakdownError, CareProblem, adda_solve_dense,
                   care_oracle_small, choose_alpha, make_example1,
                   make_example2, radda_solve, residual_dense,
                   residual_lowrank)
from radda.cayley import _norm_shift, build_shifted
from radda.dense import adda_step_dense, init_dense
from radda.lowrank import (RaddaState, apply_ahat, init_lowrank, radda_step,
                           truncate_factors)
from radda.problems import qnorm
from verification import reference_residual_lowrank

SQRT2 = np.sqrt(2.0)


def lowrank_state(problem, alpha):
    return init_lowrank(build_shifted(problem, alpha))


def dense_state(problem, alpha):
    return init_dense(build_shifted(problem, alpha))


def rotate(D, rng):
    """Turn a factor by a random orthogonal matrix: same width and same
    D D', but different columns."""
    return D @ sla.qr(rng.standard_normal((D.shape[1],) * 2))[0]


def reconstruct_x(state):
    D = np.hstack(state.D)
    return D @ D.T


def reconstruct_y(state):
    P = np.hstack(state.P)
    return P @ P.T


class TestStepAlgebra:
    def test_scalar_first_step_frozen_values(self):
        s1 = radda_step(lowrank_state(scalar_problem(), 1.0))
        assert s1.k == 1
        assert (s1.rank_x, s1.rank_y) == (2, 2)
        x1 = float(reconstruct_x(s1)[0, 0])
        assert x1 == pytest.approx(0.41379310344827586, abs=1e-14)
        # ahat0 = 0.2 and W = D'P = 0.4, so the appended column is
        # 0.2 D / sqrt(1 + W^2), reconstructing the same X1 as the dense step
        assert s1.D[0][0, 0] == pytest.approx(-np.sqrt(0.4), abs=1e-15)
        assert s1.D[1][0, 0] == pytest.approx(-0.2 * np.sqrt(0.4 / 1.16),
                                              abs=1e-15)
        np.testing.assert_allclose(s1.chol, [[[np.sqrt(1.16)]]] * 2,
                                   rtol=0.0, atol=1e-15)

    def test_core_update_matches_subtractive_form(self):
        # the Cholesky form used inside the step must agree with the
        # textbook subtractive update (I + W W')^{-1} = I - W (I + W'W)^{-1} W'
        # applied to the operator images computed independently here
        p = make_example2(18)
        s = radda_step(lowrank_state(p, 18.0))  # k=1 state, width 2
        D, P = np.hstack(s.D), np.hstack(s.P)
        W = D.T @ P
        r = s.rank_x
        AD = apply_ahat(s.base, s.chain, D, transposed=True)
        AP = apply_ahat(s.base, s.chain, P)
        eye = np.eye(r)
        core_x = eye - W @ np.linalg.solve(eye + W.T @ W, W.T)
        core_y = eye - W.T @ np.linalg.solve(eye + W @ W.T, W)
        s2 = radda_step(s)
        N_x, N_y = s2.D[-1], s2.P[-1]
        assert N_x.shape[1] == N_y.shape[1] == r
        for got, want in ((N_x @ N_x.T, AD @ core_x @ AD.T),
                          (N_y @ N_y.T, AP @ core_y @ AP.T)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-13 * np.abs(want).max())
        L_x, L_y = s2.chol
        np.testing.assert_allclose(L_x @ L_x.T, eye + W @ W.T, rtol=1e-14)
        np.testing.assert_allclose(L_y @ L_y.T, eye + W.T @ W, rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_breakdown_raises(self):
        # an overflowed factor makes W = D'P = [[inf, -inf], [3, 1]]: the
        # step stops before any apply, and before forming W W', whose
        # inf - inf would warn
        D = np.ones((3, 2))
        D[0, 0] = np.inf
        P = np.ones((3, 2))
        P[0, 1] = -1.0
        bad = RaddaState(k=2, D=(D,), P=(P,), base=None, chain=())
        with pytest.raises(BreakdownError) as err:
            radda_step(bad)
        assert err.value.k == 2


class TestDenseEquivalence:
    @pytest.mark.parametrize("make, alpha", [
        (lambda: make_example1(24), 17.0),
        (lambda: make_example2(24), 18.0),
    ])
    def test_examples_track_dense_iterates(self, make, alpha):
        p = make()
        lr = lowrank_state(p, alpha)
        dn = dense_state(p, alpha)
        for k in range(5):
            if k:
                lr = radda_step(lr)
                dn = adda_step_dense(dn)
            dev = np.linalg.norm(reconstruct_x(lr) - dn.X, "fro")
            scale = np.linalg.norm(dn.X, "fro")
            assert dev <= 1e-12 * scale
            dev_y = np.linalg.norm(reconstruct_y(lr) - dn.Y, "fro")
            assert dev_y <= 1e-12 * np.linalg.norm(dn.Y, "fro")

    def test_implicit_operator_matches_dense(self):
        p = make_example1(16)
        lr = lowrank_state(p, 17.0)
        dn = dense_state(p, 17.0)
        eye = np.eye(16)
        for k in range(4):
            if k:
                lr = radda_step(lr)
                dn = adda_step_dense(dn)
            got = apply_ahat(lr.base, lr.chain, eye)
            scale = np.linalg.norm(dn.ahat, "fro")
            assert np.linalg.norm(got - dn.ahat, "fro") <= 1e-12 * scale
            got_t = apply_ahat(lr.base, lr.chain, eye, transposed=True)
            assert np.linalg.norm(got_t - dn.ahat.T, "fro") <= 1e-12 * scale

    def test_apply_accepts_vectors(self):
        p = make_example2(10)
        lr = radda_step(lowrank_state(p, 18.0))
        z = np.arange(10.0)
        out = apply_ahat(lr.base, lr.chain, z)
        assert out.shape == (10,)
        np.testing.assert_allclose(
            out, apply_ahat(lr.base, lr.chain, z[:, None])[:, 0])


class TestBaseSolveColumns:
    @pytest.fixture
    def cols(self, monkeypatch):
        """Running total of the columns fed to base operator applies."""
        import radda.cayley as cayley_mod
        total = [0]
        op = cayley_mod.BaseDoublingOperator
        for name in ("apply", "apply_t"):
            orig = getattr(op, name)

            def counted(self, Z, _orig=orig):
                total[0] += Z.shape[1]
                return _orig(self, Z)

            monkeypatch.setattr(op, name, counted)
        return total

    @pytest.mark.parametrize("make, K, expected", [
        (lambda: make_example2(64), 1, 2),
        (lambda: make_example2(64), 2, 6),
        (lambda: make_example2(64), 3, 22),
        (lambda: make_example2(64), 4, 86),   # three depth-k applies: 255
        (uneven_problem, 3, 33),
    ])
    def test_untruncated_run(self, cols, make, K, expected):
        # the first step applies depth 0 to p + m columns; step k >= 1
        # applies depth k-1 twice per side at half width, 2 (p+m) 4^(k-1).
        # A given shift keeps the default shift's search out of the count.
        p = make()
        _, report = radda_solve(p, alpha=_norm_shift(p), tol=1e-30, maxit=K)
        assert report.iterations == K
        assert cols[0] == expected == (p.p + p.m) * (1 + (4 ** K - 4) // 6)

    def test_truncated_run(self, cols):
        # truncation rebuilds the factors, so each step applies the full
        # depth-k chain once per side: 2^k (r_x + r_y) columns
        _, report = radda_solve(make_example1(2000), alpha=17.0,
                                truncate_tol=1e-13)
        assert report.termination == "converged"
        steps = report.rank_history[:-1]
        assert cols[0] == sum(2 ** k * (rx + ry) for k, rx, ry in steps)
        assert cols[0] == 42       # two thirds of the 63 a third apply gave

    def test_galerkin_finished_run(self, cols):
        # the finish makes no base apply, so the columns are those of the
        # doublings up to the iterate it finishes: five doublings, where
        # the iterate alone needs six and 1,754 columns
        p = convection_diffusion_problem(np.random.default_rng(0), 16)
        alpha = choose_alpha(p)
        cols[0] = 0
        _, report = radda_solve(p, alpha=alpha, tol=1e-10,
                                truncate_tol=1e-13)
        assert report.returned == "galerkin"
        steps = report.rank_history[:-2]
        assert cols[0] == sum(2 ** k * (rx + ry) for k, rx, ry in steps)
        assert cols[0] == 666


class TestModifiedFactors:
    @pytest.mark.parametrize("make, alpha", [
        (lambda: make_example2(24), 18.0),
        (uneven_problem, None),
    ])
    def test_step_from_rotated_factors(self, make, alpha):
        p = make()
        alpha = choose_alpha(p) if alpha is None else alpha
        lr = lowrank_state(p, alpha)
        dn = dense_state(p, alpha)
        for _ in range(2):
            lr = radda_step(lr)
            dn = adda_step_dense(dn)
        assert lr.chol is not None
        rng = np.random.default_rng(7)
        D, P = rotate(np.hstack(lr.D), rng), rotate(np.hstack(lr.P), rng)
        lr = radda_step(RaddaState(lr.k, (D,), (P,), lr.base, lr.chain))
        dn = adda_step_dense(dn)
        assert lr.rank_x == 8 * p.p and lr.rank_y == 8 * p.m
        for got, want in ((reconstruct_x(lr), dn.X), (reconstruct_y(lr), dn.Y)):
            assert np.linalg.norm(got - want, "fro") <= \
                1e-10 * np.linalg.norm(want, "fro")

    def test_width_preserving_truncation_in_solve(self, monkeypatch):
        # a recompression that keeps every column still changes the
        # factors, so the solve must not treat them as freshly doubled
        import radda.lowrank as lowrank_mod
        rng = np.random.default_rng(3)
        p = make_example2(64)
        x_ref, ref = radda_solve(p)
        monkeypatch.setattr(lowrank_mod, "truncate_factors",
                            lambda D, tol: rotate(D, rng))
        x, report = lowrank_mod.radda_solve(p, truncate_tol=1e-13,
                                            maxit=ref.iterations)
        assert report.termination == "converged"
        assert report.rank_history == ref.rank_history
        X_ref = x_ref.reconstruct()
        assert np.linalg.norm(x.reconstruct() - X_ref, "fro") <= \
            1e-10 * np.linalg.norm(X_ref, "fro")


class TestResidualLowrank:
    def test_agrees_with_dense_residual(self):
        p = make_example1(40)
        s = lowrank_state(p, 17.0)
        for k in range(4):
            if k:
                s = radda_step(s)
            rl = residual_lowrank(p, s.D)
            rd = residual_dense(p, reconstruct_x(s))
            assert abs(rl - rd) <= 1e-12

    def test_zero_core_gives_residual_one(self):
        p = make_example2(12)
        assert residual_lowrank(p, np.zeros((12, 2))) == pytest.approx(
            1.0, abs=1e-12)

    def test_empty_factor_gives_residual_one(self):
        p = make_example1(9)
        r = residual_lowrank(p, np.zeros((9, 0)))
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_zero_c_falls_back_to_absolute(self):
        p = CareProblem(-np.eye(4), np.ones((4, 1)), np.zeros((1, 4)))
        D = np.ones((4, 1))
        r = residual_lowrank(p, D)
        # no warning, which pyproject's filterwarnings would turn into an
        # error; X = ones: A'X + XA - X(BB')X = -2*ones - 16*ones, norm 18*4
        assert r == pytest.approx(72.0, rel=1e-12)

    def test_non_finite_factor_rejected(self):
        p = make_example2(12)
        D = np.ones((12, 2))
        D[3, 1] = np.nan
        # rejected before the QR, with scipy's finiteness-check message
        with pytest.raises(ValueError, match="infs or NaNs"):
            residual_lowrank(p, D)

    def test_cached_qnorm_short_circuit(self):
        p = make_example2(15)
        s = lowrank_state(p, 18.0)
        qn = qnorm(p)
        assert residual_lowrank(p, s.D, qn) == residual_lowrank(p, s.D)

    def test_streamed_matches_one_shot_qr(self):
        # n = 1e5 spans four row blocks of the streamed QR; the one-shot
        # Householder QR of the whole basis is the reference.  The two
        # agree to 1e-10 relative, or to the 1e-13 absolute floor that both
        # evaluations share (they differ by 3e-14 to 7e-14 at every k)
        p = make_example2(100_000)
        qn = qnorm(p)
        s = lowrank_state(p, 9.0)
        for k in range(4):
            if k:
                s = radda_step(s)
            got = residual_lowrank(p, s.D, qn)
            want = reference_residual_lowrank(p, np.hstack(s.D), qn)
            assert abs(got - want) <= max(1e-10 * want, 1e-13), (k, got, want)
        assert got <= 1e-12 and want <= 1e-12

    def test_example1_at_scale_sees_convergence(self):
        # W = D'B summed over row blocks, not by one dot product over all
        # n rows: the one-shot formula read 1.056e-12 at k = 3 here and
        # 1.054e-12 at k = 4, where a Lanczos estimate reads 8.0e-13 and
        # 0.7-3.0e-13, so the solve ran past k = 4; maxit bounds a relapse
        _, report = radda_solve(make_example1(200_000), maxit=4)
        assert report.termination == "converged"

    def test_blocks_equal_their_concatenation(self):
        p = make_example2(100_000)
        s = lowrank_state(p, 9.0)
        for _ in range(3):
            s = radda_step(s)
        assert len(s.D) == 4
        assert residual_lowrank(p, s.D) == residual_lowrank(p, np.hstack(s.D))

    @pytest.mark.parametrize("p_rows, r", [(0, 3), (1, 0), (1, 6), (2, 5)])
    def test_short_row_blocks(self, monkeypatch, p_rows, r):
        # 8-row blocks over n = 44: the first stack is wider than tall
        # when p + 2r > 8, and the last block has 4 rows, fewer than p + 2r
        # whenever r > 1; p = 0 and r = 0 leave a side of the core empty
        import radda.lowrank as lowrank_mod
        monkeypatch.setattr(lowrank_mod, "_ROW_BLOCK", 8)
        rng = np.random.default_rng(p_rows + 10 * r)
        base = random_stable_problem(rng, 44, mp=2)
        prob = CareProblem(base.A, base.B, base.C[:p_rows])
        D = rng.standard_normal((44, r))
        blocks = (D[:, :r // 2], D[:, r // 2:])
        want = reference_residual_lowrank(prob, D)
        for arg in (D, blocks):
            got = residual_lowrank(prob, arg)
            assert abs(got - want) <= 1e-13 * max(want, 1.0), (got, want)


def _traced_peak_vectors(n, fn, *args, **kwargs):
    """Peak memory that tracemalloc sees allocated during fn(*args), above
    what was held before the call, in n-vectors of float64."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / (8.0 * n)


class TestMemory:
    """The n-scale memory of the engine is its factors, in n-vectors on
    example 2 at n = 1e5 (3 doublings to rank 8)."""

    N = 100_000

    def test_residual_holds_one_row_block(self):
        # A'D (8 n-vectors) and one row block of the basis, 2^15 rows of
        # p + 2r = 17 columns (5.6 n-vectors); one more n x 8 copy of the
        # factor, or the whole basis (17 n-vectors), breaks the bound
        p = make_example2(self.N)
        D = np.random.default_rng(0).standard_normal((self.N, 8))
        extra = _traced_peak_vectors(self.N, residual_lowrank, p, D)
        assert extra <= 17.0, extra

    def test_solve_peak(self):
        # held at the end: the shifted LU and the start's D0, P0 (8) and
        # the appended blocks of D and P (7 + 7), which the chain shares;
        # the peak adds the residual's A'D and row block.  A second copy
        # of the final D or of its appended blocks, such as the products
        # F_j K_j of the chain (7), breaks the bound
        p = make_example2(self.N)
        peak = _traced_peak_vectors(self.N, radda_solve, p)
        assert peak <= 40.0, peak

    @pytest.mark.parametrize("make", [lambda: make_example2(64),
                                      uneven_problem],
                             ids=["example2", "uneven"])
    def test_chain_holds_the_factor_blocks(self, monkeypatch, make):
        # correction j of every untruncated state is (F_j, K_j, V_j) with
        # F_j and V_j the very blocks step j appended to P and D, and K_j
        # the small coupling between them
        import radda.lowrank as lowrank_mod
        states = []

        def recorded(state):
            states.append(radda_step(state))
            return states[-1]

        monkeypatch.setattr(lowrank_mod, "radda_step", recorded)
        _, report = lowrank_mod.radda_solve(make())
        assert len(states) == report.iterations == 4
        for s in states:
            assert len(s.chain) == s.k == len(s.D) - 1 == len(s.P) - 1
            for j, (F, K, V) in enumerate(s.chain):
                assert F is s.P[j + 1] and V is s.D[j + 1]
                assert K.shape == (s.P[j + 1].shape[1], s.D[j + 1].shape[1])


class TestTruncation:
    def test_zero_tolerance_is_identity(self):
        D = np.random.default_rng(0).standard_normal((8, 4))
        D[:, 2] = 0.0
        assert truncate_factors(D, 0.0) is D

    def test_drops_negligible_directions(self):
        rng = np.random.default_rng(14)
        U = sla.qr(rng.standard_normal((20, 6)), mode="economic")[0]
        # eigenvalues 9, 1, 1e-4, 1e-16, 1e-18, 0 of X = D D'
        s = np.array([3.0, 1.0, 1e-2, 1e-8, 1e-9, 0.0])
        D = U * s
        D2 = truncate_factors(D, 1e-10)
        assert D2.shape == (20, 3)
        X = D @ D.T
        assert np.linalg.norm(D2 @ D2.T - X, 2) <= 1e-10 * 9.0 * 2

    def test_error_bound_holds(self):
        rng = np.random.default_rng(23)
        D = rng.standard_normal((30, 10)) * np.logspace(0, -7, 10)
        X = D @ D.T
        for tol in (1e-2, 1e-6, 1e-12):
            D2 = truncate_factors(D, tol)
            err = np.linalg.norm(D2 @ D2.T - X, 2)
            assert err <= tol * np.linalg.norm(X, 2) * (1 + 1e-10)
            assert D2.shape[1] < D.shape[1]

    def test_zero_matrix_truncates_to_empty(self):
        assert truncate_factors(np.zeros((5, 2)), 1e-8).shape == (5, 0)
        empty = np.zeros((5, 0))
        assert truncate_factors(empty, 1e-8) is empty

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            truncate_factors(np.ones((3, 1)), -1.0)

    def test_nan_tolerance_rejected(self):
        # a NaN cutoff would otherwise turn truncation off silently
        with pytest.raises(ValueError):
            truncate_factors(np.ones((3, 1)), np.nan)

    @pytest.mark.parametrize("tol", [1.0, 2.0, np.inf])
    def test_tolerance_of_one_or_more_rejected(self, tol):
        # a cutoff of 1 or more would truncate every factor to width 0
        with pytest.raises(ValueError, match="0, 1"):
            truncate_factors(np.ones((3, 1)), tol)


class TestSolve:
    def test_scalar_limit(self):
        x, report = radda_solve(scalar_problem(), alpha=1.0)
        assert abs(float(x.reconstruct()[0, 0]) - (SQRT2 - 1.0)) <= 1e-12
        assert report.termination == "converged"
        # One more doubling with a tighter tolerance lands on the root.
        x2, _ = radda_solve(scalar_problem(), alpha=1.0, tol=1e-14)
        assert abs(float(x2.reconstruct()[0, 0]) - (SQRT2 - 1.0)) <= 1e-15

    def test_example1_fast_convergence(self):
        x, report = radda_solve(make_example1(128))
        assert report.termination == "converged"
        assert report.iterations <= 6
        assert report.residual_history[-1][1] <= 1e-11
        # untruncated rank law
        for k, rx, ry in report.rank_history:
            assert rx == 2 ** k and ry == 2 ** k

    def test_report_records_default_shift(self):
        # sqrt(||A||_1 ||A||_inf) = sqrt(17 * 17) for the first family
        _, report = radda_solve(make_example1(32))
        assert report.alpha == 17.0

    def test_final_factors_match_oracle(self):
        p = make_example2(48)
        x, _ = radda_solve(p)
        Xs = care_oracle_small(p)
        assert np.linalg.norm(x.reconstruct() - Xs, "fro") <= \
            1e-8 * np.linalg.norm(Xs, "fro")

    def test_truncated_run_still_converges(self):
        p = make_example1(64)
        x, report = radda_solve(p, truncate_tol=1e-14)
        assert report.termination == "converged"
        assert report.residual_history[-1][1] <= 1e-11
        _, full_report = radda_solve(p)
        last = report.rank_history[-1]
        full_last = full_report.rank_history[-1]
        assert last[1] <= full_last[1] and last[2] <= full_last[2]

    def test_iterates_monotone_psd(self):
        p = make_example2(32)
        s = lowrank_state(p, choose_alpha(p))
        prev = reconstruct_x(s)
        assert np.linalg.eigvalsh(prev).min() >= -1e-14
        for _ in range(4):
            s = radda_step(s)
            cur = reconstruct_x(s)
            scale = np.abs(np.linalg.eigvalsh(cur)).max()
            assert np.linalg.eigvalsh(cur - prev).min() >= -1e-13 * scale
            prev = cur

    def test_max_iterations(self):
        _, report = radda_solve(make_example1(16), tol=1e-30, maxit=2)
        assert report.termination == "max-iterations"
        assert report.iterations == 2

    def test_argument_validation(self):
        p = make_example1(8)
        # a NaN tol never stops the loop and a NaN cutoff never truncates;
        # maxit = 2 bounds the run should either be accepted
        for bad in (dict(tol=0.0), dict(maxit=0), dict(truncate_tol=-1.0),
                    dict(tol=np.nan, maxit=2),
                    dict(truncate_tol=np.nan, maxit=2)):
            with pytest.raises(ValueError):
                radda_solve(p, **bad)

    @pytest.mark.parametrize("truncate_tol", [1.0, np.inf])
    def test_truncation_of_everything_rejected(self, truncate_tol):
        # a cutoff of 1 or more leaves width 0 after every step, so the
        # residual reads 1.0 while each step costs 2^k base applies;
        # maxit = 2 bounds the run should it be accepted
        with pytest.raises(ValueError, match="0, 1"):
            radda_solve(make_example1(8), truncate_tol=truncate_tol,
                        maxit=2)

    def test_solve_attaches_partial_report(self, monkeypatch):
        # example 1 never breaks a step down, so force the failure to
        # exercise the partial-report plumbing
        import radda.lowrank as lowrank_mod
        orig = lowrank_mod.radda_step

        def failing_step(state):
            if state.k >= 1:
                raise BreakdownError("forced failure", k=state.k)
            return orig(state)

        monkeypatch.setattr(lowrank_mod, "radda_step", failing_step)
        with pytest.raises(BreakdownError) as err:
            lowrank_mod.radda_solve(make_example1(12), tol=1e-30, maxit=5)
        rep = err.value.report
        assert rep is not None
        assert rep.termination == "breakdown"
        assert rep.residual_history[0][0] == 0
        assert rep.iterations == 1
        assert rep.alpha == 17.0

    @pytest.mark.usefixtures("overflowing_apply")
    def test_non_finite_apply_breaks_down(self):
        # a non-finite operator apply is a named breakdown that keeps the
        # iterates before it, not a bare FloatingPointError
        with pytest.raises(BreakdownError, match="apply") as err:
            radda_solve(make_example1(64), alpha=17.0)
        assert err.value.k == 1
        rep = err.value.report
        assert rep.termination == "breakdown"
        assert rep.residual_history[0][0] == 0
        assert rep.iterations == 1

    @pytest.mark.filterwarnings("error")
    def test_unstable_input_breaks_down_early(self):
        # the iterates of an unstable A grow until a step's Gram matrix
        # overflows; the solve must name that within a few doublings and
        # before any overflow warning
        with pytest.raises(BreakdownError) as err:
            radda_solve(unstable_problem())
        assert err.value.k < 10
        rep = err.value.report
        assert rep.termination == "breakdown"
        assert rep.iterations == err.value.k

    @pytest.mark.filterwarnings("error")
    def test_overflowing_residual_breaks_down(self):
        # the iterates widen past n and grow until the residual's core
        # overflows; the solve names that, with no overflow warning, and
        # the report keeps the iterates before it
        with pytest.raises(BreakdownError, match="residual") as err:
            radda_solve(uncontrollable_problem())
        rep = err.value.report
        assert rep.termination == "breakdown"
        assert rep.iterations == err.value.k - 1
        assert all(np.isfinite(res) for _, res in rep.residual_history)


def dense_problem(rng, n):
    """Dense stable A = M - (max |Re lambda(M)| + 1) I with
    M = N(n x n)/sqrt(n); B = 0.3 N(n x 4), C = 0.3 N(4 x n)."""
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    A = M - (np.abs(np.linalg.eigvals(M).real).max() + 1.0) * np.eye(n)
    return CareProblem(A, 0.3 * rng.standard_normal((n, 4)),
                       0.3 * rng.standard_normal((4, n)))


class TestGalerkinFinish:
    KW = dict(tol=1e-10, truncate_tol=1e-13)

    @staticmethod
    def grid():
        return convection_diffusion_problem(np.random.default_rng(0), 16)

    @pytest.fixture
    def attempts(self, monkeypatch):
        """Calls of the small Riccati solve, which the finish makes once
        per attempt."""
        import radda.lowrank as lowrank_mod
        calls = []
        orig = lowrank_mod.solve_continuous_are

        def counted(*args):
            calls.append(None)
            return orig(*args)

        monkeypatch.setattr(lowrank_mod, "solve_continuous_are", counted)
        return calls

    @pytest.mark.parametrize("inputs", [1, 0])
    def test_fires_and_matches_oracle(self, attempts, inputs):
        # with no input (m = 0) the small equation is a Lyapunov equation
        p = self.grid()
        p = CareProblem(p.A, p.B[:, :inputs], p.C)
        x, report = radda_solve(p, **self.KW)
        assert report.termination == "converged"
        assert report.returned == "galerkin"
        assert len(attempts) == 1
        # the iterate's row, then the finish's row at the same k
        assert report.iterations == 5
        (k1, res_k), (k2, res_f) = report.residual_history[-2:]
        assert k1 == k2 == 5 and res_k > 1e-10 >= res_f
        assert report.rank_history[-1] == (5, x.rank,
                                           report.rank_history[-2][2])
        assert len(report.wall_times) == len(report.residual_history) == 7
        assert residual_lowrank(p, x.F) == res_f
        Xs = care_oracle_small(p)
        assert np.linalg.norm(x.reconstruct() - Xs, "fro") <= \
            1e-8 * np.linalg.norm(Xs, "fro")

    @pytest.mark.parametrize("failure", [
        pytest.param("raise", id="LinAlgError"),
        pytest.param("warn", id="LinAlgWarning"),
        pytest.param("warn", id="LinAlgWarning-ignored-globally",
                     marks=pytest.mark.filterwarnings(
                         "ignore::scipy.linalg.LinAlgWarning")),
    ])
    def test_failed_attempt_keeps_doubling(self, monkeypatch, failure):
        # a small solve that fails, or only warns, is a failed attempt:
        # nothing escapes, the doubling goes on to its own iterate, and
        # no second attempt is made
        import radda.lowrank as lowrank_mod
        calls = []
        orig = lowrank_mod.solve_continuous_are

        def failing(*args):
            calls.append(None)
            if failure == "raise":
                raise np.linalg.LinAlgError("forced failure")
            warnings.warn("forced warning", sla.LinAlgWarning)
            return orig(*args)

        monkeypatch.setattr(lowrank_mod, "solve_continuous_are", failing)
        x, report = lowrank_mod.radda_solve(self.grid(), **self.KW)
        assert calls == [None]
        assert report.termination == "converged"
        assert report.returned == "iterate"
        assert report.iterations == 6
        assert [k for k, _ in report.residual_history] == list(range(7))
        assert report.residual_history[-1][1] <= 1e-10
        assert x.rank == report.rank_history[-1][1]

    @pytest.mark.parametrize("make", [
        lambda: make_example2(64),
        lambda: dense_problem(np.random.default_rng(0), 256),
    ])
    def test_not_attempted(self, attempts, make):
        # both residuals enter the window only once the basis is wider
        # than n/4: example 2 at k = 3 (17 columns, n/4 = 16), the dense
        # instance at k = 4 (132 columns, n/4 = 64)
        _, report = radda_solve(make())
        assert report.termination == "converged"
        assert report.returned == "iterate"
        assert attempts == []
        ks = [k for k, _ in report.residual_history]
        assert ks == list(range(report.iterations + 1))


class TestRandomSweep:
    def test_lowrank_vs_dense_vs_oracle(self):
        rng = np.random.default_rng(100)
        for trial in range(6):
            mp = 1 + trial % 2
            n = int(rng.integers(6, 28))
            p = random_stable_problem(rng, n, mp=mp)
            alpha = choose_alpha(p)
            lr = lowrank_state(p, alpha)
            dn = dense_state(p, alpha)
            for k in range(5):
                if k:
                    lr = radda_step(lr)
                    dn = adda_step_dense(dn)
                dev = np.linalg.norm(reconstruct_x(lr) - dn.X, "fro")
                assert dev <= 1e-11 * max(np.linalg.norm(dn.X, "fro"), 1e-30)
            x, report = radda_solve(p, alpha=alpha)
            Xs = care_oracle_small(p)
            err = np.linalg.norm(x.reconstruct() - Xs, "fro")
            assert err <= 1e-8 * np.linalg.norm(Xs, "fro")


def _bench_tracing():
    """bench/tracing.py, loaded by path: bench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _bench_tracing()

#: the names the benchmark's tracer replaces in the two solver modules,
#: from outside the package; the solvers must call through the module
#: attributes
TRACED_NAMES = {
    owner: tuple(attr for target, attr, _, _ in tracing.TARGETS
                 if target == owner)
    for owner in ("radda.lowrank", "radda.dense")
}


def test_tracer_finds_every_target():
    assert all(TRACED_NAMES.values())
    assert tracing.Tracer().missing == []


def test_traced_run_records_every_layer(tmp_path):
    # the benchmark's traced run at desk size: every target is called
    # through its wrapper with the arguments the tracer reads (a base
    # apply's block is its second argument), and the traced solve repeats
    # the untraced history exactly
    import radda.problems
    import radda.serialize
    path = tmp_path / "example1.json"
    radda.serialize.save_problem(path, make_example1(32))
    _, untraced = radda_solve(make_example2(64), truncate_tol=1e-13)
    tracer = tracing.Tracer()
    with tracer.installed("desk"):
        problem = radda.problems.make_example2(64)
        radda.serialize.load_problem(path)
        _, traced = radda_solve(problem, truncate_tol=1e-13)
        adda_solve_dense(make_example1(32))
    layers = tracer.layers("desk")
    assert set(layers) == {name for _, _, name, _ in tracing.TARGETS}
    assert layers["cayley.base_apply"]["cols"] >= \
        layers["cayley.base_apply"]["calls"] > 0
    assert (traced.iterations, traced.residual_history,
            traced.rank_history) == (untraced.iterations,
                                     untraced.residual_history,
                                     untraced.rank_history)


def test_solvers_look_up_traced_names_at_call_time(monkeypatch):
    calls = {}
    for module, names in TRACED_NAMES.items():
        mod = importlib.import_module(module)
        for name in names:
            key = f"{module}.{name}"
            calls[key] = 0

            def counted(*args, _orig=getattr(mod, name), _key=key, **kwargs):
                calls[_key] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    radda_solve(make_example1(64), truncate_tol=1e-13)
    adda_solve_dense(make_example1(32))
    assert [key for key, n in calls.items() if n == 0] == []


#: the package's public surface; a change that grows or shrinks it edits
#: this list on purpose
PUBLIC_NAMES = [
    "BreakdownError", "CareProblem", "ConditioningError", "DENSE_CAP",
    "LowRankSymmetric", "NoStabilizingSolutionError", "ORACLE_CAP",
    "ShiftSingularError", "SingularUpdateError", "SizeCapError",
    "SolveReport", "adda_solve_dense", "care_oracle_small", "choose_alpha",
    "load_problem", "make_example1", "make_example2", "radda_solve",
    "residual_dense", "residual_lowrank", "save_problem",
]


def test_public_surface_is_pinned():
    import radda
    assert len(PUBLIC_NAMES) == 21
    assert sorted(radda.__all__) == PUBLIC_NAMES
    assert all(hasattr(radda, name) for name in PUBLIC_NAMES)
