"""Dense doubling iteration and the test-only verifiers built on it."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_stable_problem, scalar_problem
from radda import (AddaDenseState, CareProblem, ShiftSingularError,
                   SingularUpdateError, SizeCapError, adda_solve_dense,
                   adda_step_dense, care_oracle_small, choose_alpha,
                   init_dense, make_example1, make_example2)
from verification import (build_verification_context,
                          verify_doubling_identities, verify_symplectic_pencil)

SQRT2 = np.sqrt(2.0)


def dense_states(problem, alpha, kmax):
    state = init_dense(problem, alpha)
    out = [state]
    for _ in range(kmax):
        state = adda_step_dense(state)
        out.append(state)
    return out


class TestStep:
    def test_scalar_first_step_frozen_values(self):
        p = scalar_problem()
        s0 = init_dense(p, 1.0)
        s1 = adda_step_dense(s0)
        assert s1.k == 1
        # X1 = 0.4 + 0.2 * 0.4 * 0.2 / 1.16, ahat1 = 0.04 / 1.16
        assert s1.X[0, 0] == pytest.approx(0.41379310344827586, abs=1e-14)
        assert s1.Y[0, 0] == pytest.approx(0.41379310344827586, abs=1e-14)
        assert s1.ahat[0, 0] == pytest.approx(0.034482758620689655, abs=1e-14)

    def test_iterates_stay_symmetric(self):
        p = make_example2(12)
        for s in dense_states(p, 18.0, 4):
            np.testing.assert_array_equal(s.X, s.X.T)
            np.testing.assert_array_equal(s.Y, s.Y.T)

    def test_singular_update_detected(self):
        bad = AddaDenseState(2, ahat=np.eye(1), X=np.array([[1.0]]),
                             Y=np.array([[-1.0]]))
        with pytest.raises(SingularUpdateError) as err:
            adda_step_dense(bad)
        assert err.value.k == 2


class TestShift:
    """The dense reference checks its shift itself; it builds no low-rank
    operator to do so."""

    @staticmethod
    def identity_problem(sparse):
        A = sp.identity(6, format="csr") if sparse else np.eye(6)
        return CareProblem(A, np.ones((6, 1)), np.ones((1, 6)))

    @pytest.mark.parametrize("sparse", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, -2.0, np.nan, np.inf])
    def test_bad_shift_rejected(self, alpha, sparse):
        p = make_example1(8)
        if not sparse:
            p = CareProblem(p.a_dense(), p.B, p.C)
        with pytest.raises(ValueError):
            adda_solve_dense(p, alpha=alpha)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_singular_shift(self, sparse):
        with pytest.raises(ShiftSingularError):
            adda_solve_dense(self.identity_problem(sparse), alpha=1.0)


class TestSolve:
    def test_scalar_limit(self):
        X, report = adda_solve_dense(scalar_problem(), alpha=1.0)
        assert abs(X[0, 0] - (SQRT2 - 1.0)) <= 1e-12
        assert report.termination == "converged"
        # a tighter tolerance buys the next doubling step
        X2, _ = adda_solve_dense(scalar_problem(), alpha=1.0, tol=1e-14)
        assert abs(X2[0, 0] - (SQRT2 - 1.0)) <= 1e-15
        ks = [k for k, _ in report.residual_history]
        assert ks == list(range(report.iterations + 1))

    def test_example1_converges_to_oracle(self):
        p = make_example1(32)
        X, report = adda_solve_dense(p)
        assert report.alpha == 17.0
        assert report.iterations <= 6
        assert report.residual_history[-1][1] <= 1e-12
        Xs = care_oracle_small(p)
        assert np.linalg.norm(X - Xs, "fro") <= 1e-10 * np.linalg.norm(Xs,
                                                                       "fro")

    def test_report_bookkeeping(self):
        _, report = adda_solve_dense(make_example1(24))
        assert len(report.wall_times) == report.iterations + 1
        assert len(report.rank_history) == report.iterations + 1
        res = [r for _, r in report.residual_history]
        assert all(b < a for a, b in zip(res, res[1:]))

    def test_max_iterations_termination(self):
        _, report = adda_solve_dense(make_example1(16), tol=1e-30, maxit=2)
        assert report.termination == "max-iterations"
        assert report.iterations == 2

    def test_breakdown_attaches_partial_report(self, monkeypatch):
        # a genuine singular update needs degenerate data, so force one
        # from k = 1 to exercise the partial-report plumbing
        import radda.dense as dense_mod
        orig = dense_mod.adda_step_dense

        def failing_step(state):
            if state.k >= 1:
                raise SingularUpdateError("forced failure", k=state.k)
            return orig(state)

        monkeypatch.setattr(dense_mod, "adda_step_dense", failing_step)
        with pytest.raises(SingularUpdateError) as err:
            adda_solve_dense(make_example1(12), tol=1e-30, maxit=5)
        rep = err.value.report
        assert rep.termination == "breakdown"
        assert rep.iterations == 1
        assert [k for k, _ in rep.residual_history] == [0, 1]
        assert rep.alpha == 17.0

    def test_argument_validation(self):
        with pytest.raises(SizeCapError):
            adda_solve_dense(make_example1(600))
        with pytest.raises(ValueError):
            adda_solve_dense(make_example1(8), tol=0.0)
        with pytest.raises(ValueError):
            adda_solve_dense(make_example1(8), maxit=0)


class TestVerifiers:
    def test_identities_hold_on_scalar(self):
        p = scalar_problem()
        ctx = build_verification_context(p, 1.0)
        for s in dense_states(p, 1.0, 3):
            rep = verify_doubling_identities(s, ctx)
            assert rep.dev_ahat <= 1e-12
            assert rep.dev_gap <= 1e-12
            assert rep.rho_cayley < 1.0

    def test_identities_hold_at_k0(self):
        p = make_example2(10)
        alpha = choose_alpha(p)
        ctx = build_verification_context(p, alpha)
        rep = verify_doubling_identities(dense_states(p, alpha, 0)[0], ctx)
        ahat_norm = np.linalg.norm(dense_states(p, alpha, 0)[0].ahat, "fro")
        assert rep.dev_ahat <= 1e-11 * ahat_norm
        assert rep.k == 0

    def test_pencil_invariant_is_structural(self):
        # holds for any symmetric X, Y and any square ahat
        rng = np.random.default_rng(13)
        n = 9
        X = rng.standard_normal((n, n))
        Y = rng.standard_normal((n, n))
        state = AddaDenseState(3, ahat=rng.standard_normal((n, n)),
                               X=X + X.T, Y=Y + Y.T)
        assert verify_symplectic_pencil(state) <= 1e-14

    def test_pencil_on_real_iterates(self):
        p = random_stable_problem(np.random.default_rng(20), 14, mp=2)
        for s in dense_states(p, choose_alpha(p), 4):
            assert verify_symplectic_pencil(s) <= 1e-12
