"""Acceptance gate for the factored Riccati doubling solver.

Eleven numbered checks: convergence on the two built-in coefficient
families, low-rank/dense/eigen-oracle agreement, scalar closed forms, the
two closed-form iterate identities, monotone PSD ordering, symplectic
pencil preservation, the quadratic residual decay rate, the exact rank
law, factored-residual correctness, and the low-rank speed advantage.

Each check prints a single ``PASS criterion N: ...`` or ``FAIL criterion
N: ...`` line (bypassing output capture) so a log shows the whole gate at
a glance.
"""

import functools
import sys
from time import perf_counter

import numpy as np

import conftest
from conftest import random_stable_problem, scalar_problem
from radda import (adda_solve_dense, care_oracle_small, choose_alpha,
                   make_example1, make_example2, radda_solve, residual_dense,
                   residual_lowrank)
from radda.cayley import build_shifted
from radda.dense import adda_step_dense, init_dense
from radda.lowrank import init_lowrank, radda_step
from radda.problems import qnorm
from verification import (build_verification_context, dual_problem,
                          verify_doubling_identities, verify_symplectic_pencil)

SQRT2 = np.sqrt(2.0)

#: (p, m, report) for every untruncated low-rank run made by earlier
#: criteria; criterion 9 re-checks the rank law on all of them.
_UNTRUNCATED_RUNS = []


def _report_line(msg):
    print(msg, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(msg)


def criterion(num, label):
    """Print one PASS/FAIL line per acceptance check, then let pytest see
    the original outcome.  The lines are also replayed after the run
    summary (see conftest) so they survive output capture."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report_line(f"FAIL criterion {num}: {label}")
                raise
            _report_line(f"PASS criterion {num}: {label}")
        return wrapper
    return deco


def lowrank_state(problem, alpha):
    return init_lowrank(build_shifted(problem, alpha))


def dense_state(problem, alpha):
    return init_dense(build_shifted(problem, alpha))


def reconstruct(blocks):
    """F F' for the factor F whose column blocks a state holds."""
    F = np.hstack(blocks)
    return F @ F.T


def small_problem_set():
    """The fixed small instances used by the structural criteria."""
    rng = np.random.default_rng(7)
    return [make_example1(8), make_example1(16), make_example2(16),
            random_stable_problem(rng, 12, mp=1),
            random_stable_problem(rng, 20, mp=2)]


@criterion(1, "first family: residual <= 1e-11 within 6 doublings, "
              "< 5 s each, at n = 128/256/512")
def test_criterion_01_family1_convergence():
    for n in (128, 256, 512):
        problem = make_example1(n)
        _, report = radda_solve(problem)
        assert report.termination == "converged", (n, report.termination)
        assert report.iterations <= 6, (n, report.iterations)
        assert report.residual_history[-1][1] <= 1e-11
        assert sum(report.wall_times) < 5.0
        _UNTRUNCATED_RUNS.append((problem.p, problem.m, report))


@criterion(2, "second family: residual <= 1e-10 within 7 doublings, "
              "< 5 s each, at n = 128/256/512")
def test_criterion_02_family2_convergence():
    for n in (128, 256, 512):
        problem = make_example2(n)
        _, report = radda_solve(problem)
        assert report.termination == "converged", (n, report.termination)
        assert report.iterations <= 7, (n, report.iterations)
        assert report.residual_history[-1][1] <= 1e-10
        assert sum(report.wall_times) < 5.0
        _UNTRUNCATED_RUNS.append((problem.p, problem.m, report))


@criterion(3, "20 random stable problems: factored iterates track the dense "
              "ones to 1e-10 and the converged solution matches the "
              "eigen-oracle to 1e-8")
def test_criterion_03_oracle_equivalence():
    t0 = perf_counter()
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(8, 33))
        mp = 1 + trial % 2
        problem = random_stable_problem(rng, n, mp=mp)
        alpha = choose_alpha(problem)

        lr = lowrank_state(problem, alpha)
        dn = dense_state(problem, alpha)
        for k in range(6):
            if k > 0:
                lr = radda_step(lr)
                dn = adda_step_dense(dn)
            X_lr = reconstruct(lr.D)
            dev = (np.linalg.norm(X_lr - dn.X, "fro")
                   / np.linalg.norm(dn.X, "fro"))
            assert dev <= 1e-10, (trial, k, dev)

        x, report = radda_solve(problem)
        assert report.termination == "converged", (trial, report.termination)
        Xstar = care_oracle_small(problem)
        rel = (np.linalg.norm(x.reconstruct() - Xstar, "fro")
               / np.linalg.norm(Xstar, "fro"))
        assert rel <= 1e-8, (trial, rel)
    assert perf_counter() - t0 < 30.0


@criterion(4, "scalar closed forms: X0 = 0.4, X1 = 12/29, "
              "limit sqrt(2) - 1, all to 1e-12")
def test_criterion_04_scalar_closed_forms():
    problem = scalar_problem()
    state = lowrank_state(problem, 1.0)
    x0 = float(reconstruct(state.D)[0, 0])
    assert abs(x0 - 0.4) <= 1e-12, x0

    state = radda_step(state)
    x1 = float(reconstruct(state.D)[0, 0])
    assert abs(x1 - 12.0 / 29.0) <= 1e-12, x1

    x, report = radda_solve(problem, alpha=1.0)
    assert report.termination == "converged"
    assert abs(float(x.reconstruct()[0, 0]) - (SQRT2 - 1.0)) <= 1e-12


@criterion(5, "closed-form iterate identities hold to 1e-9 for k <= 4 "
              "on the n = 8 first-family problem")
def test_criterion_05_doubling_identities():
    problem = make_example1(8)
    alpha = choose_alpha(problem)
    ctx = build_verification_context(problem, alpha)
    xstar_scale = np.linalg.norm(ctx.Xstar, "fro")
    state = dense_state(problem, alpha)
    for k in range(5):
        if k > 0:
            state = adda_step_dense(state)
        rep = verify_doubling_identities(state, ctx)
        ahat_scale = np.linalg.norm(state.ahat, "fro")
        assert rep.dev_ahat <= 1e-9 * ahat_scale, (k, rep.dev_ahat)
        # The gap identity is checked against the solution scale: the
        # iterate gap itself shrinks like ||ahat_k||^2 and falls below the
        # oracle's own error floor (~1e-16 absolute) by k = 4, so a bound
        # relative to the vanishing gap would measure oracle noise, not
        # the identity.
        assert rep.dev_gap <= 1e-9 * xstar_scale, (k, rep.dev_gap)


@criterion(6, "PSD order: increments and gaps to the oracle solutions "
              "stay above -1e-11/-1e-9 of scale on the small set")
def test_criterion_06_monotone_psd_order():
    for problem in small_problem_set():
        alpha = choose_alpha(problem)
        Xstar = care_oracle_small(problem)
        Ystar = care_oracle_small(dual_problem(problem))
        x_scale = float(np.abs(np.linalg.eigvalsh(Xstar)).max())
        y_scale = float(np.abs(np.linalg.eigvalsh(Ystar)).max())

        state = lowrank_state(problem, alpha)
        X_prev = Y_prev = None
        for k in range(6):
            if k > 0:
                state = radda_step(state)
            X = reconstruct(state.D)
            Y = reconstruct(state.P)
            if k > 0:
                inc_scale = float(np.abs(np.linalg.eigvalsh(X)).max())
                assert (np.linalg.eigvalsh(X - X_prev).min()
                        >= -1e-11 * inc_scale), (problem.n, k)
                inc_scale = float(np.abs(np.linalg.eigvalsh(Y)).max())
                assert (np.linalg.eigvalsh(Y - Y_prev).min()
                        >= -1e-11 * inc_scale), (problem.n, k)
            assert (np.linalg.eigvalsh(Xstar - X).min()
                    >= -1e-9 * x_scale), (problem.n, k)
            assert (np.linalg.eigvalsh(Ystar - Y).min()
                    >= -1e-9 * y_scale), (problem.n, k)
            X_prev, Y_prev = X, Y


@criterion(7, "symplectic pencil preserved to 1e-12 at every iterate "
              "on the small set")
def test_criterion_07_symplectic_pencil():
    for problem in small_problem_set():
        alpha = choose_alpha(problem)
        state = dense_state(problem, alpha)
        for k in range(6):
            if k > 0:
                state = adda_step_dense(state)
            dev = verify_symplectic_pencil(state)
            assert dev <= 1e-12, (problem.n, k, dev)


@criterion(8, "residual decay is at least quadratic-order "
              "(res_next <= res^1.5 above 1e-8) on both families")
def test_criterion_08_doubling_rate():
    constrained_pairs = 0
    for make, n in [(make_example1, 128), (make_example1, 256),
                    (make_example2, 128), (make_example2, 256)]:
        _, report = radda_solve(make(n))
        history = [r for _, r in report.residual_history]
        for res, res_next in zip(history, history[1:]):
            if res >= 1e-8:
                assert res_next <= res ** 1.5, (n, res, res_next)
                if res < 1.0:
                    constrained_pairs += 1
        _UNTRUNCATED_RUNS.append((make(n).p, make(n).m, report))
    # the check must have had teeth: some pairs sat strictly inside the
    # contracting regime
    assert constrained_pairs >= 4


@criterion(9, "rank law: untruncated factor widths are exactly p*2^k "
              "and m*2^k at every iterate of every run")
def test_criterion_09_rank_law():
    runs = list(_UNTRUNCATED_RUNS)
    # fresh runs so the check stands even in isolation
    for problem in (make_example1(64), make_example2(48),
                    random_stable_problem(np.random.default_rng(11), 24,
                                          mp=2)):
        _, report = radda_solve(problem)
        runs.append((problem.p, problem.m, report))
    assert len(runs) >= 3
    for p, m, report in runs:
        # the law is the iterates'; a Galerkin finish's final row holds
        # the width of the factor it returned
        finished = report.returned == "galerkin"
        assert len(report.rank_history) == report.iterations + 1 + finished
        iterates = report.rank_history[:report.iterations + 1]
        assert [k for k, _, _ in iterates] == list(range(len(iterates)))
        for k, rank_x, rank_y in iterates:
            assert rank_x == p * 2 ** k, (k, rank_x, p)
            assert rank_y == m * 2 ** k, (k, rank_y, m)


@criterion(10, "factored residual equals the dense residual on "
               "reconstructed iterates (1e-12 absolute; 1e-9 relative "
               "above the 1e-6 floor)")
def test_criterion_10_residual_agreement():
    for make in (make_example1, make_example2):
        for n in (4, 8, 16, 32, 64):
            problem = make(n)
            qn = qnorm(problem)
            state = lowrank_state(problem, choose_alpha(problem))
            for k in range(6):
                if k > 0:
                    state = radda_step(state)
                res_lr = residual_lowrank(problem, state.D, qn)
                res_dn = residual_dense(problem,
                                        reconstruct(state.D))
                assert abs(res_lr - res_dn) <= 1e-12, (n, k)
                # relative agreement is only meaningful above the
                # cancellation floor of the residual itself
                if res_dn >= 1e-6:
                    rel = abs(res_lr - res_dn) / res_dn
                    assert rel <= 1e-9, (n, k, rel)


@criterion(11, "low-rank mode beats dense mode wall-clock at "
               "n = 256/512 on both families")
def test_criterion_11_timing_trend():
    for make in (make_example1, make_example2):
        for n in (256, 512):
            problem = make(n)
            _, lr_report = radda_solve(problem)
            _, dn_report = adda_solve_dense(problem)
            t_lr = sum(lr_report.wall_times)
            t_dn = sum(dn_report.wall_times)
            assert t_lr < t_dn, (n, t_lr, t_dn)
