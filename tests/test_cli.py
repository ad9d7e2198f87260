"""Exercises the benchmark command line end to end via main().

Most tests call radda.cli.main(argv) directly and inspect exit codes plus
captured stdout. One subprocess test checks the radda-bench entry point that
pyproject.toml declares, by running the wrapper pip generates for a console
script; when an installed radda-bench is on PATH it checks that script too.
"""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import radda
from conftest import (convection_diffusion_problem, no_stabilizing_problem,
                      tiny_norm_problem, uncontrollable_problem,
                      unstable_problem)
from radda import SingularUpdateError, cli
from radda.cli import (COMPARE_HEADER, EXIT_BREAKDOWN, EXIT_EQUIVALENCE,
                       EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, RUN_HEADER,
                       SWEEP_HEADER, main)
from radda.problems import CareProblem, make_example1
from radda.serialize import save_problem


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_csv_trajectory(self, capsys):
        code, out, err = run_main(
            capsys, ["run", "--example", "1", "--n", "64"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == RUN_HEADER
        assert len(lines) >= 2
        # every row: iteration index, residual, two ranks, a wall time
        for i, line in enumerate(lines[1:]):
            k, res, rx, ry, ms = line.split(",")
            assert int(k) == i
            assert float(res) >= 0.0
            assert int(rx) == 2 ** i and int(ry) == 2 ** i
            assert float(ms) >= 0.0
        assert "termination=converged" in err

    def test_csv_floats_roundtrip_exactly(self, capsys):
        code, out, _ = run_main(
            capsys, ["run", "--example", "1", "--n", "32"])
        assert code == EXIT_OK
        from radda.lowrank import radda_solve
        _, report = radda_solve(make_example1(32))
        res_at = dict(report.residual_history)
        for line in out.splitlines()[1:]:
            k, res, _, _, _ = line.split(",")
            # repr-based CSV floats parse back to the exact binary value
            assert float(res) == res_at[int(k)]

    def test_json_trajectory(self, capsys):
        code, out, _ = run_main(
            capsys, ["run", "--example", "2", "--n", "32",
                     "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["command"] == "run"
        assert doc["mode"] == "lowrank"
        assert doc["n"] == 32
        assert doc["termination"] == "converged"
        assert doc["iterations"] == len(doc["rows"]) - 1
        assert doc["returned"] == "iterate"
        for row in doc["rows"]:
            assert set(row) == {"k", "res", "rank_x", "rank_y", "wall_ms"}

    def test_json_reports_galerkin_finish(self, capsys, tmp_path):
        # the finish's row follows the iterate's at the same k, and the
        # summary line reads the returned solution's residual
        path = tmp_path / "grid.json"
        save_problem(path, convection_diffusion_problem(
            np.random.default_rng(0), 16))
        code, out, err = run_main(
            capsys, ["run", "--problem", str(path), "--tol", "1e-10",
                     "--truncate-tol", "1e-13", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["returned"] == "galerkin"
        assert doc["termination"] == "converged"
        assert [row["k"] for row in doc["rows"]] == [0, 1, 2, 3, 4, 5, 5]
        assert doc["iterations"] == 5
        final = doc["rows"][-1]["res"]
        assert final <= 1e-10
        assert f"residual={final:.3e}" in err
        assert "returned=galerkin" in err

    def test_json_reports_default_shift(self, capsys):
        code, out, _ = run_main(
            capsys, ["run", "--example", "1", "--n", "32", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["alpha"] == 17.0

    def test_dense_mode(self, capsys):
        code, out, err = run_main(
            capsys, ["run", "--example", "1", "--n", "48",
                     "--mode", "dense"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == RUN_HEADER
        assert "dense: n=48" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run_main(
            capsys, ["run", "--example", "1", "--n", "32",
                     "--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().splitlines()[0] == RUN_HEADER

    def test_problem_file(self, capsys, tmp_path):
        path = tmp_path / "prob.json"
        save_problem(path, make_example1(24))
        code, out, _ = run_main(capsys, ["run", "--problem", str(path)])
        assert code == EXIT_OK
        assert out.splitlines()[0] == RUN_HEADER

    def test_alpha_and_truncation_flags(self, capsys):
        code, _, err = run_main(
            capsys, ["run", "--example", "1", "--n", "64",
                     "--alpha", "17.0", "--truncate-tol", "1e-12"])
        assert code == EXIT_OK
        assert "termination=converged" in err

    def test_budget_exhausted_is_exit_1(self, capsys):
        code, out, _ = run_main(
            capsys, ["run", "--example", "1", "--n", "32",
                     "--maxit", "1", "--tol", "1e-30"])
        assert code == EXIT_NOT_CONVERGED
        # trajectory still emitted for the completed iterations
        assert out.splitlines()[0] == RUN_HEADER
        assert len(out.splitlines()) == 3  # k = 0, 1

    def test_dense_breakdown_keeps_trajectory(self, capsys, monkeypatch):
        import radda.dense as dense_mod
        orig = dense_mod.adda_step_dense

        def failing_step(state):
            if state.k >= 1:
                raise SingularUpdateError("forced failure", k=state.k)
            return orig(state)

        monkeypatch.setattr(dense_mod, "adda_step_dense", failing_step)
        code, out, err = run_main(
            capsys, ["run", "--example", "1", "--n", "16", "--mode", "dense",
                     "--tol", "1e-30"])
        assert code == EXIT_BREAKDOWN
        lines = out.splitlines()
        assert lines[0] == RUN_HEADER
        # the rows of the iterates completed before the failed step
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1]
        assert "termination=breakdown" in err

    @pytest.mark.filterwarnings("error")
    def test_lowrank_breakdown_keeps_trajectory(self, capsys, tmp_path):
        # an unstable A from a problem file: the low-rank solve breaks
        # down on its own, and the rows before the failed step survive
        path = tmp_path / "unstable.json"
        save_problem(path, unstable_problem())
        code, out, err = run_main(capsys, ["run", "--problem", str(path)])
        assert code == EXIT_BREAKDOWN
        lines = out.splitlines()
        assert lines[0] == RUN_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert 2 <= len(rows) <= 10
        for i, (k, res, rx, ry, _) in enumerate(rows):
            assert int(k) == i and int(rx) == int(ry) == 2 ** i
            assert np.isfinite(float(res))
        # the failed step is the one after the last row
        assert f"at iteration {len(rows) - 1}" in err
        assert "termination=breakdown" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_residual_is_exit_3(self, capsys, tmp_path):
        # no stabilizing solution: the iterates grow until the residual
        # overflows, which is a breakdown and not a usage error
        path = tmp_path / "uncontrollable.json"
        save_problem(path, uncontrollable_problem())
        code, out, err = run_main(capsys, ["run", "--problem", str(path)])
        assert code == EXIT_BREAKDOWN
        lines = out.splitlines()
        assert lines[0] == RUN_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) >= 2
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        assert all(np.isfinite(float(row[1])) for row in rows)
        assert f"residual is not finite at iteration {len(rows)}" in err
        assert "termination=breakdown" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["lowrank", "dense"])
    def test_overflowing_iterate_is_exit_3(self, capsys, tmp_path, mode):
        # B = 0 and A's +1 mode: no stabilizing solution, and the step
        # from k = 8 overflows in both engines
        path = tmp_path / "no_stabilizing.json"
        save_problem(path, no_stabilizing_problem())
        code, out, err = run_main(
            capsys, ["run", "--problem", str(path), "--mode", mode])
        assert code == EXIT_BREAKDOWN
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(9))
        assert all(np.isfinite(float(row[1])) for row in rows)
        assert "termination=breakdown" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["lowrank", "dense"])
    @pytest.mark.parametrize("scale, p, alpha", [
        (1e-300, 1, ["--alpha", "1e-300"]),
        (1e-300, 1, []),
        (1e-100, 2, ["--alpha", "1e-100"]),
    ], ids=["overflow-alpha", "overflow-default", "indefinite-alpha"])
    def test_unusable_shift_is_exit_3(self, capsys, tmp_path, mode, scale,
                                      p, alpha):
        # the start at the given shift, or at every rung of the default
        # search, overflows or is not positive definite
        path = tmp_path / "tiny.json"
        save_problem(path, tiny_norm_problem(scale, p))
        code, out, err = run_main(
            capsys, ["run", "--problem", str(path), "--mode", mode] + alpha)
        assert code == EXIT_BREAKDOWN
        assert out == ""
        assert "shift" in err

    @pytest.mark.usefixtures("overflowing_apply")
    def test_non_finite_apply_is_exit_3(self, capsys):
        code, out, err = run_main(
            capsys, ["run", "--example", "1", "--n", "64", "--alpha", "17"])
        assert code == EXIT_BREAKDOWN
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [0, 1]
        assert "operator apply is non-finite at iteration 1" in err
        assert "termination=breakdown" in err

    @pytest.mark.filterwarnings("error")
    def test_problem_file_without_outputs(self, capsys, tmp_path):
        # C = p x 0 makes ||Q||_2 = 0: every iterate is X = 0 and its
        # absolute residual, exactly 0.0, is reported without a warning
        path = tmp_path / "no-outputs.json"
        p = make_example1(32)
        save_problem(path, CareProblem(p.A, p.B, np.zeros((0, 32))))
        code, out, err = run_main(capsys, ["run", "--problem", str(path)])
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[:2] == ["0", "0.0"]
        assert "termination=converged" in err

    def test_problem_file_without_inputs(self, capsys, tmp_path):
        # B = n x 0 leaves a Lyapunov equation, which the solver accepts,
        # so its problem file must load and solve
        path = tmp_path / "lyapunov.json"
        p = make_example1(32)
        save_problem(path, CareProblem(p.A, np.zeros((32, 0)), p.C))
        code, _, err = run_main(capsys, ["run", "--problem", str(path)])
        assert code == EXIT_OK
        assert "termination=converged" in err

    def test_singular_shift_is_exit_3(self, capsys, tmp_path):
        # alpha = 1 is an eigenvalue of A = I, so the shifted
        # factorisation is singular
        path = tmp_path / "identity.json"
        problem = CareProblem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
        save_problem(path, problem)
        code, _, err = run_main(capsys, ["run", "--problem", str(path),
                                         "--alpha", "1"])
        assert code == EXIT_BREAKDOWN
        assert "error:" in err

    @pytest.mark.parametrize("sparse", [True, False])
    def test_dense_singular_shift_is_exit_3(self, capsys, tmp_path, sparse):
        path = tmp_path / "identity.json"
        A = sp.identity(2, format="csr") if sparse else np.eye(2)
        save_problem(path, CareProblem(A, np.ones((2, 1)), np.ones((1, 2))))
        code, _, err = run_main(capsys, ["run", "--problem", str(path),
                                         "--mode", "dense", "--alpha", "1"])
        assert code == EXIT_BREAKDOWN
        assert "singular" in err


class TestUsageErrors:
    def test_missing_source(self, capsys):
        code, _, err = run_main(capsys, ["run"])
        assert code == EXIT_USAGE
        assert "--example" in err and "--problem" in err

    def test_problem_with_n(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_problem(path, make_example1(8))
        code, _, err = run_main(
            capsys, ["run", "--problem", str(path), "--n", "16"])
        assert code == EXIT_USAGE
        assert "--n" in err

    def test_run_mode_both(self, capsys):
        code, _, err = run_main(
            capsys, ["run", "--example", "1", "--mode", "both"])
        assert code == EXIT_USAGE
        assert "invalid choice" in err

    def test_n_below_family_minimum(self, capsys):
        code, _, _ = run_main(capsys, ["run", "--example", "2", "--n", "2"])
        assert code == EXIT_USAGE

    def test_bad_tolerances(self, capsys):
        for argv in (["run", "--example", "1", "--tol", "0"],
                     ["run", "--example", "1", "--maxit", "0"],
                     ["run", "--example", "1", "--truncate-tol", "-1"],
                     # a cutoff of 1 or more truncates every factor to
                     # width 0; --maxit bounds the run should it be accepted
                     ["run", "--example", "1", "--maxit", "2",
                      "--truncate-tol", "1"],
                     ["run", "--example", "1", "--maxit", "2",
                      "--truncate-tol", "inf"],
                     # --maxit bounds the run should a NaN be accepted
                     ["run", "--example", "1", "--maxit", "2",
                      "--tol", "nan"],
                     ["run", "--example", "1", "--maxit", "2",
                      "--truncate-tol", "nan"]):
            code, _, _ = run_main(capsys, argv)
            assert code == EXIT_USAGE

    def test_missing_problem_file(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, ["run", "--problem", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_dense_over_cap(self, capsys):
        code, _, err = run_main(
            capsys, ["run", "--example", "1", "--n", "600",
                     "--mode", "dense"])
        assert code == EXIT_USAGE
        assert "dense cap" in err

    @pytest.mark.parametrize("argv", [
        ["compare", "--example", "1", "--n", "32", "--truncate-tol", "1e-3"],
        ["compare", "--example", "1", "--n", "32", "--mode", "dense"],
        ["sweep", "--example", "1", "--sizes", "32", "--n", "64"],
    ])
    def test_unread_flag_rejected(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--example", "1", "--n", "32"],
        ["sweep", "--example", "1", "--sizes", "32"],
    ])
    def test_dense_mode_rejects_truncation(self, capsys, argv):
        # the dense engine has no truncation, so the flag would be ignored
        code, out, err = run_main(
            capsys, argv + ["--mode", "dense", "--truncate-tol", "1e-3"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--truncate-tol" in err


class TestCompare:
    def test_lockstep_csv(self, capsys):
        code, out, err = run_main(
            capsys, ["compare", "--example", "1", "--n", "24"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == COMPARE_HEADER
        # both engines expand one k = 0 operator, so they start equal
        assert lines[1].split(",")[3] == "0.0"
        for line in lines[1:]:
            _, res_lr, res_dn, dev = line.split(",")
            assert float(dev) <= cli.EQUIVALENCE_THRESHOLD
            assert float(res_lr) >= 0.0 and float(res_dn) >= 0.0
        assert "max_deviation" in err

    def test_lockstep_json(self, capsys):
        code, out, _ = run_main(
            capsys, ["compare", "--example", "2", "--n", "16",
                     "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["command"] == "compare"
        assert doc["max_deviation"] <= cli.EQUIVALENCE_THRESHOLD
        assert doc["rows"][-1]["res_lowrank"] <= 1e-12

    def test_deviation_gate_is_exit_4(self, capsys, monkeypatch):
        # force the gate shut so any deviation at all trips it
        monkeypatch.setattr(cli, "EQUIVALENCE_THRESHOLD", -1.0)
        code, _, err = run_main(
            capsys, ["compare", "--example", "1", "--n", "16"])
        assert code == EXIT_EQUIVALENCE
        assert "exceeds" in err

    def test_singular_shift_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "identity.json"
        save_problem(path, CareProblem(np.eye(3), np.ones((3, 1)),
                                       np.ones((1, 3))))
        code, out, err = run_main(capsys, ["compare", "--problem", str(path),
                                           "--alpha", "1"])
        assert code == EXIT_BREAKDOWN
        assert out.splitlines() == [COMPARE_HEADER]
        assert "singular" in err

    @pytest.mark.filterwarnings("error")
    def test_unusable_default_shift_is_exit_3(self, capsys, tmp_path):
        # every rung of the default search gives an overflowing start
        path = tmp_path / "tiny.json"
        save_problem(path, tiny_norm_problem(1e-300))
        code, out, err = run_main(capsys, ["compare", "--problem", str(path)])
        assert code == EXIT_BREAKDOWN
        assert out.splitlines() == [COMPARE_HEADER]
        assert "shift" in err

    @pytest.mark.parametrize("alpha, expect", [([], None),
                                               (["--alpha", "1e-300"], 1e-300)])
    def test_json_alpha_without_report(self, capsys, tmp_path, alpha, expect):
        path = tmp_path / "tiny.json"
        save_problem(path, tiny_norm_problem(1e-300))
        code, out, _ = run_main(capsys, ["compare", "--problem", str(path),
                                         "--format", "json"] + alpha)
        assert code == EXIT_BREAKDOWN
        doc = json.loads(out)
        assert doc["alpha"] == expect
        assert doc["rows"] == []

    def test_json_alpha_of_breakdown_report(self, capsys, tmp_path):
        # the dense engine's I + Y X turns singular at k = 5; the partial
        # report names the default shift
        path = tmp_path / "uncontrollable.json"
        save_problem(path, uncontrollable_problem())
        code, out, _ = run_main(capsys, ["compare", "--problem", str(path),
                                         "--format", "json"])
        assert code == EXIT_BREAKDOWN
        doc = json.loads(out)
        assert len(doc["rows"]) == 6
        assert doc["alpha"] == radda.choose_alpha(uncontrollable_problem())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_iterate_is_exit_3(self, capsys, tmp_path, fmt):
        # as in run: rows k = 0 ... 8, then the step from k = 8 overflows.
        # The k = 8 deviation overflows first; it warns nothing, and
        # max_deviation shows it instead of skipping it
        path = tmp_path / "no_stabilizing.json"
        save_problem(path, no_stabilizing_problem())
        code, out, err = run_main(
            capsys, ["compare", "--problem", str(path), "--format", fmt])
        assert code == EXIT_BREAKDOWN
        if fmt == "csv":
            rows = [line.split(",") for line in out.splitlines()[1:]]
            ks = [int(row[0]) for row in rows]
            devs = [float(row[3]) for row in rows]
        else:
            doc = json.loads(out)
            ks = [row["k"] for row in doc["rows"]]
            devs = [row["x_deviation"] for row in doc["rows"]]
            assert not np.isfinite(doc["max_deviation"])
        assert ks == list(range(9))
        assert all(dev <= cli.EQUIVALENCE_THRESHOLD for dev in devs[:8])
        assert not np.isfinite(devs[8])
        assert "max_deviation=nan" in err

    def test_json_alpha_matches_run(self, capsys):
        source = ["--example", "1", "--n", "64", "--format", "json"]
        code, out, _ = run_main(capsys, ["compare"] + source)
        assert code == EXIT_OK
        _, run_out, _ = run_main(capsys, ["run"] + source)
        assert json.loads(out)["alpha"] == json.loads(run_out)["alpha"]

    def test_over_cap(self, capsys):
        code, _, err = run_main(
            capsys, ["compare", "--example", "1", "--n", "600"])
        assert code == EXIT_USAGE
        assert "dense cap" in err


class TestSweep:
    def test_grid_csv(self, capsys):
        code, out, err = run_main(
            capsys, ["sweep", "--example", "1", "--sizes", "16,32",
                     "--alphas", "auto"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3
        sizes = []
        for line in lines[1:]:
            n, alpha, res, it, cpu, status = line.split(",")
            sizes.append(int(n))
            assert float(alpha) > 0.0
            assert float(res) <= 1e-11
            assert int(it) >= 1
            assert status == "converged"
        assert sizes == [16, 32]
        assert "2 converged" in err

    def test_explicit_alphas_json(self, capsys):
        code, out, _ = run_main(
            capsys, ["sweep", "--example", "1", "--sizes", "16",
                     "--alphas", "17.0,20.0", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [row["alpha"] for row in doc["rows"]] == [17.0, 20.0]
        assert all(row["status"] == "converged" for row in doc["rows"])

    def test_failed_row_recorded_not_fatal(self, capsys):
        # n = 1 is below the family minimum: the row records the error and
        # the rest of the grid still runs
        code, out, _ = run_main(
            capsys, ["sweep", "--example", "1", "--sizes", "1,16"])
        assert code == EXIT_NOT_CONVERGED
        lines = out.splitlines()
        assert len(lines) == 3
        assert "error:ValueError" in lines[1]
        assert lines[2].endswith("converged")

    @pytest.mark.parametrize("flags", [
        ["--sizes", ""],
        ["--sizes", "32", "--alphas", ","],
        ["--sizes", "32", "--alphas", ""],
    ], ids=["sizes", "alphas-comma", "alphas-empty"])
    def test_empty_sizes(self, capsys, flags):
        code, _, _ = run_main(capsys, ["sweep", "--example", "1", *flags])
        assert code == EXIT_USAGE

    def test_bad_sizes_and_alphas(self, capsys):
        code, _, _ = run_main(
            capsys, ["sweep", "--example", "1", "--sizes", "big"])
        assert code == EXIT_USAGE
        code, _, _ = run_main(
            capsys, ["sweep", "--example", "1", "--alphas", "fast"])
        assert code == EXIT_USAGE

    def test_requires_example(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_problem(path, make_example1(8))
        code, _, err = run_main(capsys, ["sweep", "--problem", str(path)])
        assert code == EXIT_USAGE
        assert "--example" in err

    def test_mode_both_rejected(self, capsys):
        code, _, _ = run_main(
            capsys, ["sweep", "--example", "1", "--mode", "both"])
        assert code == EXIT_USAGE


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The wrapper pip writes for a console script entry "name = module:attr",
# less its stripping of Windows "-script.pyw"/".exe" suffixes from argv[0].
CONSOLE_SCRIPT = """\
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.exit({attr}())
"""


def _assert_console_run(command, env):
    proc = subprocess.run(
        [*command, "run", "--example", "1", "--n", "32"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[0] == RUN_HEADER
    assert "termination=converged" in proc.stderr


def test_console_script_installed(tmp_path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    entry = EntryPoint("radda-bench", scripts["radda-bench"],
                       "console_scripts")
    assert entry.load() is main

    # the child process imports the radda package under test, not some
    # other install of it
    src = str(Path(radda.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))

    wrapper = tmp_path / "radda-bench"
    wrapper.write_text(
        CONSOLE_SCRIPT.format(module=entry.module, attr=entry.attr))
    _assert_console_run([sys.executable, str(wrapper)], env)

    installed = shutil.which("radda-bench")
    if installed is not None:
        _assert_console_run([installed], env)
