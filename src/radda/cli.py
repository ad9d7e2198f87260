"""Benchmark harness for the Riccati solvers.

Subcommands
-----------
run      one solve (low-rank or dense mode), per-iteration records out
compare  both solvers in lockstep on one problem, per-iteration deviation
sweep    size/shift grid in one mode, one summary row per run

Each subcommand accepts only the flags it reads.  Data goes to --out or
stdout (CSV or JSON); human-readable summaries go to stderr.  Exit codes:
0 converged, 1 not converged within the budget, 2 usage error, 3 iteration
breakdown, 4 low-rank/dense equivalence regression (compare only).
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import numpy as np

from .cayley import ShiftSingularError
from .dense import adda_solve_dense, adda_step_dense, init_dense
from .lowrank import drive, init_lowrank, radda_solve, radda_step, \
    residual_lowrank
from .problems import BreakdownError, CareProblem, make_example1, \
    make_example2, qnorm, residual_dense
from .serialize import load_problem

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_USAGE = 2
EXIT_BREAKDOWN = 3
EXIT_EQUIVALENCE = 4

#: compare mode flags a regression when the factored iterate drifts from the
#: dense iterate beyond this relative Frobenius distance
EQUIVALENCE_THRESHOLD = 1e-9

RUN_HEADER = "k,res,rank_x,rank_y,wall_ms"
COMPARE_HEADER = "k,res_lowrank,res_dense,x_deviation"
SWEEP_HEADER = "n,alpha,res,it,cpu_s,status"


def _example(family: int, n: int) -> CareProblem:
    return (make_example1 if family == 1 else make_example2)(n)


def _load(args) -> CareProblem:
    if args.problem is not None:
        return load_problem(args.problem)
    return _example(args.example, 128 if args.n is None else args.n)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join("" if v is None else
                              (repr(float(v)) if isinstance(v, float) else str(v))
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(meta: dict, columns: list, rows) -> str:
    doc = dict(meta)
    doc["rows"] = [dict(zip(columns, row)) for row in rows]
    return json.dumps(doc, indent=2, default=float) + "\n"


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _solve(problem: CareProblem, args, alpha: float | None):
    """One solve in args.mode ("lowrank" or "dense"): (solution, report)."""
    if args.mode == "dense":
        return adda_solve_dense(problem, alpha=alpha, tol=args.tol,
                                maxit=args.maxit)
    return radda_solve(problem, alpha=alpha, tol=args.tol, maxit=args.maxit,
                       truncate_tol=args.truncate_tol)


def cmd_run(args) -> int:
    """One solve; emits the per-iteration trajectory."""
    problem = _load(args)
    report = None
    code = EXIT_OK
    try:
        _, report = _solve(problem, args, args.alpha)
        if report.termination != "converged":
            code = EXIT_NOT_CONVERGED
    except BreakdownError as exc:
        _info(f"error: {exc}")
        report = exc.report
        code = EXIT_BREAKDOWN
    except ShiftSingularError as exc:
        _info(f"error: {exc}")
        code = EXIT_BREAKDOWN

    if report is not None:
        rows = [(k, res, rx, ry, 1e3 * t) for (k, res), (_, rx, ry), t in
                zip(report.residual_history, report.rank_history,
                    report.wall_times)]
        if args.fmt == "csv":
            _emit(_csv(RUN_HEADER, rows), args.out)
        else:
            meta = {
                "command": "run",
                "mode": args.mode,
                "n": problem.n,
                "alpha": report.alpha,
                "tol": args.tol,
                "iterations": report.iterations,
                "termination": report.termination,
                "returned": report.returned,
            }
            _emit(_json_doc(meta, RUN_HEADER.split(","), rows), args.out)
        final = report.residual_history[-1][1] if report.residual_history else float("nan")
        _info(f"{args.mode}: n={problem.n} iterations={report.iterations} "
              f"residual={final:.3e} termination={report.termination} "
              f"returned={report.returned} "
              f"time={sum(report.wall_times):.3f}s")
    return code


def cmd_compare(args) -> int:
    """Both solvers in lockstep; emits per-iteration residuals and the
    relative Frobenius deviation of the reconstructed factored iterate."""
    problem = _load(args)
    qn = qnorm(problem)
    rows = []

    def residuals(pair):
        lr, dn = pair
        res_lr = residual_lowrank(problem, lr.D, qn)
        res_dn = residual_dense(problem, dn.X)
        D = np.hstack(lr.D)
        # iterates that overflow give a non-finite deviation, which the
        # row and max_deviation report; the residuals end the run
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.linalg.norm(dn.X, "fro")
            dev = np.linalg.norm(D @ D.T - dn.X, "fro") / (scale or 1.0)
        rows.append((lr.k, float(res_lr), float(res_dn), float(dev)))
        return max(res_lr, res_dn)

    try:
        _, report = drive(
            problem, args.alpha, lambda op: (init_lowrank(op), init_dense(op)),
            lambda pair: (radda_step(pair[0]), adda_step_dense(pair[1])),
            residuals, lambda pair: (pair[0].rank_x, pair[0].rank_y),
            args.tol, args.maxit)
        converged = report.termination == "converged"
        code = EXIT_OK if converged else EXIT_NOT_CONVERGED
    except (BreakdownError, ShiftSingularError) as exc:
        _info(f"error: {exc}")
        report = getattr(exc, "report", None)
        code = EXIT_BREAKDOWN
    # np.max, unlike max, lets a NaN row through
    max_dev = float(np.max([row[3] for row in rows], initial=0.0))

    if args.fmt == "csv":
        _emit(_csv(COMPARE_HEADER, rows), args.out)
    else:
        meta = {
            "command": "compare",
            "n": problem.n,
            "alpha": args.alpha if report is None else report.alpha,
            "tol": args.tol,
            "max_deviation": max_dev,
        }
        _emit(_json_doc(meta, COMPARE_HEADER.split(","), rows), args.out)
    _info(f"compare: n={problem.n} steps={len(rows)} "
          f"max_deviation={max_dev:.3e}")
    if code == EXIT_OK and not max_dev <= EQUIVALENCE_THRESHOLD:
        _info(f"error: low-rank/dense deviation {max_dev:.3e} exceeds "
              f"{EQUIVALENCE_THRESHOLD:.1e}")
        return EXIT_EQUIVALENCE
    return code


def cmd_sweep(args, sizes: list, alphas: list) -> int:
    """Grid of runs; one summary row per (n, alpha) pair.

    Individual failures are recorded in the status column and the sweep
    keeps going.
    """
    if not sizes or not alphas:
        _info("error: --sizes and --alphas must each name at least one value")
        return EXIT_USAGE
    rows = []
    all_converged = True
    for n in sizes:
        for a in alphas:
            t0 = perf_counter()
            try:
                _, report = _solve(_example(args.example, n), args, a)
                elapsed = perf_counter() - t0
                res = report.residual_history[-1][1]
                rows.append((n, report.alpha, float(res),
                             report.iterations, float(elapsed),
                             report.termination))
                if report.termination != "converged":
                    all_converged = False
            except Exception as exc:  # per-row capture by design
                elapsed = perf_counter() - t0
                rows.append((n, None if a is None else float(a), None, None,
                             float(elapsed), f"error:{type(exc).__name__}"))
                all_converged = False
    if args.fmt == "csv":
        _emit(_csv(SWEEP_HEADER, rows), args.out)
    else:
        meta = {"command": "sweep", "mode": args.mode, "tol": args.tol}
        _emit(_json_doc(meta, SWEEP_HEADER.split(","), rows), args.out)
    _info(f"sweep: {len(rows)} runs, "
          f"{sum(1 for r in rows if r[5] == 'converged')} converged")
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radda-bench",
        description="Benchmark driver for the low-rank Riccati doubling solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-12,
                        help="relative residual stopping tolerance")
    common.add_argument("--maxit", type=int, default=30,
                        help="iteration budget")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv", help="output format")
    common.add_argument("--out", default=None,
                        help="write records here instead of stdout")

    one_problem = argparse.ArgumentParser(add_help=False)
    src = one_problem.add_mutually_exclusive_group(required=True)
    src.add_argument("--example", type=int, choices=(1, 2),
                     help="built-in problem family")
    src.add_argument("--problem", metavar="PATH",
                     help="JSON problem file (see radda.serialize)")
    one_problem.add_argument("--n", type=int, default=None,
                             help="problem size for --example (default 128)")
    one_problem.add_argument("--alpha", type=float, default=None,
                             help="shift override (default: "
                                  "choose_alpha's power-of-two search)")

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--mode", choices=("lowrank", "dense"),
                        default="lowrank", help="solver selection")
    engine.add_argument("--truncate-tol", type=float, default=0.0,
                        help="factor recompression cutoff in [0, 1) "
                             "(0 = off; lowrank mode only)")

    sub.add_parser("run", parents=[one_problem, engine, common],
                   help="single solve, per-iteration records")
    sub.add_parser("compare", parents=[one_problem, common],
                   help="low-rank and dense solvers in lockstep")
    sweep = sub.add_parser("sweep", parents=[engine, common],
                           help="size/shift grid, one row per run")
    sweep.add_argument("--example", type=int, choices=(1, 2), required=True,
                       help="built-in problem family")
    sweep.add_argument("--sizes", default="128,256,512",
                       help="comma-separated problem sizes")
    sweep.add_argument("--alphas", default="auto",
                       help="comma-separated shifts, or 'auto'")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code

    # sweep reads no --problem or --n, and compare no --truncate-tol
    if getattr(args, "problem", None) is not None and args.n is not None:
        _info("error: --n only applies to the built-in --example families")
        return EXIT_USAGE
    if (not args.tol > 0 or args.maxit < 1
            or not 0 <= getattr(args, "truncate_tol", 0.0) < 1):
        _info("error: --tol must be > 0, --maxit >= 1, --truncate-tol in "
              "[0, 1)")
        return EXIT_USAGE
    if getattr(args, "mode", None) == "dense" and args.truncate_tol > 0:
        _info("error: --truncate-tol applies to --mode lowrank only; the "
              "dense engine does not truncate")
        return EXIT_USAGE

    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError:
            _info(f"error: bad --sizes value {args.sizes!r}")
            return EXIT_USAGE
        if args.alphas.strip() == "auto":
            alphas = [None]
        else:
            try:
                alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
            except ValueError:
                _info(f"error: bad --alphas value {args.alphas!r}")
                return EXIT_USAGE
        return cmd_sweep(args, sizes, alphas)
    except (ValueError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
