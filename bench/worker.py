"""Benchmark worker: one fresh process per set-up sample or measured run.

run.py starts it as

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --workdir DIR [--smoke] [--spans FILE]

and reads one JSON object per stdout line: {"event": "ready"} as soon as
the inputs are built, then, except in setup mode, {"event": "result"}.

measure  closed loop with one caller: radda_solve (and, on dense instances,
         adda_solve_dense) back to back until --seconds have passed and
         every instance was solved once; every output is checked.
trace    the same loop, each solve run untraced and traced, in alternating
         order; the traced solve must reproduce the untraced history
         exactly.  Ends with one CLI run on the first instance and writes
         the spans to --spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from workloads import (MEM_MB, SMOKE_WORKLOADS,  # noqa: E402
                       SOLVE_TIMEOUT_S, WORKLOADS)

CLI_TIMEOUT_S = 90.0


class SolveTimeout(Exception):
    """A solve ran past the benchmark's wall-time bound."""


def _on_alarm(signum, frame):
    raise SolveTimeout("solve exceeded the benchmark's time bound")


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


@contextmanager
def time_bound(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def bounded_call(fn, problem, bound: float, **kwargs):
    """One solve under the time bound: (solution, report, seconds, error)."""
    t0 = perf_counter()
    try:
        with time_bound(bound):
            x, report = fn(problem, **kwargs)
    except Exception as exc:  # any failure of a solve is counted, not fatal
        return None, None, perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return x, report, perf_counter() - t0, None


def history(report) -> tuple:
    return (report.iterations, report.termination,
            tuple(report.residual_history), tuple(report.rank_history))


def max_width(report) -> int:
    return max(max(rx, ry) for _, rx, ry in report.rank_history)


def record(entry, instance, seconds, error, report, rank):
    rec = {"entry": entry, "instance": instance, "seconds": seconds,
           "failed": [error] if error else []}
    if report is not None:
        rec.update(doublings=report.iterations, max_width=max_width(report),
                   rank=rank, termination=report.termination)
    return rec


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def library_versions() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "rlimit_as_mb": resource.getrlimit(resource.RLIMIT_AS)[0] >> 20}


class Runner:
    """The closed loop over one workload's instances, with output checks."""

    def __init__(self, workload, problems, files, seed, tracer=None):
        import numpy as np
        import radda
        import checks
        self.radda, self.checks = radda, checks
        self.workload = workload
        self.problems = problems
        self.files = files
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 1])
        self.oracles = {}
        self.records = []
        self.first_report = None
        self.peak_rss_mb = None
        self.traced = {"lowrank": [], "dense": []}
        self.untraced_s = {"lowrank": [], "dense": []}

    def _solve(self, kind, fn, k, kwargs, span_name, i):
        """One untraced solve, and in trace mode a traced repeat of it;
        kind is "lowrank" or "dense", i the solve's place in the loop."""
        def untraced():
            return bounded_call(fn, self.problems[k], SOLVE_TIMEOUT_S,
                                **kwargs)
        if self.tracer is None:
            return untraced()
        solve_id = f"{kind}-{i}"

        def traced():
            with self.tracer.installed(solve_id), self.tracer.span(span_name):
                return untraced()
        # alternate the order, so that neither solve always runs second,
        # on memory the first one has already touched
        if i % 2:
            _, treport, tsecs, terr = traced()
            x, report, secs, err = untraced()
        else:
            x, report, secs, err = untraced()
            _, treport, tsecs, terr = traced()
        if err:
            return x, report, secs, err
        if terr or history(treport) != history(report):
            err = terr or "traced solve diverged from the untraced solve"
        else:
            self.traced[kind].append((solve_id, treport, tsecs))
            self.untraced_s[kind].append(secs)
        return x, report, secs, err

    def run_instance(self, i: int) -> None:
        w, radda = self.workload, self.radda
        k = i % len(self.problems)
        problem = self.problems[k]
        x, report, secs, err = self._solve(
            "lowrank", radda.radda_solve, k, w.solver_kwargs(),
            "lowrank.radda_solve", i)
        if self.peak_rss_mb is None:
            # through set-up and one solve only: later solves add allocator
            # fragmentation that grows with how many solves fit in the run,
            # and which instance is solved first is fixed by the seed
            self.peak_rss_mb = peak_rss_mb()
            self.first_report = report
        lr = record("radda_solve", k, secs, err, report,
                    None if x is None else x.rank)
        self.records.append(lr)
        refs = None
        if w.kind == "dense":
            X, dreport, dsecs, derr = self._solve(
                "dense", radda.adda_solve_dense, k,
                {"tol": w.tol}, "dense.adda_solve_dense", i)
            dn = record("adda_solve_dense", k, dsecs, derr, dreport, None)
            self.records.append(dn)
            try:
                oracle = self.oracle(k)
                if X is not None:
                    dn["failed"] += self.checks.check_dense(w, problem, X,
                                                            dreport, oracle)
                refs = {"oracle": oracle}
                if X is not None:
                    refs["dense"] = X
            except Exception as exc:  # an oracle failure fails the instance
                dn["failed"].append(f"oracle: {type(exc).__name__}: {exc}")
        if x is not None:
            try:
                lr["failed"] += self.checks.check_lowrank(
                    w, problem, x, report, self.rng, refs)
            except Exception as exc:  # a check that cannot run is a failure
                lr["failed"].append(f"check: {type(exc).__name__}: {exc}")

    def oracle(self, k: int):
        if k not in self.oracles:
            self.oracles[k] = self.radda.care_oracle_small(self.problems[k])
        return self.oracles[k]

    def loop(self, seconds: float) -> None:
        """Solve the instances in turn until `seconds` have passed and each
        was solved once."""
        deadline = perf_counter() + seconds
        i = 0
        while i < len(self.problems) or perf_counter() < deadline:
            self.run_instance(i)
            i += 1

    def cli_check(self) -> tuple:
        """Run the CLI on the first instance: (seconds, failure or None)."""
        w = self.workload
        if w.kind == "example2":
            source = ["--example", "2", "--n", str(w.size)]
        else:
            source = ["--problem", str(self.files[0])]
        cmd = [sys.executable, "-m", "radda.cli", "run", *source,
               "--tol", repr(w.tol), "--truncate-tol", repr(w.truncate_tol),
               "--format", "json"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, "cli: timed out"
        secs = perf_counter() - t0
        if proc.returncode != 0:
            return secs, f"cli: exit {proc.returncode}: {proc.stderr[-300:]}"
        try:
            doc = json.loads(proc.stdout)
            got = (doc["iterations"], doc["termination"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return secs, f"cli: unreadable output: {exc}"
        ref = self.first_report
        if ref is None:
            return secs, "cli: no library solve to compare with"
        if got != (ref.iterations, ref.termination):
            return secs, (f"cli: {got[0]} iterations, {got[1]}; library: "
                          f"{ref.iterations}, {ref.termination}")
        return secs, None

    def layer_metrics(self) -> dict:
        """Per-layer metrics: medians over the traced solves."""
        rows = []
        for sid, report, _ in self.traced["lowrank"]:
            L = self.tracer.layers(sid)
            base_cols = _get(L, "cayley.base_apply", "cols")
            rows.append({
                "cayley.choose_alpha_s": _get(L, "cayley.choose_alpha"),
                "cayley.build_shifted_s": _get(L, "cayley.build_shifted"),
                "cayley.init_lowrank_s": _get(L, "cayley.init_lowrank"),
                "cayley.base_apply_s": _get(L, "cayley.base_apply"),
                "cayley.base_apply.calls": _get(L, "cayley.base_apply",
                                                "calls"),
                "cayley.base_apply.cols": base_cols,
                "lowrank.apply_ahat_s": _get(L, "lowrank.apply_ahat"),
                "lowrank.apply_ahat.calls": _get(L, "lowrank.apply_ahat",
                                                 "calls"),
                "lowrank.chain_self_s": _get(L, "lowrank.apply_ahat",
                                             "self_s"),
                "lowrank.step_s": _get(L, "lowrank.radda_step"),
                "lowrank.core_self_s": _get(L, "lowrank.radda_step",
                                            "self_s"),
                "lowrank.truncate_s": _get(L, "lowrank.truncate_factors"),
                "lowrank.truncate.calls": _get(L, "lowrank.truncate_factors",
                                               "calls"),
                "lowrank.residual_s": _get(L, "lowrank.residual_lowrank"),
                "lowrank.residual.calls": _get(L, "lowrank.residual_lowrank",
                                               "calls"),
                "lowrank.doublings": report.iterations,
                "lowrank.max_width": max_width(report),
                "lowrank.base_cols_per_rank":
                    base_cols / max(report.rank_history[-1][1], 1),
                "lowrank.driver_self_s": _get(L, "lowrank.radda_solve",
                                              "self_s"),
            })
        for sid, report, _ in self.traced["dense"]:
            L = self.tracer.layers(sid)
            rows.append({
                "dense.init_s": _get(L, "dense.init_dense"),
                "dense.step_s": _get(L, "dense.adda_step_dense"),
                "dense.residual_s": _get(L, "dense.residual_dense"),
                "dense.doublings": report.iterations,
            })
        med = statistics.median
        out = {name: med(row[name] for row in rows if name in row)
               for name in {name for row in rows for name in row}}
        setup = self.tracer.layers("setup")
        loads = setup.get("serialize.load_problem")
        out["problems.make_example_s"] = _get(setup, "problems.make_example2")
        out["serialize.load_s"] = loads["s"] / loads["calls"] if loads else 0.0
        out["serialize.file_mb"] = (
            statistics.fmean(f.stat().st_size for f in self.files) / 2 ** 20
            if self.files else 0.0)
        traced_lr = [secs for _, _, secs in self.traced["lowrank"]]
        if traced_lr:
            out["trace.overhead_s"] = (med(traced_lr)
                                       - med(self.untraced_s["lowrank"]))
        if self.untraced_s["dense"]:
            out["dense_solve_s"] = med(self.untraced_s["dense"])
        return out


def _get(layers: dict, name: str, key: str = "s"):
    return layers.get(name, {}).get(key, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]

    limit = MEM_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _on_alarm)

    import radda
    tracer = None
    building = nullcontext()
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        building = tracer.installed("setup")
    files = sorted(args.workdir.glob("instance-*.json"))
    # module attributes, so that the tracer's wrappers are the ones called
    with building:
        if workload.kind == "example2":
            problems = [radda.problems.make_example2(workload.size)]
        else:
            problems = [radda.serialize.load_problem(f) for f in files]
    emit("ready")
    if args.mode == "setup":
        return 0

    runner = Runner(workload, problems, files, args.seed, tracer)
    runner.loop(args.seconds)
    result = {"records": runner.records, "env": library_versions()}
    if tracer is not None:
        cli_s, cli_err = runner.cli_check()
        if cli_err:
            runner.records[0]["failed"].append(cli_err)
        result["layers"] = {**runner.layer_metrics(), "cli.run_s": cli_s}
        result["missing_layers"] = tracer.missing
        if args.spans is not None:
            tracer.write(args.spans)
    result["peak_rss_mb"] = runner.peak_rss_mb
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
