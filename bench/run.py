"""The radda benchmark: time to a converged factored solution.

    python3 bench/run.py --workload ex2-n300k --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a source checkout; the package is imported from
its src/ directory, so nothing needs installing.  Each run starts fresh
worker processes, one at a time (see worker.py).  Untraced runs
(--trace 0) give the end-to-end metrics; a traced run (--trace 1) gives
the per-layer split.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
report: environment, every metric with its unit and sample count,
fail_rate with its counts, and per-instance iterations and widths.
--smoke runs every workload at reduced size in both modes and checks the
output.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

#: BLAS/OpenMP threads of every worker: one, so timings do not depend on
#: what else runs on the machine's few cores
THREADS = 1
#: set-up-only workers started before, and again after, the measuring
#: worker of an untraced run; one more unrecorded start warms the caches
SETUP_REPEATS = 5
#: a run still going after this long has its worker killed and fails, so
#: that every run ends well within three minutes
RUN_TIMEOUT_S = 165.0

#: metric name -> unit; the names are fixed, see README.md
END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solution_rank": "count",
}
PER_LAYER = {
    "cayley.choose_alpha_s": "s",
    "cayley.build_shifted_s": "s",
    "cayley.init_lowrank_s": "s",
    "cayley.base_apply_s": "s",
    "cayley.base_apply.calls": "count",
    "cayley.base_apply.cols": "count",
    "lowrank.apply_ahat_s": "s",
    "lowrank.apply_ahat.calls": "count",
    "lowrank.chain_self_s": "s",
    "lowrank.step_s": "s",
    "lowrank.core_self_s": "s",
    "lowrank.truncate_s": "s",
    "lowrank.truncate.calls": "count",
    "lowrank.residual_s": "s",
    "lowrank.residual.calls": "count",
    "lowrank.doublings": "count",
    "lowrank.max_width": "count",
    "lowrank.base_cols_per_rank": "count",
    "lowrank.driver_self_s": "s",
    "problems.make_example_s": "s",
    "serialize.load_s": "s",
    "serialize.file_mb": "MB",
    "dense.init_s": "s",
    "dense.step_s": "s",
    "dense.residual_s": "s",
    "dense.doublings": "count",
    "dense_solve_s": "s",
    "cli.run_s": "s",
    "trace.overhead_s": "s",
}
UNITS = {**END_TO_END, **PER_LAYER}


def spawn(args: list, deadline: float) -> tuple:
    """Run one worker to completion, or kill it at the perf_counter()
    deadline: (seconds until ready, result, error).

    The ready time counts from just before the process is started, so it
    includes interpreter start-up, imports and building the inputs.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                continue
            if msg.get("event") == "ready":
                ready = perf_counter() - t0
            elif msg.get("event") == "result":
                result = msg
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    error = None
    if proc.returncode != 0 or ready is None:
        error = f"worker exited with code {proc.returncode}"
    return ready, result, error


def setup_times(common: list, deadline: float, count: int) -> tuple:
    """Start `count` set-up-only workers in turn: (ready times, error)."""
    times = []
    for _ in range(count):
        ready, _, error = spawn(common + ["--mode", "setup"], deadline)
        if error:
            return times, error
        times.append(ready)
    return times, None


def median_with_tail(values: list) -> dict:
    """Median, sample count and the samples themselves, plus the highest of
    p90/p99 that has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values),
           "values": values}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"cpu": cpu, "nproc": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version(), "commit": commit,
            "seed": seed}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple:
    """One benchmark run: (report, result line)."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    workdir = WORK_DIR / f"{workload.name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = WORK_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    common = ["--workload", workload.name, "--seed", str(seed),
              "--seconds", repr(float(seconds)), "--workdir", str(workdir)]
    if smoke:
        common.append("--smoke")
    try:
        if workload.instances:
            from inputs import write_problem_files
            write_problem_files(workload, seed, workdir)
        setup_s = []
        result = None
        if trace:
            _, result, error = spawn(
                common + ["--mode", "trace", "--spans", str(spans)], deadline)
        else:
            # set-up samples on both sides of the measurement, so that their
            # median covers the whole run and not only its first seconds
            setup_s, error = setup_times(common, deadline, SETUP_REPEATS + 1)
            del setup_s[:1]
            if not error:
                ready, result, error = spawn(
                    common + ["--mode", "measure"], deadline)
                setup_s.append(ready)
            if not error:
                after, error = setup_times(common, deadline, SETUP_REPEATS)
                setup_s += after
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, seed, seconds, trace, setup_s, result, error,
                     spans)


def summarize(workload, seed, seconds, trace, setup_s, result, error,
              spans) -> tuple:
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": environment(seed)}
    if error or result is None:
        report["error"] = error or "worker sent no result"
        line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        return report, line

    report["env"].update(result["env"])
    records = result["records"]
    attempted = len(records)
    failed = sum(1 for r in records if r["failed"])
    lowrank = [r for r in records if r["entry"] == "radda_solve"]
    dense = [r for r in records if r["entry"] == "adda_solve_dense"]
    report["fail_rate"] = {"value": failed / attempted, "failed": failed,
                           "attempted": attempted}
    report["failures"] = [f"{r['entry']}[{r['instance']}]: {msg}"
                          for r in records for msg in r["failed"]]
    report["instances"] = {}
    for r in lowrank:
        report["instances"].setdefault(r["instance"], {
            key: r.get(key)
            for key in ("doublings", "max_width", "rank", "termination")})
    report["samples"] = {"solve_s": median_with_tail(
        [r["seconds"] for r in lowrank])}
    if dense:
        report["samples"]["dense_solve_s"] = median_with_tail(
            [r["seconds"] for r in dense])

    if trace:
        values = {name: result["layers"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        report["missing_layers"] = result["missing_layers"]
        report["spans"] = str(spans.relative_to(ROOT))
    else:
        ranks = [r["rank"] for r in lowrank if r.get("rank") is not None]
        values = {
            "solve_s": report["samples"]["solve_s"]["median"],
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["peak_rss_mb"],
            "solution_rank": statistics.median(ranks) if ranks else 0,
        }
        units = END_TO_END
        report["samples"]["setup_s"] = median_with_tail(setup_s)
        if dense:
            values["dense_solve_s"] = (
                report["samples"]["dense_solve_s"]["median"])
    report["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                         for name, value in values.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: report["metrics"][name] for name in units}}
    return report, line


def smoke(seed: int) -> int:
    """Every workload at reduced size, untraced and traced: every metric
    must be emitted with its unit and every output check must pass."""
    from workloads import SMOKE_WORKLOADS
    ok = True
    for workload in SMOKE_WORKLOADS.values():
        for trace in (False, True):
            report, line = run_workload(workload, seed, 1.0, trace,
                                        smoke=True)
            expected = PER_LAYER if trace else END_TO_END
            emitted = {name: m["unit"] for name, m in line["metrics"].items()}
            problems = report.get("failures", [])
            if "error" in report:
                problems.append(report["error"])
            if emitted != expected:
                problems.append(f"metrics {sorted(emitted)} != "
                                f"{sorted(expected)}")
            if not line["correct"]:
                problems.append("output checks failed")
            if trace and report.get("missing_layers"):
                problems.append(f"missing layers {report['missing_layers']}")
            status = "FAIL" if problems else "ok"
            print(f"{status} {workload.name} trace={int(trace)} "
                  f"attempted={line['attempted']} failed={line['failed']}"
                  + "".join(f"\n    {p}" for p in problems))
            ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="radda benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at reduced size, both modes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radda" / "__init__.py").is_file():
        print(f"error: no radda package under {ROOT / 'src'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2
    # before numpy loads here or in any worker, which inherit the variables
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    report, line = run_workload(WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
