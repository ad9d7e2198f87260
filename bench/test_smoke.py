"""The benchmark's own test: its metric tables match BENCHMARK.json, and the
smoke mode (every workload at reduced size, untraced and traced) emits
every metric with its unit and passes every output check.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS  # noqa: E402


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(SMOKE_WORKLOADS) == list(WORKLOADS)


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
