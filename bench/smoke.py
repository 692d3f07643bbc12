"""Fast smoke test of the benchmark itself.

Runs every workload of ``BENCHMARK.json``, and the unlisted L-BFGS one, once
at tiny sizes, untraced and traced, and checks that each run exits 0 and ends
with a result line that names exactly the metrics ``BENCHMARK.json`` lists,
with their units.  It also
checks the closed-form D_max against the vertex-enumeration reference in
``tests/helpers.py``, and that the benchmark refuses to run, without printing
a result, where the tailopt sources are missing.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Runnable by hand but not listed in BENCHMARK.json (see bench/README.md).
UNLISTED_WORKLOADS = ("lbfgs_euclid_n100k",)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    args = ("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    proc = run_bench(ROOT, *args)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']}")
    return problems


def check_penalty_max() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    from helpers import penalty_max_on_vertices
    from workloads import penalty_max

    problems = []
    for n in range(2, 8):
        for p in (0.0, 0.3, 0.5, 0.7, 0.9):
            cap = 1.0 / (n * (1.0 - p))
            for penalty in ("euclidean", "entropic"):
                want = penalty_max_on_vertices(n, cap, penalty)
                got = penalty_max(n, p, penalty)
                if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14):
                    problems.append(f"D_max n={n} p={p} {penalty}: {got!r} != {want!r}")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: the run must fail cleanly."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = run_bench(bare, "--workload", "subgrad_exact_n100k", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "correct" in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = check_penalty_max() + check_bare_directory()
    for workload in [w["name"] for w in spec["workloads"]] + list(UNLISTED_WORKLOADS):
        for trace in (0, 1):
            problems += check_run(workload, trace, expected[trace])
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
