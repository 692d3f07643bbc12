"""tailopt benchmark: three fit workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload subgrad_exact_n100k --seed 0 --seconds 50 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end metrics;
``--trace 1`` runs the same untraced units, then one traced unit and the layer
sweep, and reports the per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  A readable table goes to stderr, and the full
record (and, traced, the span file) to ``bench/out/``.

Every run is one single-threaded process: the BLAS thread count is set to 1
before numpy is imported.
"""

import os
import sys
from time import perf_counter

T_START = perf_counter()
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"
SETUP_REPEATS = 3


if not (SRC / "tailopt" / "__init__.py").is_file():
    print(f"error: tailopt sources not found under {SRC}; run from a full checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sweep import format_table, sweep  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Experiment, SingleFit  # noqa: E402

IMPORT_S = perf_counter() - T_START


def make_workloads(tiny: bool) -> dict:
    """The workloads by name; ``tiny`` shrinks every size for the smoke test."""
    return {
        "lbfgs_euclid_n100k": SingleFit(
            n=2_000 if tiny else 100_000, d=40, rank=30, test_n=2_000,
            algorithm="lbfgs", iters=60 if tiny else 20, p=0.9,
            penalty="euclidean", mu=1000.0, tol=1e-3,
        ),
        "subgrad_exact_n100k": SingleFit(
            n=2_000 if tiny else 100_000, d=4, rank=4, test_n=2_000,
            algorithm="subgradient", iters=100, p=0.9,
            penalty=None, mu=None, tol=1e-2,
        ),
        "experiment_entropic_n10k": Experiment(
            n=1_500 if tiny else 10_000, test_n=1_000 if tiny else 2_000, max_iters=100,
            warm_n=300 if tiny else 1_000, tol=1e-2,
            scratch=OUT / "tmp",
        ),
    }


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailopt").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = cpuinfo()
    return {
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_ENV,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "llc_size": cpu.get("cache size"),
    }


def timed_unit(workload, tracer=None):
    t = perf_counter()
    unit = workload.run_unit(tracer)
    unit.wall_s = perf_counter() - t
    return unit


def timed_units(workload, seconds: float) -> tuple[list, float]:
    """Units back to back while the next one is expected to end within ``seconds``.

    Also returns the peak resident memory (MB) after the first unit, so the
    number of units that fit does not change it.
    """
    start = perf_counter()
    units = [timed_unit(workload)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while perf_counter() - start + units[-1].wall_s <= seconds:
        units.append(timed_unit(workload))
    return units, peak_rss_mb


def import_s() -> float:
    """Median import time over this process and ``SETUP_REPEATS - 1`` fresh interpreters.

    Imports are most of setup_s and a single reading varies by +-15%.
    """
    times = [IMPORT_S]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", "import run; print(run.IMPORT_S)"],
            cwd=BENCH, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def setup(workload, seed: int, tracer=None) -> float:
    """Set up ``SETUP_REPEATS`` times; the median time, plus the median import
    time, is setup_s.

    Only the last set-up is traced, so span totals count one set-up.
    """
    times = []
    for i in range(SETUP_REPEATS):
        t = perf_counter()
        workload.setup(seed, tracer if i == SETUP_REPEATS - 1 else None)
        times.append(perf_counter() - t)
    return import_s() + statistics.median(times)


def time_matvec(X: np.ndarray) -> tuple[float, float]:
    """Median time of a bare ``X @ w`` (us) and its computed bytes moved (MB)."""
    w = np.full(X.shape[1], 0.5)
    repeats = max(5, min(2000, int(2e7 // X.size)))
    times = []
    for _ in range(repeats):
        t = perf_counter()
        X @ w
        times.append(perf_counter() - t)
    bytes_moved = X.nbytes + w.nbytes + 8 * X.shape[0]
    return 1e6 * statistics.median(times), bytes_moved / 1e6


def layer_metrics(workload, summary: dict, untraced_wall_s: float, traced) -> dict:
    def spans(*names, key="self_s"):
        found = [summary[n] for n in names if n in summary]
        return sum(s["count"] for s in found), sum(s[key] for s in found)

    def per_call_us(*names, key="self_s"):
        count, total = spans(*names, key=key)
        return 1e6 * total / count if count else 0.0

    fits = [fit for fit in traced.fits if fit.result is not None]
    calls = sum(fit.result.oracle_calls for fit in fits)
    accepted = sum(len(fit.result.objective_trace) for fit in fits)
    _, solver_self = spans("solvers.run_solver")
    _, solver_total = spans("solvers.run_solver", key="total_s")
    X = workload.matrix
    matvec_us, matvec_mb = (0.0, 0.0) if X is None else time_matvec(X)
    weights_us = per_call_us("smoothing.smoothed_weights_euclidean", "smoothing.smoothed_weights_entropic")
    return {
        "smoothing.weights_us": weights_us,
        "smoothing.oracle_us": per_call_us("smoothing.smoothed_oracle", key="total_s"),
        "smoothing.weights_over_matvec": weights_us / matvec_us if matvec_us else 0.0,
        "core.losses_us": per_call_us("core.batch_losses"),
        "core.jacobian_us": per_call_us("core.jacobian_transpose_apply"),
        "core.support_frac": statistics.fmean(workload.support) / X.shape[0] if workload.support else 0.0,
        "core.matvec_us": matvec_us,
        "core.matvec_mb": matvec_mb,
        "superquantile.weights_us": per_call_us("superquantile.exact_subgradient_weights"),
        "superquantile.oracle_us": per_call_us("superquantile.exact_oracle", key="total_s"),
        "solvers.iterations": float(accepted),
        "solvers.accept_ratio": accepted / calls if calls else 0.0,
        "solvers.self_us_per_call": 1e6 * solver_self / calls if calls else 0.0,
        "solvers.oracle_share": 1.0 - solver_self / solver_total if solver_total else 0.0,
        "dataio.generate_s": spans("dataio.generate_low_rank", key="total_s")[1],
        "dataio.save_csv_s": spans("dataio.save_csv", key="total_s")[1],
        "dataio.load_csv_s": spans("dataio.load_csv", key="total_s")[1],
        "dataio.csv_mb": workload.csv_bytes(traced) / 1e6,
        "models.ols_s": spans("models.ols_closed_form", key="total_s")[1],
        "cli.self_s": spans("cli.main")[1],
        "trace.overhead_s": traced.wall_s - untraced_wall_s,
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args, env: dict) -> dict:
    workload = make_workloads(args.size == "tiny")[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "size": args.size, "environment": env}
    if not args.trace:
        setup_s = setup(workload, args.seed)
        units, peak_rss_mb = timed_units(workload, args.seconds)
        try:
            ev = workload.evaluate(units)
        finally:
            workload.cleanup(units)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(u.wall_s for u in units),
            "tts_s": ev.tts_s,
            "oracle_calls": ev.oracle_calls,
            "final_objective": ev.final_objective,
            "test_q90": ev.test_q90,
            "peak_rss_mb": peak_rss_mb,
        }
        record["units"] = len(units)
    else:
        tracer = Tracer()
        setup(workload, args.seed, tracer)
        untraced, _ = timed_units(workload, args.seconds)
        traced = timed_unit(workload, tracer)
        try:
            ev = workload.evaluate(untraced + [traced])
            ev.problems[0] += workload.fidelity(untraced[0], traced)
            untraced_wall_s = statistics.median(u.wall_s for u in untraced)
            metrics = layer_metrics(workload, tracer.summary(), untraced_wall_s, traced)
        finally:
            workload.cleanup(untraced + [traced])
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{tag}-spans.npz"
        tracer.save(spans_path)
        rows = sweep(args.seed, args.size == "tiny")
        print(format_table(rows), file=sys.stderr)
        record.update(spans=str(spans_path.relative_to(ROOT)), span_summary=tracer.summary(), sweep=rows)
    attempted = len(ev.problems)
    failed = sum(1 for p in ev.problems if p)
    record.update(
        reference=ev.reference,
        details=ev.details,
        problems=[p for p in ev.problems if p],
        fail_frac=failed / attempted,
    )
    unit_of = metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit_of[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(make_workloads(tiny=True)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    env = environment()
    result = run(args, env)
    for name, m in result["metrics"].items():
        print(f"{name:<32}{m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(
        f"{'fail_frac':<32}{result['failed'] / result['attempted']:>16.6g} "
        f"({result['failed']} of {result['attempted']} fits)",
        file=sys.stderr,
    )
    print(json.dumps({"environment": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
