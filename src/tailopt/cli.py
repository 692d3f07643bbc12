"""Command-line front end: data generation, training, evaluation, experiment.

Scriptability contract: machine-readable output is line-delimited JSON on
stdout only; human-readable diagnostics go to stderr.  Exit codes: 0 success,
2 flag or validation errors, 3 I/O errors, 4 solver failure.  ``experiment``
writes its data CSVs from a forked child that overlaps the fits, since their
%.17g formatting costs about as much, and joins it before the results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import multiprocessing
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .core import Dataset, EvaluationError, RiskParams, batch_losses
from .dataio import (
    DataFormatError,
    SyntheticSpec,
    append_intercept,
    generate_low_rank,
    generate_targets,
    load_csv,
    residual_quantile_report,
    resolve_w_bar,
    save_csv,
    seed_streams,
)
from .models import LinearLeastSquares, ols_closed_form
from .smoothing import smoothed_oracle
from .solvers import Algorithm, SolverConfig, Termination, run_solver
from .superquantile import exact_oracle

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_IO = 3
EXIT_SOLVER = 4

TRAIN_P_LEVELS = (0.5, 0.7, 0.9)
REPORT_LEVELS = (0.5, 0.9)


def _emit(obj) -> None:
    print(json.dumps(obj, allow_nan=False), flush=True)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _add_synthetic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=10000, help="training rows")
    p.add_argument("--d", type=int, default=40, help="feature count")
    p.add_argument("--rank", type=int, default=30, help="effective rank of the design")
    p.add_argument("--test-n", type=int, default=2000, help="test rows")
    p.add_argument("--bernoulli-p", type=float, default=0.8)
    p.add_argument("--laplace-loc", type=float, default=10.0)
    p.add_argument("--laplace-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-column", default="target")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=float, default=0.9, help="tail level")
    p.add_argument("--mu", type=float, default=1000.0, help="smoothing scale")
    p.add_argument("--penalty", choices=["euclidean", "entropic"], default="euclidean")
    p.add_argument(
        "--algorithm",
        choices=[a.value for a in Algorithm],
        default="lbfgs",
    )
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--step-size", default="auto")
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--f-tol", type=float, default=1e-10)
    p.add_argument(
        "--no-intercept",
        action="store_true",
        help="do not append a constant-1 feature column before training",
    )


def _parse_step(raw) -> float | str:
    if isinstance(raw, str) and raw != "auto":
        return float(raw)
    return raw


def _generate_pair(spec: SyntheticSpec, test_n: int):
    streams = seed_streams(spec.seed)
    w_bar = resolve_w_bar(spec, streams["w_bar"])
    X_train = generate_low_rank(spec.n, spec.d, spec.effective_rank, streams["train_matrix"])
    y_train = generate_targets(X_train, w_bar, spec, streams["train_noise"])
    X_test = generate_low_rank(test_n, spec.d, spec.effective_rank, streams["test_matrix"])
    y_test = generate_targets(X_test, w_bar, spec, streams["test_noise"])
    return Dataset(X_train, y_train), Dataset(X_test, y_test)


def _fit(
    data: Dataset,
    objective: str,
    p: float,
    mu: float,
    penalty: str,
    algorithm: str,
    max_iters: int,
    step_size,
    grad_tol: float,
    f_tol: float,
) -> dict:
    """Train on a prepared dataset and return weights plus run metadata."""
    loss = LinearLeastSquares()
    if objective == "erm":
        w = ols_closed_form(data)
        final = float(np.mean(batch_losses(loss, data, w)))
        return {
            "weights": w,
            "final_objective": final,
            "termination": "closed_form",
            "objective_trace": [final],
            "oracle_calls": 1,
        }
    algo = Algorithm(algorithm)
    if algo in (Algorithm.SUBGRADIENT, Algorithm.DUAL_AVERAGING):
        def oracle(w):
            return exact_oracle(loss, data, w, p)
    else:
        params = RiskParams(p=p, mu=mu, penalty=penalty)

        def oracle(w):
            return smoothed_oracle(loss, data, w, params)

    config = SolverConfig(
        algorithm=algo,
        max_iters=max_iters,
        grad_tol=grad_tol,
        f_tol=f_tol,
        step_size=_parse_step(step_size),
        initial_point=np.zeros(data.d),
    )
    result = run_solver(oracle, config)
    return {
        "weights": result.solution,
        "final_objective": float(result.objective_trace.min()),
        "termination": result.termination.value,
        "objective_trace": [float(v) for v in result.objective_trace],
        "oracle_calls": result.oracle_calls,
    }


def cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        n=args.n,
        d=args.d,
        effective_rank=args.rank,
        bernoulli_p=args.bernoulli_p,
        laplace_loc=args.laplace_loc,
        laplace_scale=args.laplace_scale,
        seed=args.seed,
    )
    train, test = _generate_pair(spec, args.test_n)
    save_csv(train, args.out_train, target_column=args.target_column)
    save_csv(test, args.out_test, target_column=args.target_column)
    _emit(
        {
            "command": "gen-data",
            "seed": args.seed,
            "spec": {
                "n": spec.n,
                "d": spec.d,
                "effective_rank": spec.effective_rank,
                "bernoulli_p": spec.bernoulli_p,
                "laplace_loc": spec.laplace_loc,
                "laplace_scale": spec.laplace_scale,
            },
            "train_path": str(args.out_train),
            "test_path": str(args.out_test),
            "train_rows": train.n,
            "test_rows": test.n,
        }
    )
    return EXIT_OK


def cmd_train(args) -> int:
    data = load_csv(args.data, target_column=args.target_column)
    intercept = not args.no_intercept
    if intercept:
        data = append_intercept(data)
    fit = _fit(
        data,
        args.objective,
        args.p,
        args.mu,
        args.penalty,
        args.algorithm,
        args.max_iters,
        args.step_size,
        args.grad_tol,
        args.f_tol,
    )
    model = {
        "weights": [float(v) for v in fit["weights"]],
        "config": {
            "objective": args.objective,
            "loss": "squared_error",
            "p": args.p,
            "mu": args.mu,
            "penalty": args.penalty,
            "algorithm": args.algorithm,
            "max_iters": args.max_iters,
            "intercept": intercept,
            "target_column": args.target_column,
            "seed": args.seed,
        },
        "objective_trace": fit["objective_trace"],
        "termination": fit["termination"],
        "final_objective": fit["final_objective"],
    }
    with open(args.out, "w") as fh:
        json.dump(model, fh)
    _emit(
        {
            "command": "train",
            "final_objective": fit["final_objective"],
            "termination": fit["termination"],
            "oracle_calls": fit["oracle_calls"],
            "model_path": str(args.out),
        }
    )
    if fit["termination"] == Termination.LINE_SEARCH_FAILURE.value:
        _info("error: line search failed; solver did not finish cleanly")
        return EXIT_SOLVER
    return EXIT_OK


def _load_model(path):
    with open(path) as fh:
        try:
            model = json.load(fh)
            w = np.asarray(model["weights"], dtype=float)
            intercept = bool(model.get("config", {}).get("intercept", False))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataFormatError(f"{path}: not a model file: {exc!r}") from exc
    if w.ndim != 1 or not np.isfinite(w).all():
        raise DataFormatError(f"{path}: weights must be a list of finite numbers")
    return w, intercept


def cmd_eval(args) -> int:
    w, intercept = _load_model(args.model)
    data = load_csv(args.data, target_column=args.target_column)
    if intercept:
        data = append_intercept(data)
    if w.size != data.d:
        columns = f"{data.d} columns (intercept appended)" if intercept else f"{data.d} columns"
        raise DataFormatError(
            f"{args.model}: model has {w.size} weights but {args.data} gives {columns}"
        )
    levels = [float(tok) for tok in args.levels.split(",") if tok.strip()]
    report = residual_quantile_report(w, data, levels)
    _emit(
        {
            "command": "eval",
            "mean": report.mean,
            "quantiles": {f"{p:g}": report.quantiles[p] for p in report.p_levels},
            "levels": report.p_levels,
        }
    )
    _info(f"model: {args.model}    data: {args.data}    rows: {data.n}")
    _info(f"{'metric':<12}{'value':>14}")
    _info(f"{'mean':<12}{report.mean:>14.4f}")
    for p in report.p_levels:
        _info(f"{'q' + format(p, 'g'):<12}{report.quantiles[p]:>14.4f}")
    return EXIT_OK


@contextlib.contextmanager
def _csvs_written_in_child(jobs, target_column: str):
    """Write each ``(dataset, path)`` job as :func:`save_csv` does, in a forked
    child that runs alongside the ``with`` body and is joined when it ends.

    The files are opened first, so a bad path raises before the body runs,
    and the datasets reach the child through the fork, unpickled.  After a
    body that did not raise, the child's ``OSError`` is raised, or one
    naming the files and the exit code if the child ended without reporting.
    """
    context = multiprocessing.get_context("fork")
    with contextlib.ExitStack() as files:
        handles = [files.enter_context(open(path, "w", newline="")) for _, path in jobs]
        reader, writer = context.Pipe(duplex=False)

        def write():
            try:
                for (data, _), fh in zip(jobs, handles):
                    with fh:
                        dataio._write_csv(data, fh, target_column)
            except OSError as exc:
                writer.send(exc)
            else:
                writer.send(None)

        # The child flushes the standard streams as it exits, so output still
        # buffered here would be printed twice.
        sys.stdout.flush()
        sys.stderr.flush()
        child = context.Process(target=write)
        child.start()
        writer.close()
    try:
        yield
    finally:
        with reader:
            try:
                report = reader.recv()
            except EOFError as exc:  # the child ended without reporting
                report = exc
        child.join()
    if isinstance(report, OSError):
        raise report
    if report is not None or child.exitcode:
        names = " and ".join(str(path) for _, path in jobs)
        raise OSError(f"writing {names}: writer process exited with code {child.exitcode}")


def cmd_experiment(args) -> int:
    spec = SyntheticSpec(
        n=args.n,
        d=args.d,
        effective_rank=args.rank,
        bernoulli_p=args.bernoulli_p,
        laplace_loc=args.laplace_loc,
        laplace_scale=args.laplace_scale,
        seed=args.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, test = _generate_pair(spec, args.test_n)
    # Formatting the CSVs as %.17g text costs about as much as the fits, so a
    # forked child writes them while the fits run, and is joined before the
    # results are written.  The files hold these values exactly (%.17g
    # round-trips float64), so the fits use the generated sets rather than
    # reading the files back.
    jobs = [(train, out_dir / "train.csv"), (test, out_dir / "test.csv")]
    with _csvs_written_in_child(jobs, args.target_column):
        train = append_intercept(train)
        test = append_intercept(test)
        rows = []
        for name, objective, p in [("erm", "erm", 0.0)] + [
            (f"p{p:g}", "superquantile", p) for p in TRAIN_P_LEVELS
        ]:
            _info(f"training {name} ...")
            fit = _fit(
                train, objective, p, args.mu, args.penalty, args.algorithm, args.max_iters,
                "auto", 1e-8, 1e-10,
            )
            if fit["termination"] == Termination.LINE_SEARCH_FAILURE.value:
                _info(f"error: line search failed while training {name}")
                return EXIT_SOLVER
            report = residual_quantile_report(fit["weights"], test, REPORT_LEVELS)
            rows.append(
                {
                    "model": name,
                    "mean": report.mean,
                    "q0.5": report.quantiles[0.5],
                    "q0.9": report.quantiles[0.9],
                }
            )

    results_path = out_dir / "results.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "mean", "q0.5", "q0.9"])
        for row in rows:
            writer.writerow(
                [row["model"], f"{row['mean']:.17g}", f"{row['q0.5']:.17g}", f"{row['q0.9']:.17g}"]
            )

    by_model = {row["model"]: row for row in rows}
    q90 = [by_model[m]["q0.9"] for m in ("erm", "p0.5", "p0.7", "p0.9")]
    verdict = {
        "q90_tail_model_below_erm": bool(by_model["p0.9"]["q0.9"] < by_model["erm"]["q0.9"]),
        "mean_tail_model_above_erm": bool(by_model["p0.9"]["mean"] >= by_model["erm"]["mean"]),
        "q90_nonincreasing": bool(all(q90[i] >= q90[i + 1] for i in range(len(q90) - 1))),
    }
    _emit(
        {
            "command": "experiment",
            "seed": args.seed,
            "rows": rows,
            "verdict": verdict,
            "results_csv": str(results_path),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailopt",
        description="Train and evaluate tail-risk (superquantile) linear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="write synthetic train/test CSVs")
    _add_synthetic_flags(p_gen)
    p_gen.add_argument("--out-train", required=True)
    p_gen.add_argument("--out-test", required=True)
    p_gen.set_defaults(func=cmd_gen_data)

    p_train = sub.add_parser("train", help="fit a linear model on a CSV dataset")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--objective", choices=["erm", "superquantile"], default="superquantile")
    p_train.add_argument("--target-column", default="target")
    p_train.add_argument("--seed", type=int, default=0)
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="report residual quantiles of a trained model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--levels", default="0.5,0.9", help="comma-separated levels in [0, 1)")
    p_eval.add_argument("--target-column", default="target")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("experiment", help="end-to-end synthetic study")
    _add_synthetic_flags(p_exp)
    p_exp.add_argument("--mu", type=float, default=1000.0)
    p_exp.add_argument("--penalty", choices=["euclidean", "entropic"], default="euclidean")
    p_exp.add_argument(
        "--algorithm", choices=[a.value for a in Algorithm], default="lbfgs"
    )
    p_exp.add_argument("--max-iters", type=int, default=500)
    p_exp.add_argument("--out-dir", default="experiment_out")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_IO
    except EvaluationError as exc:
        _info(f"error: {exc}")
        return EXIT_SOLVER
    except ValueError as exc:
        _info(f"error: {exc}")
        return EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
