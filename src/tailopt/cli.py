"""Command-line front end: data generation, training, evaluation, experiment.

Scriptability contract: machine-readable output is line-delimited JSON on
stdout only; human-readable diagnostics go to stderr.  Exit codes: 0 success,
2 flag or validation errors, 3 I/O errors, 4 solver failure (a singular ERM
system, from collinear features, among them).  ``experiment`` writes its data
CSVs from a child made by ``os.fork`` that overlaps the fits, and waits for it
before the results.  At the default sizes, on a 2-vCPU Xeon, the child takes
about 0.14-0.16 s, and the same writes take 0.08-0.10 s in-process.  The
preconditioned L-BFGS fits end 0.13-0.14 s after the fork on the default
command, and 0.08 s after it with ``--penalty entropic --mu 1``, so the
results then wait 0.03 s and 0.06 s on the child.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
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
from .models import LinearLeastSquares, SingularSystemError, ols_closed_form
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
    """The data flags of ``gen-data`` and ``experiment``, checked as they are
    parsed; :class:`SyntheticSpec` still checks that the rank is at most d."""
    p.add_argument("--n", type=_count, default=10000, help="training rows")
    p.add_argument("--d", type=_count, default=40, help="feature count")
    p.add_argument("--rank", type=_count, default=30, help="effective rank of the design")
    p.add_argument("--test-n", type=_count, default=2000, help="test rows")
    p.add_argument("--bernoulli-p", type=_probability, default=0.8)
    p.add_argument("--laplace-loc", type=_finite, default=10.0)
    p.add_argument("--laplace-scale", type=_nonnegative, default=1.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--target-column", default="target")


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, and accept the value when ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_positive = _checked(float, lambda v: 0.0 < v < np.inf, "a finite positive number")
_nonnegative = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
_finite = _checked(float, lambda v: abs(v) < np.inf, "a finite number")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_tail_level = _checked(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
_level_list = _checked(
    # Adding 0.0 turns -0.0 into 0.0, so both are reported under the key "0".
    lambda text: [float(tok) + 0.0 for tok in text.split(",") if tok.strip()],
    lambda levels: all(0.0 <= v < 1.0 for v in levels),
    "comma-separated numbers in [0, 1)",
)


def _levels(text: str) -> list[float]:
    """The report levels of ``--levels``, each once.  Two distinct levels
    that ``eval`` would report under one ``%g`` key are an error."""
    by_key: dict[str, float] = {}
    for p in _level_list(text):
        other = by_key.setdefault(format(p, "g"), p)
        if other != p:
            raise argparse.ArgumentTypeError(
                f"levels {other!r} and {p!r} would both be reported as {format(p, 'g')!r}"
            )
    return list(by_key.values())


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """The solver flags of ``train`` and ``experiment``, checked as they are
    parsed.  The tolerances default to :class:`SolverConfig`'s; ``train`` has
    flags for them.  No flag sets the step of subgradient and dual_averaging:
    the solver tunes it at the first iterate."""
    p.add_argument("--mu", type=_positive, default=1000.0, help="smoothing scale")
    p.add_argument("--penalty", choices=["euclidean", "entropic"], default="euclidean")
    p.add_argument(
        "--algorithm",
        choices=[a.value for a in Algorithm],
        default="lbfgs",
        help="subgradient and dual_averaging fit the exact superquantile, tune their step "
        "at the first iterate and ignore --mu, --penalty and train's --f-tol; lbfgs fits "
        "the smoothed one, from the inverse Gram matrix of the features as its initial "
        "inverse Hessian",
    )
    p.add_argument("--max-iters", type=_count, default=500)
    defaults = SolverConfig()
    p.set_defaults(grad_tol=defaults.grad_tol, f_tol=defaults.f_tol)


def _generate_pair(args):
    """The synthetic spec the flags describe, and its train and test sets."""
    spec = SyntheticSpec(
        n=args.n,
        d=args.d,
        effective_rank=args.rank,
        bernoulli_p=args.bernoulli_p,
        laplace_loc=args.laplace_loc,
        laplace_scale=args.laplace_scale,
        seed=args.seed,
    )
    streams = seed_streams(spec.seed)
    w_bar = resolve_w_bar(spec, streams["w_bar"])
    X_train = generate_low_rank(spec.n, spec.d, spec.effective_rank, streams["train_matrix"])
    y_train = generate_targets(X_train, w_bar, spec, streams["train_noise"])
    X_test = generate_low_rank(args.test_n, spec.d, spec.effective_rank, streams["test_matrix"])
    y_test = generate_targets(X_test, w_bar, spec, streams["test_noise"])
    return spec, Dataset(X_train, y_train), Dataset(X_test, y_test)


def _preconditioner(data: Dataset, args) -> np.ndarray | None:
    """The preconditioner of the L-BFGS fits on ``data``: (X^T X / n)^+, the
    pseudo-inverse of the features' Gram matrix, which holds most of the
    curvature of a margin loss.  None for the other algorithms, and when the
    Gram overflows (features beyond about 1e154), so those fits start from the
    identity.  It costs O(n d^2 + d^3), once per training set."""
    if Algorithm(args.algorithm) is not Algorithm.LBFGS:
        return None
    X = data.features
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (X.T @ X) / data.n
    if not np.isfinite(gram).all():
        return None
    return np.linalg.pinv(gram, hermitian=True)


def _fit(data: Dataset, args, objective: str, p: float, preconditioner) -> dict:
    """Train ``objective`` at tail level ``p`` on a prepared dataset with the
    solver flags in ``args``; return weights plus run metadata.  L-BFGS fits
    take ``preconditioner``, from :func:`_preconditioner` on ``data``."""
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
    algo = Algorithm(args.algorithm)
    if algo in (Algorithm.SUBGRADIENT, Algorithm.DUAL_AVERAGING):
        def oracle(w):
            return exact_oracle(loss, data, w, p)
    else:
        params = RiskParams(p=p, mu=args.mu, penalty=args.penalty)

        def oracle(w):
            return smoothed_oracle(loss, data, w, params)

    config = SolverConfig(
        algorithm=algo,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        f_tol=args.f_tol,
        initial_point=np.zeros(data.d),
        preconditioner=preconditioner,
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
    spec, train, test = _generate_pair(args)
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
    preconditioner = _preconditioner(data, args) if args.objective == "superquantile" else None
    fit = _fit(data, args, args.objective, args.p, preconditioner)
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
    report = residual_quantile_report(w, data, args.levels)
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
    child that runs alongside the ``with`` body and is waited for when it ends.

    The files are opened first, so a bad path raises before the body runs,
    and the datasets reach the child through the fork, unpickled.  The child
    leaves through ``os._exit``, so it runs none of the parent's code and
    flushes none of its buffers.  After a body that did not raise, the
    child's ``OSError`` is raised again from its message, and any other
    failure as one naming the files and the child's exit code.
    """
    with contextlib.ExitStack() as files:
        handles = [files.enter_context(open(path, "w", newline="")) for _, path in jobs]
        reader, writer = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(reader)
            os.close(writer)
            raise
        if pid == 0:
            try:
                for (data, _), fh in zip(jobs, handles):
                    with fh:
                        dataio._write_csv(data, fh, target_column)
                os._exit(0)
            except OSError as exc:
                os.write(writer, os.fsencode(str(exc)))
            finally:
                os._exit(1)
        os.close(writer)
    try:
        yield
    finally:
        with open(reader, "rb") as pipe:
            message = os.fsdecode(pipe.read())
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if message:
        raise OSError(message)
    if code:
        names = " and ".join(str(path) for _, path in jobs)
        raise OSError(f"writing {names}: writer process exited with code {code}")


def cmd_experiment(args) -> int:
    _, train, test = _generate_pair(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Writing the CSVs as %.17g text takes 0.08-0.10 s in-process at the
    # default sizes, so a forked child writes them while the fits run, and is
    # waited for before the results are written; the module docstring gives
    # the measured wait.  The files hold these values exactly
    # (%.17g round-trips float64), so the fits use the generated sets rather
    # than reading the files back.
    jobs = [(train, out_dir / "train.csv"), (test, out_dir / "test.csv")]
    with _csvs_written_in_child(jobs, args.target_column):
        train = append_intercept(train)
        test = append_intercept(test)
        preconditioner = _preconditioner(train, args)
        rows = []
        for name, objective, p in [("erm", "erm", 0.0)] + [
            (f"p{p:g}", "superquantile", p) for p in TRAIN_P_LEVELS
        ]:
            _info(f"training {name} ...")
            fit = _fit(train, args, objective, p, preconditioner)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token starting with ``-`` and a digit, or
    ``-.`` and a digit, as a value, not as a flag, so ``-1e3`` and ``-0.1,0.5``
    reach their flag's own check.  Subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_train.add_argument("--p", type=_tail_level, default=0.9, help="tail level")
    _add_fit_flags(p_train)
    # These two take their defaults from _add_fit_flags.
    p_train.add_argument("--grad-tol", type=_nonnegative)
    p_train.add_argument(
        "--f-tol",
        type=_nonnegative,
        help="stop lbfgs when its best objective gains at most this over 10 iterations; "
        "0 disables it, and the other algorithms ignore it",
    )
    p_train.add_argument(
        "--no-intercept",
        action="store_true",
        help="do not append a constant-1 feature column before training",
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="report residual quantiles of a trained model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument(
        "--levels", type=_levels, default="0.5,0.9", help="comma-separated levels in [0, 1)"
    )
    p_eval.add_argument("--target-column", default="target")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("experiment", help="end-to-end synthetic study")
    _add_synthetic_flags(p_exp)
    _add_fit_flags(p_exp)
    p_exp.add_argument("--out-dir", default="experiment_out")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Each layer names the sample behind a non-finite value, so numpy's
        # floating-point warnings would only bury that error on stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_IO
    except (EvaluationError, SingularSystemError) as exc:
        _info(f"error: {exc}")
        return EXIT_SOLVER
    except ValueError as exc:
        _info(f"error: {exc}")
        return EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
