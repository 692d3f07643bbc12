"""The benchmark's workloads: set-up, one timed unit, reference optimum, checks.

A workload builds its inputs from the seed in ``setup`` and runs one unit of
work in ``run_unit``: one fit for the single-fit workloads, one in-process
``tailopt experiment`` for the CLI workload.  Everything after the units (the
reference optimum, the correctness checks, time to tolerance from the timed
units' own oracle stamps) runs outside the timed part, in ``evaluate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.optimize import minimize

import tailopt.cli
import tailopt.smoothing
from tailopt import (
    Algorithm,
    Dataset,
    LinearLeastSquares,
    RiskParams,
    SolverConfig,
    SolverResult,
    SyntheticSpec,
    Termination,
    append_intercept,
    batch_losses,
    check_dual_weights,
    exact_oracle,
    exact_subgradient_weights,
    generate_low_rank,
    generate_targets,
    jacobian_transpose_apply,
    load_csv,
    residual_quantile_report,
    run_solver,
    smoothed_oracle,
    smoothed_weights_entropic,
    smoothed_weights_euclidean,
    superquantile,
)
from tailopt.dataio import resolve_w_bar, seed_streams

from tracing import Tracer, replaced

LOSS = LinearLeastSquares()
# Relative slack for comparing two computations of one value.
CHECK_RTOL = 1e-9
SANDWICH_MU_EXACT = 1e-2


@dataclass
class Fit:
    """One solver run as seen from outside: its oracle calls, timestamped."""

    oracle: object
    result: SolverResult | None = None
    stamps: np.ndarray = field(default_factory=lambda: np.empty(0))
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    error: Exception | None = None

    @property
    def best(self) -> float:
        return float(self.result.objective_trace.min())

    def problems(self) -> list[str]:
        if self.error is not None:
            return [f"{type(self.error).__name__}: {self.error}"]
        if self.result.termination == Termination.LINE_SEARCH_FAILURE:
            return ["line_search_failure"]
        return []


@dataclass
class Unit:
    """One timed unit of work: its fits and, for the CLI, its exit and output."""

    fits: list[Fit]
    wall_s: float = 0.0
    exit_code: int = 0
    stdout: str = ""
    out_dir: Path | None = None


@dataclass
class Evaluation:
    """Outcome of ``evaluate``: one problem list per attempted fit, and results."""

    problems: list[list[str]]
    tts_s: float = -1.0
    oracle_calls: float = -1.0
    final_objective: float = -1.0
    test_q90: float = -1.0
    reference: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def stamped_solve(solve, oracle, config: SolverConfig, origin: float | None = None) -> Fit:
    """Run ``solve(oracle, config)``, timestamping every oracle call.

    Stamps count from ``origin`` (a ``perf_counter`` reading), by default the
    start of the fit.
    """
    stamps: list[float] = []
    values: list[float] = []

    def stamped(w):
        f, g = oracle(w)
        stamps.append(perf_counter())
        values.append(f)
        return f, g

    fit = Fit(oracle)
    t0 = perf_counter() if origin is None else origin
    try:
        fit.result = solve(stamped, config)
    except Exception as exc:  # a failed fit is counted in the result, not fatal
        fit.error = exc
    fit.stamps = np.asarray(stamps) - t0
    fit.values = np.asarray(values, dtype=float)
    return fit


def crossing_time(fit: Fit, target: float) -> float | None:
    """Time from the fit's stamp origin until the best value so far is <= target."""
    hit = np.minimum.accumulate(fit.values) <= target
    return float(fit.stamps[np.argmax(hit)]) if hit.any() else None


def tts(fits: list[Fit], target: float) -> float | None:
    """Median time to target over the timed fits; None if one never reaches it."""
    times = [crossing_time(fit, target) for fit in fits]
    return None if any(t is None for t in times) else float(np.median(times))


def penalty_max(n: int, p: float, penalty: str) -> float:
    """Largest value D_max of the smoothing penalty over the capped simplex.

    The penalty is convex, so the maximum sits at a vertex.  Every vertex is a
    permutation of (cap, ..., cap, r, 0, ..., 0) with k = floor(1/cap) caps and
    remainder r = 1 - k*cap, and both penalties are symmetric.
    """
    cap = 1.0 / (n * (1.0 - p))
    k = min(int(math.floor(1.0 / cap + 1e-12)), n)
    r = 1.0 - k * cap
    has_r = r >= 1e-12
    if penalty == "euclidean":
        zeros = n - k - (1 if has_r else 0)
        total = k * (cap - 1.0 / n) ** 2 + zeros / n**2
        if has_r:
            total += (r - 1.0 / n) ** 2
        return 0.5 * total
    total = math.log(n) + k * cap * math.log(cap)
    if has_r:
        total += r * math.log(r)
    return total


def check_solution(data: Dataset, w, p: float, mu: float, penalty: str, exact: bool) -> list[str]:
    """Invariants at a returned model: finite weights, dual feasibility, sandwich.

    The dual weights checked are the exact oracle's when ``exact`` is set,
    else the smoothed maximizer's.  The sandwich sqt_mu <= sqt <= sqt_mu +
    mu*D_max is checked for the smoothing given by ``penalty`` and ``mu``.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        return ["non-finite model weights"]
    problems = []
    L = batch_losses(LOSS, data, w)
    weights_fn = smoothed_weights_entropic if penalty == "entropic" else smoothed_weights_euclidean
    smooth = weights_fn(L, p, mu)
    dual = exact_subgradient_weights(L, p).weights if exact else smooth.weights
    try:
        check_dual_weights(dual, RiskParams(p=p).cap(data.n))
    except ValueError as exc:
        problems.append(f"dual weights: {exc}")
    sqt = superquantile(L, p)
    slack = CHECK_RTOL * max(1.0, abs(sqt))
    upper = smooth.value + mu * penalty_max(data.n, p, penalty)
    if not (smooth.value <= sqt + slack and sqt <= upper + slack):
        problems.append(f"sandwich fails: sqt_mu={smooth.value!r} sqt={sqt!r} upper={upper!r}")
    return problems


def make_data(seed: int, n: int, d: int, rank: int, test_n: int, generate=generate_low_rank):
    """Train and test sets drawn as ``tailopt gen-data`` draws them, plus an intercept."""
    spec = SyntheticSpec(n=n, d=d, effective_rank=rank, seed=seed)
    streams = seed_streams(seed)
    w_bar = resolve_w_bar(spec, streams["w_bar"])
    X = generate(n, d, rank, streams["train_matrix"])
    y = generate_targets(X, w_bar, spec, streams["train_noise"])
    X_test = generate(test_n, d, rank, streams["test_matrix"])
    y_test = generate_targets(X_test, w_bar, spec, streams["test_noise"])
    return append_intercept(Dataset(X, y)), append_intercept(Dataset(X_test, y_test))


def polish(oracle, x0, maxfun: int):
    """scipy L-BFGS-B on ``oracle`` from ``x0``; returns (x, f, evaluations)."""
    res = minimize(
        oracle,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxcor": 20, "ftol": 0.0, "gtol": 1e-12, "maxfun": maxfun},
    )
    return res.x, float(res.fun), int(res.nfev)


def support_counter(jacobian, counts: list[int]):
    """Wrap a Jacobian-transpose function to record each call's weight support size."""

    def counting(loss, data, w, q):
        counts.append(int(np.count_nonzero(q)))
        return jacobian(loss, data, w, q)

    return counting


class SingleFit:
    """One solver run on a synthetic least-squares problem with an intercept.

    ``penalty`` None selects the exact (nonsmooth) oracle, otherwise the
    smoothed oracle with that penalty and scale ``mu``.  The fit runs a fixed
    number of iterations (``grad_tol = f_tol = 0``), so every seed does the
    same amount of solver work.
    """

    def __init__(self, *, n, d, rank, test_n, algorithm, iters, p, penalty, mu, tol):
        self.n, self.d, self.rank, self.test_n = n, d, rank, test_n
        self.algorithm = Algorithm(algorithm)
        self.iters, self.p, self.penalty, self.mu = iters, p, penalty, mu
        self.tol = tol
        self.params = None if penalty is None else RiskParams(p=p, mu=mu, penalty=penalty)
        self.train = self.test = None
        self.support: list[int] = []

    def oracle(self, w):
        if self.params is None:
            return exact_oracle(LOSS, self.train, w, self.p)
        return smoothed_oracle(LOSS, self.train, w, self.params)

    def config(self, iters=None) -> SolverConfig:
        return SolverConfig(
            algorithm=self.algorithm,
            max_iters=iters or self.iters,
            grad_tol=0.0,
            f_tol=0.0,
            initial_point=np.zeros(self.d + 1),
        )

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        generate = generate_low_rank
        if tracer is not None:
            generate = tracer.wrap("dataio.generate_low_rank", generate_low_rank)
        self.train, self.test = make_data(seed, self.n, self.d, self.rank, self.test_n, generate)
        run_solver(self.oracle, self.config(iters=3))  # warm-up

    def composed_oracle(self, tracer: Tracer, support: list[int] | None = None):
        """The program's oracle rebuilt from its layer functions, one span per call.

        The calls follow ``smoothed_oracle`` / ``exact_oracle`` in order; each
        call's weight support size is appended to ``support`` when given.
        """
        losses = tracer.wrap("core.batch_losses", batch_losses)
        jacobian = tracer.wrap("core.jacobian_transpose_apply", jacobian_transpose_apply)
        if support is not None:
            jacobian = support_counter(jacobian, support)
        train = self.train
        if self.params is None:
            fn, args, span = exact_subgradient_weights, (self.p,), "superquantile.exact_oracle"
            weights = tracer.wrap("superquantile.exact_subgradient_weights", fn)
        else:
            fn = smoothed_weights_entropic if self.penalty == "entropic" else smoothed_weights_euclidean
            args, span = (self.p, self.mu), "smoothing.smoothed_oracle"
            weights = tracer.wrap(f"smoothing.{fn.__name__}", fn)

        def oracle(w):
            L = losses(LOSS, train, w)
            out = weights(L, *args)
            g = jacobian(LOSS, train, w, out.weights)
            return out.value, g

        return tracer.wrap(span, oracle)

    def run_unit(self, tracer: Tracer | None = None) -> Unit:
        if tracer is None:
            return Unit([stamped_solve(run_solver, self.oracle, self.config())])
        solve = tracer.wrap("solvers.run_solver", run_solver)
        oracle = self.composed_oracle(tracer, self.support)
        return Unit([stamped_solve(solve, oracle, self.config())])

    def fidelity(self, untraced: Unit, traced: Unit) -> list[str]:
        """The composed oracle is bit-identical to the program's at the first
        iterate, and the traced fit repeats the untraced one."""
        w0 = self.config().start_point()
        f_ref, g_ref = self.oracle(w0)
        f, g = self.composed_oracle(Tracer())(w0)
        problems = []
        if not (f == f_ref and np.array_equal(g, g_ref)):
            problems.append(f"composed oracle differs at w0: f={f!r} vs {f_ref!r}")
        a, b = untraced.fits[0].result, traced.fits[0].result
        if a is None or b is None or not np.array_equal(a.objective_trace, b.objective_trace):
            problems.append("traced fit differs from the untraced fit")
        return problems

    def reference(self, fit: Fit) -> dict:
        """Reference optimum of this seed's problem, computed outside timed parts."""
        x0 = fit.result.solution
        if self.params is not None:
            _, f, nfev = polish(self.oracle, x0, maxfun=60)
            return {
                "value": min(f, fit.best),
                "method": "scipy L-BFGS-B (m=20, maxfun=60) on the same smoothed oracle, "
                "warm-started at the fit's solution",
                "evaluations": nfev,
            }
        # Exact objective F: minimize the Euclidean-smoothed surrogate F_mu;
        # min F_mu <= F* <= F(x) <= F_mu(x) + mu*D_max, and mu*D_max is far
        # below the tolerance (about 5e-7 at n = 1e5).
        mu = SANDWICH_MU_EXACT
        params = RiskParams(p=self.p, mu=mu)
        x, f_mu, nfev = polish(lambda w: smoothed_oracle(LOSS, self.train, w, params), x0, 60)
        f_exact = exact_oracle(LOSS, self.train, x, self.p)[0]
        return {
            "value": min(f_exact, fit.best),
            "method": f"scipy L-BFGS-B (m=20, maxfun=60) on the Euclidean-smoothed objective "
            f"with mu = {mu:g}, from the fit's solution; the value is the exact objective",
            "evaluations": nfev,
            "smoothed_value": f_mu,
            "mu_d_max": mu * penalty_max(self.train.n, self.p, "euclidean"),
        }

    def evaluate(self, units: list[Unit]) -> Evaluation:
        fits = [fit for unit in units for fit in unit.fits]
        problems = [fit.problems() for fit in fits]
        if problems[0]:
            return Evaluation(problems)
        exact = self.params is None
        # The exact workload checks the sandwich with Euclidean smoothing at
        # SANDWICH_MU_EXACT, the mu of its reference.  Much smaller mu is not
        # used: at mu = 1e-6 the loss/mu ratio is ~2.5e7, where
        # q = (u - lambda)/mu carries rounding of ~5e-9 per coordinate; at
        # n = 200, seed 18, the weights summed to 1 - 3e-9 and the smoothed
        # value fell 6e-8 below sqt - mu*D_max.
        mu, penalty = (SANDWICH_MU_EXACT, "euclidean") if exact else (self.mu, self.penalty)
        for fit, probs in zip(fits, problems):
            if not probs:
                probs += check_solution(self.train, fit.result.solution, self.p, mu, penalty, exact)
        first = fits[0]
        ref = self.reference(first)
        target = ref["value"] + self.tol * abs(ref["value"])
        ref.update(tolerance=self.tol, target=target)
        tts_s = tts(fits, target)
        if tts_s is None:
            problems[0].append(f"tolerance {self.tol} of the reference not reached")
        report = residual_quantile_report(first.result.solution, self.test, [0.9])
        return Evaluation(
            problems=problems,
            tts_s=-1.0 if tts_s is None else tts_s,
            oracle_calls=float(first.result.oracle_calls),
            final_objective=first.best,
            test_q90=report.quantiles[0.9],
            reference=ref,
        )

    @property
    def matrix(self) -> np.ndarray:
        return self.train.features

    def csv_bytes(self, unit: Unit) -> int:
        return 0

    def cleanup(self, units: list[Unit]) -> None:
        pass


class Experiment:
    """In-process ``tailopt experiment`` with the entropic penalty at mu = 1.

    The CLI's ``run_solver`` is rebound to a recorder that timestamps each
    fit's oracle calls from the start of the experiment, so time to tolerance
    is what a user of the command waits for the tail model; the traced unit
    also rebinds the layer functions the CLI and the smoothing module call,
    to record one span per call.
    """

    MU = 1.0
    P_TAIL = 0.9

    def __init__(self, *, n, test_n, max_iters, warm_n, tol, scratch: Path):
        self.n, self.test_n, self.max_iters, self.warm_n = n, test_n, max_iters, warm_n
        self.tol = tol
        self.scratch = scratch
        self.seed = None
        self.train = None
        self.support: list[int] = []

    def _argv(self, n: int) -> list[str]:
        self.scratch.mkdir(parents=True, exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="experiment-", dir=self.scratch)
        return [
            "experiment", "--penalty", "entropic", "--mu", f"{self.MU:g}",
            "--seed", str(self.seed), "--n", str(n), "--test-n", str(self.test_n),
            "--max-iters", str(self.max_iters), "--out-dir", out_dir,
        ]

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.cleanup([self._run(self._argv(self.warm_n), tracer=None)])  # warm-up

    def run_unit(self, tracer: Tracer | None = None) -> Unit:
        return self._run(self._argv(self.n), tracer)

    def _run(self, argv: list[str], tracer: Tracer | None) -> Unit:
        fits: list[Fit] = []

        def recorder(run_solver_fn):
            solve = run_solver_fn if tracer is None else tracer.wrap("solvers.run_solver", run_solver_fn)

            def run(oracle, config):
                fit = stamped_solve(solve, oracle, config, origin=start)
                fits.append(fit)
                if fit.error is not None:
                    raise fit.error
                return fit.result

            return run

        hooks = [(tailopt.cli, "run_solver", recorder)]
        if tracer is not None:
            spans = (
                (tailopt.cli, "generate_low_rank", "dataio.generate_low_rank"),
                (tailopt.cli, "save_csv", "dataio.save_csv"),
                (tailopt.cli, "load_csv", "dataio.load_csv"),
                (tailopt.cli, "ols_closed_form", "models.ols_closed_form"),
                (tailopt.cli, "batch_losses", "core.batch_losses"),
                (tailopt.cli, "smoothed_oracle", "smoothing.smoothed_oracle"),
                (tailopt.smoothing, "batch_losses", "core.batch_losses"),
                (tailopt.smoothing, "smoothed_weights_entropic", "smoothing.smoothed_weights_entropic"),
                (tailopt.smoothing, "smoothed_weights_euclidean", "smoothing.smoothed_weights_euclidean"),
            )
            hooks += [
                (module, attr, lambda fn, name=name: tracer.wrap(name, fn))
                for module, attr, name in spans
            ]
            hooks.append((
                tailopt.smoothing,
                "jacobian_transpose_apply",
                lambda fn: support_counter(tracer.wrap("core.jacobian_transpose_apply", fn), self.support),
            ))
        main = tailopt.cli.main if tracer is None else tracer.wrap("cli.main", tailopt.cli.main)
        out = io.StringIO()
        start = perf_counter()
        with replaced(hooks), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except Exception:  # a fit error escaping the CLI is reported by the fit
                code = -1
        return Unit(fits, exit_code=code, stdout=out.getvalue(), out_dir=Path(argv[-1]))

    @staticmethod
    def _report(unit: Unit) -> tuple[dict | None, list[str]]:
        """The experiment's JSON report (None if unusable) and what is wrong with it."""
        if unit.exit_code != 0:
            return None, [f"experiment exited with code {unit.exit_code}"]
        lines = unit.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            return None, [f"experiment stdout is not JSON: {exc}"]
        if report.get("command") != "experiment":
            return None, [f"unexpected experiment report: {lines[-1][:200]}"]
        rows = {row["model"]: row for row in report["rows"]}
        values = [v for row in report["rows"] for k, v in row.items() if k != "model"]
        if not np.isfinite(values).all():
            return report, ["experiment rows hold non-finite values"]
        q90 = [rows[m]["q0.9"] for m in ("erm", "p0.5", "p0.7", "p0.9")]
        expected = {
            "q90_tail_model_below_erm": rows["p0.9"]["q0.9"] < rows["erm"]["q0.9"],
            "mean_tail_model_above_erm": rows["p0.9"]["mean"] >= rows["erm"]["mean"],
            "q90_nonincreasing": all(a >= b for a, b in zip(q90, q90[1:])),
        }
        verdict = report["verdict"]
        if verdict != expected:
            return report, [f"verdict {verdict} disagrees with the rows ({expected})"]
        # The paper's claim: the tail model trades a higher mean for a lower
        # test q0.9 than ERM.  q90_nonincreasing (a monotone q0.9 across
        # p = 0.5, 0.7, 0.9) is recorded, not required: with the entropic
        # penalty at mu = 1 the p0.9 model's q0.9 exceeds the p0.7 model's on
        # most seeds, by up to 7%, at a reference-converged p0.9 fit.
        if not (verdict["q90_tail_model_below_erm"] and verdict["mean_tail_model_above_erm"]):
            return report, [f"experiment does not reproduce the tail-vs-ERM result: {verdict}"]
        return report, []

    def fidelity(self, untraced: Unit, traced: Unit) -> list[str]:
        """Tracing must not change the experiment's report."""
        a, b = self._report(untraced)[0], self._report(traced)[0]
        if a is not None and b is not None and a["rows"] == b["rows"]:
            return []
        return ["traced experiment report differs from the untraced one"]

    def evaluate(self, units: list[Unit]) -> Evaluation:
        """Checks every unit; the reference and time to tolerance use the first.

        Each unit attempts the closed-form ERM fit and one solver fit per tail
        level; a problem with the experiment as a whole counts against all.
        """
        levels = tailopt.cli.TRAIN_P_LEVELS
        reports, per_unit = [], []
        for unit in units:
            report, unit_probs = self._report(unit)
            if len(unit.fits) != len(levels):
                unit_probs.append(f"expected {len(levels)} solver fits, saw {len(unit.fits)}")
            reports.append(report)
            per_unit.append([list(unit_probs)] + [unit_probs + f.problems() for f in unit.fits])
        problems = [probs for unit_probs in per_unit for probs in unit_probs]
        first, report = units[0], reports[0]
        if report is None or len(first.fits) != len(levels) or any(f.error for f in first.fits):
            return Evaluation(problems)
        self.train = append_intercept(load_csv(first.out_dir / "train.csv"))
        for unit, unit_probs in zip(units, per_unit):
            for fit, p, probs in zip(unit.fits, levels, unit_probs[1:]):
                if fit.result is not None:
                    probs += check_solution(
                        self.train, fit.result.solution, p, self.MU, "entropic", exact=False
                    )
        tail = first.fits[-1]
        _, f, nfev = polish(tail.oracle, tail.result.solution, maxfun=200)
        ref = {
            "value": min(f, tail.best),
            "method": "scipy L-BFGS-B (m=20, maxfun=200) on the p0.9 fit's own smoothed "
            "oracle, warm-started at its solution",
            "evaluations": nfev,
        }
        target = ref["value"] + self.tol * abs(ref["value"])
        ref.update(tolerance=self.tol, target=target)
        tails = [unit.fits[-1] for unit in units if len(unit.fits) == len(levels)]
        tts_s = tts(tails, target)
        if tts_s is None:
            per_unit[0][-1].append(f"tolerance {self.tol} of the reference not reached")
        rows = {row["model"]: row for row in report["rows"]}
        return Evaluation(
            problems=problems,
            tts_s=-1.0 if tts_s is None else tts_s,
            oracle_calls=float(sum(fit.result.oracle_calls for fit in first.fits)),
            final_objective=tail.best,
            test_q90=float(rows[f"p{self.P_TAIL:g}"]["q0.9"]),
            reference=ref,
            details={"verdict": report["verdict"], "rows": report["rows"]},
        )

    @property
    def matrix(self) -> np.ndarray | None:
        """The training features, once ``evaluate`` has read them back."""
        return None if self.train is None else self.train.features

    def csv_bytes(self, unit: Unit) -> int:
        return sum((unit.out_dir / name).stat().st_size for name in ("train.csv", "test.csv"))

    def cleanup(self, units: list[Unit]) -> None:
        for unit in units:
            shutil.rmtree(unit.out_dir, ignore_errors=True)
