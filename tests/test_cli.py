import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailopt
import tailopt.cli
import tailopt.smoothing
from tailopt.cli import build_parser, main
from tailopt.core import Dataset, EvaluationError, batch_losses
from tailopt.dataio import append_intercept, load_csv, residual_quantile_report, save_csv
from tailopt.models import LinearLeastSquares
from tailopt.solvers import Algorithm, SolverConfig, SolverResult, Termination
from tailopt.superquantile import superquantile

from helpers import random_lsq_dataset


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, lines, out.err


def run_python(*args):
    """Run a fresh ``python`` with ``args`` and the package under test importable."""
    src = str(Path(tailopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(argv):
    """Run ``python -m tailopt.cli`` with the package under test importable."""
    return run_python("-m", "tailopt.cli", *argv)


def record_pinv(monkeypatch):
    """Record each ``np.linalg.pinv`` result, so a test can count the inverse
    Gram matrices a command forms."""
    results = []
    pinv = np.linalg.pinv

    def recording(*args, **kwargs):
        results.append(pinv(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(np.linalg, "pinv", recording)
    return results


def write_consistent_csv(tmp_path, seed=0, n=60, d=4, name="data.csv"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    ds = Dataset(X, X @ w)
    path = tmp_path / name
    save_csv(ds, path)
    return path, w


class TestGenData:
    def test_default_row_counts(self, tmp_path, capsys):
        code, lines, _ = run_cli(
            capsys,
            [
                "gen-data",
                "--seed", "0",
                "--out-train", str(tmp_path / "train.csv"),
                "--out-test", str(tmp_path / "test.csv"),
            ],
        )
        assert code == 0
        payload = lines[-1]
        assert payload["train_rows"] == 10000
        assert payload["test_rows"] == 2000
        train = load_csv(tmp_path / "train.csv")
        assert (train.n, train.d) == (10000, 40)

    def test_small_dims_and_column_count(self, tmp_path, capsys):
        code, lines, _ = run_cli(
            capsys,
            [
                "gen-data",
                "--n", "10", "--d", "3", "--rank", "2", "--test-n", "4", "--seed", "1",
                "--out-train", str(tmp_path / "train.csv"),
                "--out-test", str(tmp_path / "test.csv"),
            ],
        )
        assert code == 0
        text = (tmp_path / "train.csv").read_text().strip().splitlines()
        assert len(text) == 11  # header + 10 rows
        assert text[0] == "x0,x1,x2,target"

    def test_same_seed_reproduces_files(self, tmp_path, capsys):
        for tag in ("a", "b"):
            code, _, _ = run_cli(
                capsys,
                [
                    "gen-data",
                    "--n", "50", "--d", "4", "--rank", "2", "--test-n", "10", "--seed", "7",
                    "--out-train", str(tmp_path / f"train_{tag}.csv"),
                    "--out-test", str(tmp_path / f"test_{tag}.csv"),
                ],
            )
            assert code == 0
        assert (tmp_path / "train_a.csv").read_bytes() == (tmp_path / "train_b.csv").read_bytes()
        assert (tmp_path / "test_a.csv").read_bytes() == (tmp_path / "test_b.csv").read_bytes()

    def test_one_path_for_both_outputs_exits_two_before_writing(self, tmp_path, capsys, monkeypatch):
        # The test set would overwrite the train set, yet train_rows would say 30.
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        code, lines, err = run_cli(
            capsys,
            [
                "gen-data", "--n", "30", "--d", "3", "--rank", "2", "--test-n", "5",
                "--out-train", "same.csv", "--out-test", str(tmp_path / "sub" / ".." / "same.csv"),
            ],
        )
        assert code == 2
        assert lines == []
        assert err.splitlines() == ["error: --out-train and --out-test name the same file: same.csv"]
        assert not (tmp_path / "same.csv").exists()

    def test_bad_test_path_exits_three_before_any_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, lines, err = run_cli(
            capsys,
            [
                "gen-data", "--n", "30", "--d", "3", "--rank", "2", "--test-n", "5",
                "--out-train", "ok.csv", "--out-test", "nodir/te.csv",
            ],
        )
        assert code == 3
        assert lines == []
        assert err.startswith("error: ") and "'nodir/te.csv'" in err
        assert (tmp_path / "ok.csv").read_bytes() == b""


class TestTrain:
    def test_erm_on_consistent_system(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        code, lines, _ = run_cli(
            capsys,
            ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--objective", "erm"],
        )
        assert code == 0
        assert lines[-1]["final_objective"] <= 1e-12
        model = json.loads((tmp_path / "m.json").read_text())
        assert set(model) >= {"weights", "config", "objective_trace"}
        assert len(model["weights"]) == 5  # intercept appended by default

    def test_erm_forms_no_preconditioner(self, tmp_path, capsys, monkeypatch):
        inverses = record_pinv(monkeypatch)
        data, _ = write_consistent_csv(tmp_path)
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--objective", "erm"]
        assert run_cli(capsys, argv)[0] == 0
        assert inverses == []

    def test_level_zero_matches_erm(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((80, 4))
        ds = Dataset(X, X @ rng.standard_normal(4) + 0.3 * rng.standard_normal(80))
        data = tmp_path / "noisy.csv"
        save_csv(ds, data)
        code, _, _ = run_cli(
            capsys,
            ["train", "--data", str(data), "--out", str(tmp_path / "erm.json"), "--objective", "erm"],
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys,
            [
                "train", "--data", str(data), "--out", str(tmp_path / "sq0.json"),
                "--objective", "superquantile", "--p", "0", "--mu", "1.0",
                "--algorithm", "lbfgs", "--grad-tol", "1e-11", "--f-tol", "0",
                "--max-iters", "800",
            ],
        )
        assert code == 0
        w_erm = np.array(json.loads((tmp_path / "erm.json").read_text())["weights"])
        w_sq = np.array(json.loads((tmp_path / "sq0.json").read_text())["weights"])
        assert np.max(np.abs(w_erm - w_sq)) <= 1e-5

    def test_default_risk_configuration_runs(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "gen-data", "--n", "400", "--d", "10", "--rank", "5", "--test-n", "50",
                "--seed", "2",
                "--out-train", str(tmp_path / "train.csv"),
                "--out-test", str(tmp_path / "test.csv"),
            ],
        )
        assert code == 0
        code, lines, _ = run_cli(
            capsys,
            [
                "train", "--data", str(tmp_path / "train.csv"),
                "--out", str(tmp_path / "risk.json"),
                "--p", "0.9", "--mu", "1000", "--penalty", "euclidean",
                "--algorithm", "lbfgs",
            ],
        )
        assert code == 0
        assert lines[-1]["termination"] != "line_search_failure"

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        data, _ = write_consistent_csv(tmp_path)

        def fake_run_solver(oracle, config):
            return SolverResult(
                solution=np.zeros(5),
                objective_trace=np.array([1.0]),
                termination=Termination.LINE_SEARCH_FAILURE,
                oracle_calls=1,
            )

        monkeypatch.setattr("tailopt.cli.run_solver", fake_run_solver)
        code, _, _ = run_cli(
            capsys,
            ["train", "--data", str(data), "--out", str(tmp_path / "m.json")],
        )
        assert code == 4

    def test_no_progress_stop_exits_zero(self, tmp_path, capsys):
        # With both tolerances at zero, L-BFGS runs until an accepted step
        # leaves the weights bit-identical, and that ends the run cleanly.
        train = tmp_path / "train.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "gen-data", "--n", "200", "--d", "5", "--rank", "3", "--test-n", "50",
                "--out-train", str(train), "--out-test", str(tmp_path / "test.csv"),
            ],
        )
        assert code == 0
        code, lines, _ = run_cli(
            capsys,
            [
                "train", "--data", str(train), "--out", str(tmp_path / "m.json"),
                "--grad-tol", "0", "--f-tol", "0",
            ],
        )
        assert code == 0
        assert lines[-1]["termination"] == "no_progress"
        assert lines[-1]["oracle_calls"] < 500

    def test_nonfinite_losses_exit_solver_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "huge.csv"
        save_csv(Dataset(1e160 * rng.standard_normal((30, 3)), rng.standard_normal(30)), data)
        code, lines, err = run_cli(
            capsys, ["train", "--data", str(data), "--out", str(tmp_path / "m.json")]
        )
        assert code == 4
        assert lines == []
        assert err.startswith("error: ")

    def test_gram_overflow_leaves_lbfgs_unpreconditioned(self):
        # Features near 1e160 overflow X^T X; the fit then starts from the
        # identity, and the oracle reports the non-finite losses (exit 4).
        rng = np.random.default_rng(0)
        huge = Dataset(1e160 * rng.standard_normal((30, 3)), rng.standard_normal(30))
        assert huge._inverse_gram is None

    def test_rank_one_features_fit_with_a_singular_gram(self, tmp_path, capsys):
        # --rank 1 gives nearly collinear columns, so X^T X / n is singular
        # to working precision and the fit starts from its pseudo-inverse.
        # Without it this fit took 181 calls and ended at 16.497508015501502.
        train = tmp_path / "train.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "gen-data", "--n", "300", "--d", "10", "--rank", "1", "--test-n", "50",
                "--out-train", str(train), "--out-test", str(tmp_path / "test.csv"),
            ],
        )
        assert code == 0
        X = append_intercept(load_csv(train)).features
        assert np.linalg.cond(X.T @ X) > 1e14
        code, lines, _ = run_cli(
            capsys, ["train", "--data", str(train), "--out", str(tmp_path / "m.json")]
        )
        assert code == 0
        assert lines[-1]["termination"] in ("grad_tol", "f_tol")
        assert lines[-1]["final_objective"] <= 16.497508015501502
        assert lines[-1]["oracle_calls"] < 60

    def test_singular_erm_exits_solver_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 1))
        data = tmp_path / "dup.csv"
        save_csv(Dataset(np.hstack([x, x]), rng.standard_normal(40)), data)  # duplicated column
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.json")]
        code, lines, err = run_cli(capsys, argv + ["--objective", "erm"])
        assert code == 4
        assert lines == []
        assert err == "error: normal equations are singular: the features are collinear\n"
        code, _, _ = run_cli(capsys, argv)  # the superquantile fit needs no solve
        assert code == 0

    def test_lost_euclidean_bracket_exits_solver_error(self, tmp_path, capsys):
        # At the start w = 0 the losses 0.5 * y**2 are about 1e20 times mu,
        # where the Euclidean weight step loses its bracket to rounding.
        data = tmp_path / "extreme.csv"
        y = 1e9 * np.array([6.0, 9.0, 5.0, 6.0, 9.0, 7.0])
        save_csv(Dataset(np.ones((6, 1)), y), data)
        code, lines, err = run_cli(
            capsys,
            ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--mu", "1e-3"],
        )
        assert code == 4
        assert lines == []
        assert err.startswith("error: Euclidean dual derivative not bracketed")
        assert "loss-to-mu ratio" in err

    def test_tiny_mu_keeps_euclidean_weights_in_the_simplex(self, tmp_path, capsys, monkeypatch):
        # mu = 1e-9 drives loss/mu to about 1e9-1e10, where the weights of a
        # clip at a rounded multiplier drift off the simplex by about 1e-6.
        sums, ratios = [], []
        weights = tailopt.smoothing.smoothed_weights_euclidean

        def recorded(losses, p, mu):
            out = weights(losses, p, mu)
            sums.append(float(out.weights.sum()))
            ratios.append(float(np.max(np.abs(losses))) / mu)
            return out

        monkeypatch.setattr(tailopt.smoothing, "smoothed_weights_euclidean", recorded)
        train = tmp_path / "train.csv"
        run_cli(
            capsys,
            [
                "gen-data", "--n", "200", "--d", "5", "--rank", "3", "--test-n", "50",
                "--out-train", str(train), "--out-test", str(tmp_path / "test.csv"),
            ],
        )
        code, _, _ = run_cli(
            capsys,
            [
                "train", "--data", str(train), "--out", str(tmp_path / "m.json"),
                "--mu", "1e-9", "--max-iters", "20",
            ],
        )
        assert code == 0
        assert min(ratios) > 1e9
        assert max(abs(s - 1.0) for s in sums) <= 1e-12

    def test_lost_entropic_cap_count_exits_solver_error(self, tmp_path, capsys, monkeypatch):
        # NaN tail ratios leave no cap count feasible, as rounding could at an
        # extreme loss-to-mu ratio.
        monkeypatch.setattr(
            tailopt.smoothing, "_tail_ratios", lambda ascending: np.full(ascending.size - 1, np.nan)
        )
        data, _ = write_consistent_csv(tmp_path)
        code, lines, err = run_cli(
            capsys,
            [
                "train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                "--penalty", "entropic", "--mu", "1",
            ],
        )
        assert code == 4
        assert lines == []
        assert err.startswith("error: entropic cap count not found")
        assert "loss-to-mu ratio" in err
        assert not (tmp_path / "m.json").exists()

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")],
        )
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("out", ["nodir/m.json", "a_dir"])
    def test_bad_out_path_exits_three_before_reading_data(self, tmp_path, capsys, monkeypatch, out):
        # The data file does not exist, so an error naming --out was raised
        # before the data was read.
        (tmp_path / "a_dir").mkdir()
        monkeypatch.chdir(tmp_path)
        code, lines, err = run_cli(capsys, ["train", "--data", "nope.csv", "--out", out])
        assert code == 3
        assert lines == []
        assert err.startswith("error: ") and repr(out) in err and "nope.csv" not in err
        assert sorted(os.listdir(tmp_path)) == ["a_dir"]
        assert os.listdir(tmp_path / "a_dir") == []

    def test_bad_level_is_flag_error(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--p", "1.5"])
        assert exc.value.code == 2
        assert "argument --p" in capsys.readouterr().err

    def test_seed_flag_is_gone_and_model_has_no_seed(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--out", str(out), "--seed", "0"])
        assert exc.value.code == 2
        assert not out.exists()
        capsys.readouterr()
        assert run_cli(capsys, ["train", "--data", str(data), "--out", str(out)])[0] == 0
        assert "seed" not in json.loads(out.read_text())["config"]

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus", "1"])
        assert exc.value.code == 2


class TestEval:
    def _train_erm(self, tmp_path, capsys, data):
        code, _, _ = run_cli(
            capsys,
            ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--objective", "erm"],
        )
        assert code == 0
        return tmp_path / "m.json"

    def test_perfect_fit_reports_zeros(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        model = self._train_erm(tmp_path, capsys, data)
        code, lines, err = run_cli(
            capsys, ["eval", "--model", str(model), "--data", str(data), "--levels", "0.5,0.9"]
        )
        assert code == 0
        payload = lines[-1]
        assert payload["mean"] <= 1e-18
        assert all(v <= 1e-18 for v in payload["quantiles"].values())
        assert "mean" in err  # human table goes to stderr

    def test_levels_sorted_on_output(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path, seed=5)
        model = self._train_erm(tmp_path, capsys, data)
        code, lines, _ = run_cli(
            capsys, ["eval", "--model", str(model), "--data", str(data), "--levels", "0.9,0.1,0.5"]
        )
        assert code == 0
        assert lines[-1]["levels"] == [0.1, 0.5, 0.9]

    def test_repeated_level_is_reported_once(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path, seed=5)
        model = self._train_erm(tmp_path, capsys, data)
        argv = ["eval", "--model", str(model), "--data", str(data)]
        code, lines, err = run_cli(capsys, [*argv, "--levels", "0.5,0.5,0.9,0.50"])
        assert code == 0
        assert lines[-1]["levels"] == [0.5, 0.9]
        assert list(lines[-1]["quantiles"]) == ["0.5", "0.9"]
        assert err.count("q0.5") == 1
        assert run_cli(capsys, argv) == (0, lines, err)

    def test_levels_sharing_a_report_key_exit_two_naming_both(self, tmp_path, capsys):
        argv = [
            "eval", "--model", str(tmp_path / "absent.json"), "--data",
            str(tmp_path / "absent.csv"), "--levels", "0.5,0.9,0.9000001",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --levels: levels 0.9 and 0.9000001 would both be reported as '0.9'" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"weights": [1.0, ',
            '{"config": {}}',
            '{"weights": [0, 0, 0, 0], "config": 3}',
            # No target name: the model does not say which column it fitted.
            '{"weights": [0, 0, 0, 0], "config": {"intercept": false}}',
            '{"weights": [0, 0, 0, 0, 0], "config": {"intercept": true, "target_column": 3}}',
            '{"weights": [0, 0, 0, 0, 0], "config": {"intercept": true, "target_column": null}}',
        ],
    )
    def test_malformed_model_json_is_io_error(self, tmp_path, capsys, text):
        data, _ = write_consistent_csv(tmp_path)
        model = tmp_path / "m.json"
        model.write_text(text)
        code, lines, err = run_cli(capsys, ["eval", "--model", str(model), "--data", str(data)])
        assert code == 3
        assert lines == []
        assert str(model) in err

    @pytest.mark.parametrize("column", ["x1", "target"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_csv_cell_is_io_error_naming_its_row(self, tmp_path, capsys, cell, column):
        data, _ = write_consistent_csv(tmp_path)
        lines = data.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")  # the 3rd data row
        cells[header.index(column)] = cell
        lines[3] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        config = {"intercept": True, "target_column": "target"}
        model.write_text(json.dumps({"weights": [0.0] * 5, "config": config}))
        for argv in (
            ["train", "--data", str(data), "--out", str(tmp_path / "out.json")],
            ["eval", "--model", str(model), "--data", str(data)],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 3
            assert out == []
            assert err.splitlines()[-1] == f"error: {data}: non-finite cell at data row 3"
        assert not (tmp_path / "out.json").exists()

    def test_target_named_twice_is_io_error(self, tmp_path, capsys):
        # The header that `gen-data --target-column x0` used to write.
        data = tmp_path / "twice.csv"
        data.write_text("x0,x1,x2,x0\n" + "".join(f"{i}.0,1.0,2.0,{i}.5\n" for i in range(10)))
        model = tmp_path / "m.json"
        config = {"intercept": True, "target_column": "x0"}
        model.write_text(json.dumps({"weights": [0.0] * 4, "config": config}))
        for argv in (
            ["train", "--data", str(data), "--out", str(tmp_path / "out.json"), "--target-column", "x0"],
            ["eval", "--model", str(model), "--data", str(data)],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 3
            assert out == []
            assert "target 'x0' matches 2 columns" in err
        assert not (tmp_path / "out.json").exists()

    def test_target_column_is_matched_after_stripping(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        fits = []
        for name in ("target", " target "):
            out = tmp_path / f"{len(fits)}.json"
            argv = ["train", "--data", str(data), "--out", str(out), "--objective", "erm"]
            code, _, _ = run_cli(capsys, [*argv, "--target-column", name])
            assert code == 0
            model = json.loads(out.read_text())
            assert model["config"]["target_column"] == "target"
            fits.append(model["weights"])
            code, lines, _ = run_cli(capsys, ["eval", "--model", str(out), "--data", str(data)])
            assert code == 0
            assert lines[-1]["mean"] <= 1e-12
        assert fits[0] == fits[1]

    def test_reads_the_target_column_the_model_was_trained_on(self, tmp_path, capsys):
        # "y" is the fitted target; "target" is one more column that eval
        # would otherwise read as the target, with "y" as a feature.
        rng = np.random.default_rng(3)
        x0, other = rng.standard_normal(50), rng.standard_normal(50)
        data = tmp_path / "y.csv"
        save_csv(Dataset(np.column_stack([x0, 2.0 * x0 + 1.0]), other), data)
        data.write_text(data.read_text().replace("x0,x1,target", "x0,y,target"))
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(data), "--out", str(out), "--objective", "erm"]
        assert run_cli(capsys, [*argv, "--target-column", " y "])[0] == 0
        assert json.loads(out.read_text())["config"]["target_column"] == "y"
        code, lines, _ = run_cli(capsys, ["eval", "--model", str(out), "--data", str(data)])
        assert code == 0
        assert lines[-1]["mean"] <= 1e-12

    def test_nonfinite_model_weights_are_io_error(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        model = tmp_path / "m.json"
        model.write_text('{"weights": [NaN, 0.0, 0.0, 0.0], "config": {"target_column": "target"}}')
        code, lines, err = run_cli(capsys, ["eval", "--model", str(model), "--data", str(data)])
        assert code == 3
        assert lines == []
        assert err.splitlines() == [f"error: {model}: weights must be a list of finite numbers"]

    def test_dimension_mismatch_names_file_and_dimensions(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)  # 4 feature columns
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"weights": [0.0] * 3, "config": {"target_column": "target"}}))
        code, lines, err = run_cli(capsys, ["eval", "--model", str(model), "--data", str(data)])
        assert code == 3
        assert lines == []
        assert str(model) in err and str(data) in err
        assert "3 weights" in err and "4 features + intercept" in err

    def test_overflowing_residuals_keep_stdout_json(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"weights": [1e300] * 5, "config": {"target_column": "target"}}))
        code, lines, err = run_cli(capsys, ["eval", "--model", str(model), "--data", str(data)])
        assert code == 4
        assert lines == []
        assert "error:" in err and "non-finite" in err

    def test_matches_library_report(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        ds = random_lsq_dataset(11, n=40, d=3)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        model = self._train_erm(tmp_path, capsys, data)
        code, lines, _ = run_cli(
            capsys, ["eval", "--model", str(model), "--data", str(data), "--levels", "0.5,0.9"]
        )
        assert code == 0
        w = np.array(json.loads(model.read_text())["weights"])
        from tailopt.dataio import append_intercept

        report = residual_quantile_report(w, append_intercept(ds), [0.5, 0.9])
        assert lines[-1]["mean"] == pytest.approx(report.mean, rel=1e-12)
        assert lines[-1]["quantiles"]["0.5"] == pytest.approx(report.quantiles[0.5], rel=1e-12)


class TestExperiment:
    def test_small_run_emits_four_rows(self, tmp_path, capsys):
        code, lines, _ = run_cli(
            capsys,
            [
                "experiment", "--seed", "0", "--n", "400", "--d", "10", "--rank", "5",
                "--test-n", "200", "--max-iters", "150",
                "--out-dir", str(tmp_path / "exp"),
            ],
        )
        assert code == 0
        payload = lines[-1]
        assert [row["model"] for row in payload["rows"]] == ["erm", "p0.5", "p0.7", "p0.9"]
        assert set(payload["verdict"]) == {
            "q90_tail_model_below_erm",
            "mean_tail_model_above_erm",
            "q90_nonincreasing",
        }
        results = (tmp_path / "exp" / "results.csv").read_text().splitlines()
        assert results[0] == "model,mean,q0.5,q0.9"
        assert len(results) == 5

    def test_entropic_tiny_mu_reaches_huge_loss_ratios(self, tmp_path, capsys, monkeypatch):
        # mu = 1e-9 drives loss/mu past 1e10, where the entropic weight step
        # takes its log-domain tail sums; the run still ends cleanly.
        ratios = []
        weights = tailopt.smoothing.smoothed_weights_entropic

        def recorded(losses, p, mu):
            ratios.append(float(np.max(np.abs(losses))) / mu)
            return weights(losses, p, mu)

        monkeypatch.setattr(tailopt.smoothing, "smoothed_weights_entropic", recorded)
        code, lines, _ = run_cli(
            capsys,
            [
                "experiment", "--seed", "0", "--n", "400", "--d", "10", "--rank", "5",
                "--test-n", "50", "--max-iters", "20", "--penalty", "entropic", "--mu", "1e-9",
                "--algorithm", "lbfgs", "--out-dir", str(tmp_path / "exp"),
            ],
        )
        assert code == 0
        assert len(lines[-1]["rows"]) == 4
        assert max(ratios) > 1e10

    def test_trains_on_generated_data_without_reading_it_back(self, tmp_path, capsys, monkeypatch):
        flags = ["--seed", "5", "--n", "300", "--d", "6", "--rank", "3", "--test-n", "80"]
        code, _, _ = run_cli(
            capsys,
            ["gen-data", *flags, "--out-train", str(tmp_path / "train.csv"),
             "--out-test", str(tmp_path / "test.csv")],
        )
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("experiment read a CSV back")

        monkeypatch.setattr(tailopt.cli, "load_csv", refuse)
        code, lines, _ = run_cli(
            capsys, ["experiment", *flags, "--max-iters", "30", "--out-dir", str(tmp_path / "exp")]
        )
        assert code == 0
        assert len(lines[-1]["rows"]) == 4
        # The files are still written, byte for byte as gen-data writes them.
        for name in ("train.csv", "test.csv"):
            assert (tmp_path / "exp" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_line_search_failure_exits_solver_error(self, tmp_path, capsys, monkeypatch):
        # An oracle whose gradient -e_0 points uphill: every trial of the
        # first search is rejected, so the first tail model fails.
        def uphill(loss, data, w, params):
            return float(w[0]), -np.eye(data.d)[0]

        monkeypatch.setattr(tailopt.cli, "smoothed_oracle", uphill)
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 4
        assert lines == []
        assert "error: line search failed while training p0.5" in err.splitlines()
        assert not (tmp_path / "exp" / "results.csv").exists()
        self._assert_csvs_match_gen_data(tmp_path, capsys)

    FLAGS = ["--seed", "5", "--n", "300", "--d", "6", "--rank", "3", "--test-n", "80"]

    def _experiment(self, tmp_path, capsys):
        """Run the small experiment into ``tmp_path/exp``; return (code, lines, stderr)."""
        return run_cli(
            capsys, ["experiment", *self.FLAGS, "--max-iters", "30", "--out-dir", str(tmp_path / "exp")]
        )

    def _assert_csvs_match_gen_data(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            ["gen-data", *self.FLAGS, "--out-train", str(tmp_path / "train.csv"),
             "--out-test", str(tmp_path / "test.csv")],
        )
        assert code == 0
        for name in ("train.csv", "test.csv"):
            assert (tmp_path / "exp" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_directory_in_place_of_train_csv_exits_before_any_fit(self, tmp_path, capsys):
        (tmp_path / "exp" / "train.csv").mkdir(parents=True)
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 3
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert "training" not in err
        assert lines == []
        assert not (tmp_path / "exp" / "results.csv").exists()

    def test_directory_in_place_of_results_csv_exits_before_any_fit(self, tmp_path, capsys):
        (tmp_path / "exp" / "results.csv").mkdir(parents=True)
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 3
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert "training" not in err
        assert lines == []

    def test_failed_run_leaves_no_old_results(self, tmp_path, capsys):
        code, _, _ = self._experiment(tmp_path, capsys)
        assert code == 0
        assert (tmp_path / "exp" / "results.csv").exists()
        code, lines, err = run_cli(
            capsys,
            [
                "experiment", "--n", "300", "--d", "10", "--rank", "1", "--test-n", "50",
                "--max-iters", "5", "--out-dir", str(tmp_path / "exp"),
            ],
        )
        assert code == 4  # a singular ERM system
        assert lines == []
        assert "singular" in err
        assert sorted(p.name for p in (tmp_path / "exp").iterdir()) == ["test.csv", "train.csv"]

    def test_oserror_in_csv_write_exits_three(self, tmp_path, capsys, monkeypatch):
        def full_disk(data, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(tailopt.cli, "save_csv", full_disk)
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 3
        assert "No space left on device" in err and "train.csv" in err
        assert lines == []
        assert not (tmp_path / "exp" / "results.csv").exists()

    def test_starts_no_process(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("experiment started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "pipe", refuse)
        code, lines, _ = self._experiment(tmp_path, capsys)
        assert code == 0
        assert len(lines[-1]["rows"]) == 4
        assert len((tmp_path / "exp" / "results.csv").read_text().splitlines()) == 5
        monkeypatch.undo()
        self._assert_csvs_match_gen_data(tmp_path, capsys)

    def test_csvs_are_written_after_the_fits(self, tmp_path, capsys, monkeypatch):
        fit, sizes = tailopt.cli._fit, []

        def recording_fit(*args):
            sizes.append([(tmp_path / "exp" / name).stat().st_size for name in ("train.csv", "test.csv")])
            return fit(*args)

        monkeypatch.setattr(tailopt.cli, "_fit", recording_fit)
        code, _, _ = self._experiment(tmp_path, capsys)
        assert code == 0
        assert sizes == [[0, 0]] * 4  # opened, still empty, while each fit runs
        self._assert_csvs_match_gen_data(tmp_path, capsys)

    def test_solver_error_leaves_complete_files(self, tmp_path, capsys, monkeypatch):
        def fail(oracle, config):
            raise EvaluationError("non-finite loss at sample 0")

        monkeypatch.setattr(tailopt.cli, "run_solver", fail)
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 4
        assert "non-finite loss at sample 0" in err
        assert lines == []
        monkeypatch.undo()
        self._assert_csvs_match_gen_data(tmp_path, capsys)

    def test_no_progress_stop_exits_zero(self, tmp_path, capsys, monkeypatch):
        def stall(oracle, config):
            return SolverResult(
                solution=np.zeros(config.initial_point.size),
                objective_trace=np.array([1.0]),
                termination=Termination.NO_PROGRESS,
                oracle_calls=2,
            )

        monkeypatch.setattr(tailopt.cli, "run_solver", stall)
        code, lines, _ = self._experiment(tmp_path, capsys)
        assert code == 0
        assert len(lines[-1]["rows"]) == 4

    def test_singular_erm_exits_solver_error(self, tmp_path, capsys):
        code, lines, err = run_cli(
            capsys,
            [
                "experiment", "--n", "300", "--d", "10", "--rank", "1", "--test-n", "50",
                "--max-iters", "5", "--out-dir", str(tmp_path / "exp"),
            ],
        )
        assert code == 4
        assert lines == []
        assert err.splitlines()[-1] == (
            "error: normal equations are singular: the features are collinear"
        )
        assert not (tmp_path / "exp" / "results.csv").exists()

    def test_fits_use_solver_config_defaults(self, tmp_path, capsys, monkeypatch):
        configs = []
        run_solver = tailopt.cli.run_solver

        def recording(oracle, config):
            configs.append(config)
            return run_solver(oracle, config)

        monkeypatch.setattr(tailopt.cli, "run_solver", recording)
        code, _, _ = run_cli(
            capsys, ["experiment", *self.FLAGS, "--out-dir", str(tmp_path / "exp")]
        )
        assert code == 0
        assert len(configs) == 3
        for config in configs:
            assert config.max_iters == 500
            assert config.grad_tol == 1e-8
            assert config.f_tol == 1e-10

    @pytest.mark.parametrize("algorithm", ["lbfgs", "subgradient"])
    def test_fits_share_one_inverse_gram(self, tmp_path, capsys, monkeypatch, algorithm):
        configs = []
        run_solver = tailopt.cli.run_solver

        def recording(oracle, config):
            configs.append(config)
            return run_solver(oracle, config)

        monkeypatch.setattr(tailopt.cli, "run_solver", recording)
        code, _, _ = run_cli(
            capsys,
            [
                "experiment", *self.FLAGS, "--algorithm", algorithm, "--max-iters", "20",
                "--out-dir", str(tmp_path / "exp"),
            ],
        )
        assert code == 0
        assert len(configs) == 3
        M = configs[0].preconditioner
        assert all(config.preconditioner is M for config in configs)
        if algorithm == "subgradient":
            assert M is None
            return
        train = append_intercept(load_csv(tmp_path / "exp" / "train.csv"))
        X = train.features
        np.testing.assert_allclose(M @ (X.T @ X / train.n), np.eye(train.d), atol=1e-8)

    def test_inverse_gram_is_formed_once_per_training_set(self, tmp_path, capsys, monkeypatch):
        # The default experiment's three L-BFGS fits share one read-only
        # inverse Gram; the nonsmooth methods and the closed-form ERM form none.
        data, _ = write_consistent_csv(tmp_path)
        runs = [
            ["experiment", *self.FLAGS, "--out-dir", str(tmp_path / "exp")],
            ["experiment", *self.FLAGS, "--algorithm", "subgradient", "--out-dir", str(tmp_path / "sub")],
            ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--objective", "erm"],
        ]
        formed = []
        for argv in runs:
            with monkeypatch.context() as patch:
                inverses = record_pinv(patch)
                assert run_cli(capsys, argv)[0] == 0
            formed.append(len(inverses))
            assert all(not M.flags.writeable for M in inverses)
        assert formed == [1, 0, 0]

    def test_same_seed_reproduces_results(self, tmp_path, capsys):
        args = [
            "experiment", "--seed", "3", "--n", "300", "--d", "8", "--rank", "4",
            "--test-n", "150", "--max-iters", "100",
        ]
        code, _, _ = run_cli(capsys, args + ["--out-dir", str(tmp_path / "a")])
        assert code == 0
        code, _, _ = run_cli(capsys, args + ["--out-dir", str(tmp_path / "b")])
        assert code == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()


class TestFitFlags:
    def test_train_and_experiment_share_fit_defaults(self):
        parser = build_parser()
        train = vars(parser.parse_args(["train", "--data", "d.csv", "--out", "m.json"]))
        experiment = vars(parser.parse_args(["experiment"]))
        shared = ("mu", "penalty", "algorithm", "max_iters", "grad_tol", "f_tol")
        assert {k: train[k] for k in shared} == {k: experiment[k] for k in shared}
        defaults = SolverConfig()
        assert (train["grad_tol"], train["f_tol"]) == (defaults.grad_tol, defaults.f_tol)
        assert "step_size" not in train and "step_size" not in experiment

    @pytest.mark.parametrize("objective", ["superquantile", "erm"])
    @pytest.mark.parametrize("value", ["0.1", "auto"])
    def test_step_size_is_not_a_flag(self, tmp_path, capsys, objective, value):
        # The subgradient and dual-averaging steps are always tuned.
        data, _ = write_consistent_csv(tmp_path)
        argv = [
            "train", "--data", str(data), "--out", str(tmp_path / "m.json"),
            "--objective", objective, "--step-size", value,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --step-size" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    BAD_VALUES = [
        ("--mu", "-1"), ("--mu", "0"), ("--mu", "nan"), ("--mu", "inf"), ("--mu", "big"),
        ("--max-iters", "0"), ("--max-iters", "-3"), ("--max-iters", "2.5"),
        ("--grad-tol", "-1"), ("--grad-tol", "nan"), ("--f-tol", "-1e-9"), ("--f-tol", "inf"),
    ]

    @pytest.mark.parametrize("objective", ["superquantile", "erm"])
    @pytest.mark.parametrize("flag, value", BAD_VALUES)
    def test_bad_train_fit_flag_is_flag_error(self, tmp_path, capsys, objective, flag, value):
        data, _ = write_consistent_csv(tmp_path)
        argv = [
            "train", "--data", str(data), "--out", str(tmp_path / "m.json"),
            "--objective", objective, flag, value,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "flag, value", [(f, v) for f, v in BAD_VALUES if f in ("--mu", "--max-iters")]
    )
    def test_bad_experiment_fit_flag_is_flag_error(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "exp"
        argv = ["experiment", *TestExperiment.FLAGS, flag, value, "--out-dir", str(out_dir)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_gradient_descent_is_not_a_choice(self, tmp_path, capsys, command):
        data, _ = write_consistent_csv(tmp_path)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--data", str(data), "--out", str(out)],
            "experiment": ["experiment", *TestExperiment.FLAGS, "--out-dir", str(out)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--algorithm", "gradient_descent"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --algorithm: invalid choice" in err
        assert all(name in err for name in ("subgradient", "dual_averaging", "lbfgs"))
        assert not out.exists()

    def test_fit_flags_accept_their_boundary_values(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "train", "--data", "d.csv", "--out", "m.json", "--mu", "1e-300",
                "--max-iters", "1", "--grad-tol", "0", "--f-tol", "0",
            ]
        )
        assert (args.mu, args.max_iters, args.grad_tol, args.f_tol) == (1e-300, 1, 0.0, 0.0)
        assert isinstance(args.max_iters, int)

    @staticmethod
    def _record_configs(monkeypatch):
        configs = []
        run_solver = tailopt.cli.run_solver

        def recording(oracle, config):
            configs.append(config)
            return run_solver(oracle, config)

        monkeypatch.setattr(tailopt.cli, "run_solver", recording)
        return configs

    def test_train_flags_reach_solver_config(self, tmp_path, capsys, monkeypatch):
        configs = self._record_configs(monkeypatch)
        data, _ = write_consistent_csv(tmp_path)
        code, _, _ = run_cli(
            capsys,
            [
                "train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                "--algorithm", "subgradient", "--grad-tol", "0",
                "--f-tol", "1e-6", "--max-iters", "7",
            ],
        )
        assert code == 0
        [config] = configs
        assert config.algorithm is Algorithm.SUBGRADIENT
        assert config.max_iters == 7
        assert config.grad_tol == 0.0
        assert config.f_tol == 1e-6
        assert np.array_equal(config.initial_point, np.zeros(5))  # intercept appended

    def test_experiment_fit_flags_reach_every_fit(self, tmp_path, capsys, monkeypatch):
        configs = self._record_configs(monkeypatch)
        code, _, _ = run_cli(
            capsys,
            [
                "experiment", *TestExperiment.FLAGS, "--algorithm", "dual_averaging",
                "--max-iters", "7", "--out-dir", str(tmp_path / "exp"),
            ],
        )
        assert code == 0
        assert len(configs) == 3
        for config in configs:
            assert config.algorithm is Algorithm.DUAL_AVERAGING
            assert config.max_iters == 7


class TestAlgorithmsAtDefaults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_algorithm_nears_lbfgs(self, seed):
        # Each --algorithm fits p = 0.9 at the CLI defaults to within 0.2 of
        # L-BFGS in the exact superquantile, and no non-descent method stops
        # on the stall test.
        args = build_parser().parse_args(
            ["experiment", "--seed", str(seed), "--n", "1000", "--d", "10", "--rank", "5"]
        )
        _, train, _ = tailopt.cli._generate_pair(args)
        train = append_intercept(train)
        tail = {}
        for algo in Algorithm:
            args.algorithm = algo.value
            fit = tailopt.cli._fit(train, args, "superquantile", 0.9)
            if algo is not Algorithm.LBFGS:
                assert fit["termination"] != Termination.F_TOL.value, algo
            tail[algo] = superquantile(batch_losses(LinearLeastSquares(), train, fit["weights"]), 0.9)
        for algo, value in tail.items():
            assert abs(value - tail[Algorithm.LBFGS]) <= 0.2, algo


class TestDataFlags:
    """Every numeric flag outside the solver's is checked when it is parsed:
    a bad value exits 2 naming its flag, before any file is read or written."""

    @staticmethod
    def _exits_two_naming(capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected" in err
        assert f"got {value!r}" in err

    @pytest.mark.parametrize("objective", ["superquantile", "erm"])
    @pytest.mark.parametrize("value", ["1.5", "1", "-0.1", "nan", "inf", "high"])
    def test_bad_train_tail_level(self, tmp_path, capsys, objective, value):
        out = tmp_path / "m.json"
        argv = [
            "train", "--data", str(tmp_path / "absent.csv"), "--out", str(out),
            "--objective", objective, "--p", value,
        ]
        self._exits_two_naming(capsys, argv, "--p", value)
        assert not out.exists()

    BAD_VALUES = [
        ("--n", "0"), ("--n", "-5"), ("--n", "2.5"), ("--d", "0"), ("--rank", "0"),
        ("--test-n", "0"), ("--test-n", "many"), ("--seed", "-1"), ("--seed", "1.5"),
        ("--bernoulli-p", "1.5"), ("--bernoulli-p", "-0.1"), ("--bernoulli-p", "nan"),
        ("--laplace-loc", "nan"), ("--laplace-loc", "inf"), ("--laplace-loc", "-inf"),
        ("--laplace-scale", "inf"), ("--laplace-scale", "-1"), ("--laplace-scale", "nan"),
    ]

    @pytest.mark.parametrize("flag, value", BAD_VALUES)
    def test_bad_gen_data_flag(self, tmp_path, capsys, flag, value):
        out_train, out_test = tmp_path / "train.csv", tmp_path / "test.csv"
        argv = ["gen-data", "--out-train", str(out_train), "--out-test", str(out_test)]
        self._exits_two_naming(capsys, [*argv, f"{flag}={value}"], flag, value)
        assert not out_train.exists() and not out_test.exists()

    @pytest.mark.parametrize("flag, value", BAD_VALUES)
    def test_bad_experiment_data_flag(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "exp"
        argv = ["experiment", *TestExperiment.FLAGS, f"{flag}={value}", "--out-dir", str(out_dir)]
        self._exits_two_naming(capsys, argv, flag, value)
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["gen-data", "experiment", "eval", "train"])
    def test_target_column_is_not_a_data_flag(self, tmp_path, capsys, command):
        # Every file gen-data and experiment write ends its header in "target";
        # eval takes the target name and the intercept from the model file, and
        # train always appends the intercept.
        data, model = str(tmp_path / "d.csv"), str(tmp_path / "m.json")
        argv = {
            "gen-data": [*TestExperiment.FLAGS, "--out-train", data, "--out-test", str(tmp_path / "b.csv")],
            "experiment": [*TestExperiment.FLAGS, "--out-dir", str(tmp_path / "exp")],
            "eval": ["--model", model, "--data", data],
            "train": ["--data", data, "--out", model],
        }
        flags = ["--no-intercept"] if command == "train" else ["--target-column", "y"]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv[command], *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["abc", "1.5", "0.5,1", "-0.1", "0.5,nan", "0.5;0.9"])
    def test_bad_eval_levels(self, tmp_path, capsys, value):
        argv = [
            "eval", "--model", str(tmp_path / "absent.json"), "--data",
            str(tmp_path / "absent.csv"), "--levels", value,
        ]
        self._exits_two_naming(capsys, argv, "--levels", value)

    def test_level_list_starting_with_a_minus_sign_is_a_value(self, tmp_path, capsys):
        # The whole list is the value of --levels, so a bad first level is
        # named by the level check, not taken for a flag.
        argv = [
            "eval", "--model", str(tmp_path / "absent.json"), "--data",
            str(tmp_path / "absent.csv"), "--levels",
        ]
        self._exits_two_naming(capsys, [*argv, "-0.1,0.5"], "--levels", "-0.1,0.5")
        assert build_parser().parse_args([*argv, "-0.0,0.5"]).levels == [0.0, 0.5]

    @pytest.mark.parametrize("command", ["gen-data", "experiment"])
    @pytest.mark.parametrize(
        "value, expected", [("-1e3", -1e3), ("-1.5E-2", -1.5e-2), ("-2.e+1", -20.0), ("-.5e1", -5.0)]
    )
    def test_negative_exponent_form_is_a_value(self, command, value, expected):
        argv = [command, "--laplace-loc", value]
        if command == "gen-data":
            argv += ["--out-train", "a.csv", "--out-test", "b.csv"]
        assert build_parser().parse_args(argv).laplace_loc == expected

    def test_gen_data_runs_with_negative_exponent_location(self, tmp_path, capsys):
        out_train, out_test = tmp_path / "train.csv", tmp_path / "test.csv"
        argv = [
            "gen-data", "--n", "20", "--d", "3", "--rank", "2", "--test-n", "5",
            "--laplace-loc", "-1e3", "--out-train", str(out_train), "--out-test", str(out_test),
        ]
        code, lines, _ = run_cli(capsys, argv)
        assert code == 0
        assert lines[-1]["spec"]["laplace_loc"] == -1000.0
        assert out_train.exists() and out_test.exists()

    def test_bad_negative_exponent_values_name_their_flag(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(tmp_path / "absent.csv"), "--out", str(out)]
        self._exits_two_naming(capsys, [*argv, "--mu", "-1e3"], "--mu", "-1e3")
        assert not out.exists()
        argv = ["experiment", *TestExperiment.FLAGS, "--out-dir", str(tmp_path / "exp")]
        self._exits_two_naming(capsys, [*argv, "--laplace-loc", "-1e400"], "--laplace-loc", "-1e400")
        assert not (tmp_path / "exp").exists()

    def test_rank_above_d_is_still_checked_by_the_spec(self, tmp_path, capsys):
        argv = [
            "gen-data", "--d", "3", "--rank", "4", "--out-train", str(tmp_path / "a.csv"),
            "--out-test", str(tmp_path / "b.csv"),
        ]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "effective_rank must lie in [1, d=3], got 4" in err

    def test_flags_accept_their_boundary_values(self):
        parser = build_parser()
        gen = parser.parse_args(
            [
                "gen-data", "--out-train", "a.csv", "--out-test", "b.csv", "--n", "1",
                "--d", "1", "--rank", "1", "--test-n", "1", "--seed", "0",
                "--bernoulli-p", "1", "--laplace-loc=-1e300", "--laplace-scale", "0",
            ]
        )
        assert (gen.n, gen.d, gen.rank, gen.test_n, gen.seed) == (1, 1, 1, 1, 0)
        assert (gen.bernoulli_p, gen.laplace_loc, gen.laplace_scale) == (1.0, -1e300, 0.0)
        assert parser.parse_args(["experiment", "--bernoulli-p", "0"]).bernoulli_p == 0.0
        for p in ("0", "0.999"):
            train = parser.parse_args(["train", "--data", "d.csv", "--out", "m.json", "--p", p])
            assert train.p == float(p)
        evals = ["eval", "--model", "m.json", "--data", "d.csv"]
        assert parser.parse_args(evals).levels == [0.5, 0.9]
        assert parser.parse_args([*evals, "--levels", "0, 0.99,"]).levels == [0.0, 0.99]
        assert parser.parse_args([*evals, "--levels", ""]).levels == []
        assert [str(p) for p in parser.parse_args([*evals, "--levels=-0.0,0"]).levels] == ["0.0"]

    def test_empty_eval_levels_report_the_mean_only(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        model = tmp_path / "m.json"
        argv = ["train", "--data", str(data), "--out", str(model), "--objective", "erm"]
        assert run_cli(capsys, argv)[0] == 0
        code, lines, _ = run_cli(
            capsys, ["eval", "--model", str(model), "--data", str(data), "--levels", ","]
        )
        assert code == 0
        assert lines[-1]["quantiles"] == {} and lines[-1]["levels"] == []


def test_main_leaves_numpy_error_state_unchanged(tmp_path, capsys):
    before = np.geterr()
    data, _ = write_consistent_csv(tmp_path)
    out = str(tmp_path / "m.json")
    assert run_cli(capsys, ["train", "--data", str(data), "--out", out])[0] == 0
    assert run_cli(capsys, ["train", "--data", str(tmp_path / "none.csv"), "--out", out])[0] == 3
    assert np.geterr() == before


class TestScriptability:
    # numpy is the only runtime dependency; scipy is for the tests alone, and
    # the experiment starts no process.
    @pytest.mark.parametrize("package", ["scipy", "multiprocessing"])
    def test_cli_import_loads_no_module(self, package):
        run = run_python(
            "-c",
            "import sys, tailopt.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))",
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_package_runs_as_a_module(self):
        run = run_python("-m", "tailopt", "--help")
        assert run.returncode == 0, run.stderr
        assert "{gen-data,train,eval,experiment}" in run.stdout

    def test_stdout_is_json_only_in_subprocess(self, tmp_path):
        data, _ = write_consistent_csv(tmp_path)
        train = run_module(
            ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--objective", "erm"]
        )
        assert train.returncode == 0
        ev = run_module(
            [
                "eval", "--model", str(tmp_path / "m.json"), "--data", str(data),
                "--levels", "0.5,0.9",
            ]
        )
        assert ev.returncode == 0
        for line in ev.stdout.splitlines():
            json.loads(line)  # every stdout line is machine-readable
        assert "metric" in ev.stderr

    def test_experiment_stdout_is_one_json_line_in_subprocess(self, tmp_path):
        # stdout is a pipe here, so fully buffered; it holds the one JSON line.
        run = run_module(
            [
                "experiment", "--seed", "1", "--n", "200", "--d", "5", "--rank", "3",
                "--test-n", "50", "--max-iters", "20", "--out-dir", str(tmp_path / "exp"),
            ]
        )
        assert run.returncode == 0
        lines = run.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["command"] == "experiment"
        assert [line for line in run.stderr.splitlines() if line.startswith("training ")] == [
            f"training {name} ..." for name in ("erm", "p0.5", "p0.7", "p0.9")
        ]

    def test_overflow_leaves_only_the_error_line_on_stderr(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "huge.csv"
        save_csv(Dataset(1e160 * rng.standard_normal((30, 3)), rng.standard_normal(30)), data)
        run = run_module(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert run.returncode == 4
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: non-finite")

    def test_missing_file_exit_code_in_subprocess(self, tmp_path):
        ev = run_module(
            ["eval", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "x.csv")]
        )
        assert ev.returncode == 3
