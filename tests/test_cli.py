import errno
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailopt
import tailopt.cli
from tailopt.cli import main
from tailopt.core import Dataset, EvaluationError
from tailopt.dataio import load_csv, residual_quantile_report, save_csv
from tailopt.solvers import SolverResult, Termination

from helpers import random_lsq_dataset


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, lines, out.err


def run_module(argv):
    """Run ``python -m tailopt.cli`` with the package under test importable."""
    src = str(Path(tailopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tailopt.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")],
        )
        assert code == 3
        assert "error" in err

    def test_bad_level_is_flag_error(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        code, _, _ = run_cli(
            capsys,
            ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--p", "1.5"],
        )
        assert code == 2

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

    @pytest.mark.parametrize(
        "text",
        ['{"weights": [1.0, ', '{"config": {}}', '{"weights": [0, 0, 0, 0], "config": 3}'],
    )
    def test_malformed_model_json_is_io_error(self, tmp_path, capsys, text):
        data, _ = write_consistent_csv(tmp_path)
        model = tmp_path / "m.json"
        model.write_text(text)
        code, lines, err = run_cli(capsys, ["eval", "--model", str(model), "--data", str(data)])
        assert code == 3
        assert lines == []
        assert str(model) in err

    def test_nonfinite_model_weights_are_io_error(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        model = tmp_path / "m.json"
        model.write_text('{"weights": [NaN, 0.0, 0.0, 0.0]}')
        code, lines, err = run_cli(capsys, ["eval", "--model", str(model), "--data", str(data)])
        assert code == 3
        assert lines == []
        assert str(model) in err

    def test_dimension_mismatch_names_file_and_dimensions(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)  # 4 feature columns
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"weights": [0.0, 0.0, 0.0]}))
        code, lines, err = run_cli(capsys, ["eval", "--model", str(model), "--data", str(data)])
        assert code == 3
        assert lines == []
        assert str(model) in err and str(data) in err
        assert "3 weights" in err and "4 columns" in err

    def test_overflowing_residuals_keep_stdout_json(self, tmp_path, capsys):
        data, _ = write_consistent_csv(tmp_path)
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"weights": [1e300, 1e300, 1e300, 1e300]}))
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

    @pytest.mark.parametrize("algorithm", ["gradient_descent", "accelerated_gradient"])
    def test_entropic_unit_mu_with_tuned_steps(self, tmp_path, capsys, algorithm):
        # The step tuner probes long steps, which drive loss/mu past 1e10.
        code, lines, _ = run_cli(
            capsys,
            [
                "experiment", "--seed", "0", "--n", "400", "--d", "10", "--rank", "5",
                "--test-n", "50", "--max-iters", "20", "--penalty", "entropic", "--mu", "1",
                "--algorithm", algorithm, "--out-dir", str(tmp_path / "exp"),
            ],
        )
        assert code == 0
        assert len(lines[-1]["rows"]) == 4

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
        assert multiprocessing.active_children() == []  # the CSV writer was joined
        # The files are still written, byte for byte as gen-data writes them.
        for name in ("train.csv", "test.csv"):
            assert (tmp_path / "exp" / name).read_bytes() == (tmp_path / name).read_bytes()

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
        assert multiprocessing.active_children() == []

    def test_oserror_in_writer_process_exits_three(self, tmp_path, capsys, monkeypatch):
        def full_disk(data, fh, target_column):
            raise OSError(errno.ENOSPC, "No space left on device", fh.name)

        monkeypatch.setattr(tailopt.dataio, "_write_csv", full_disk)  # inherited by the fork
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 3
        assert "No space left on device" in err and "train.csv" in err
        assert lines == []
        assert not (tmp_path / "exp" / "results.csv").exists()
        assert multiprocessing.active_children() == []

    def test_writer_process_that_dies_names_files_and_exit_code(self, tmp_path, capsys, monkeypatch):
        def die(data, fh, target_column):
            os._exit(9)

        monkeypatch.setattr(tailopt.dataio, "_write_csv", die)
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 3
        message = err.splitlines()[-1]
        assert message.startswith("error: ")
        assert str(tmp_path / "exp" / "train.csv") in message
        assert str(tmp_path / "exp" / "test.csv") in message
        assert "code 9" in message
        assert lines == []
        assert not (tmp_path / "exp" / "results.csv").exists()
        assert multiprocessing.active_children() == []

    def test_solver_error_waits_for_complete_files(self, tmp_path, capsys, monkeypatch):
        def fail(oracle, config):
            raise EvaluationError("non-finite loss at sample 0")

        monkeypatch.setattr(tailopt.cli, "run_solver", fail)
        code, lines, err = self._experiment(tmp_path, capsys)
        assert code == 4
        assert "non-finite loss at sample 0" in err
        assert lines == []
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        self._assert_csvs_match_gen_data(tmp_path, capsys)

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


class TestScriptability:
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
        # stdout is a pipe here, so fully buffered: output left in its buffer
        # when the CSV writer forks would be printed twice.
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

    def test_missing_file_exit_code_in_subprocess(self, tmp_path):
        ev = run_module(
            ["eval", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "x.csv")]
        )
        assert ev.returncode == 3
