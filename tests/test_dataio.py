import csv
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailopt import dataio
from tailopt.core import Dataset
from tailopt.dataio import (
    DataFormatError,
    EmptyDatasetError,
    MissingColumnError,
    NonNumericCellError,
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
from tailopt.superquantile import superquantile

from helpers import random_lsq_dataset


class TestGenerateLowRank:
    def test_spectral_energy_concentrates_in_top_block(self):
        X = generate_low_rank(200, 40, 30, seed=0)
        s = np.linalg.svd(X, compute_uv=False)
        energy = np.cumsum(s**2) / np.sum(s**2)
        assert energy[29] >= 0.9

    def test_full_rank_profile_has_no_knee(self):
        X = generate_low_rank(5, 5, 5, seed=1)
        s = np.linalg.svd(X, compute_uv=False)
        assert s.max() / s.min() < 5.0  # all profile values of the same order

    def test_deterministic_per_seed(self):
        a = generate_low_rank(50, 8, 4, seed=7)
        b = generate_low_rank(50, 8, 4, seed=7)
        assert np.array_equal(a, b)
        c = generate_low_rank(50, 8, 4, seed=8)
        assert not np.array_equal(a, c)

    def test_rank_above_d_rejected(self):
        with pytest.raises(ValueError):
            generate_low_rank(10, 4, 5, seed=0)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            generate_low_rank(0, 4, 2, seed=0)

    def test_shape(self):
        assert generate_low_rank(12, 3, 2, seed=0).shape == (12, 3)


class TestGenerateTargets:
    def test_pure_gaussian_noise_mean(self):
        n = 100_000
        spec = SyntheticSpec(n=n, d=4, effective_rank=2, bernoulli_p=1.0, seed=0)
        X = generate_low_rank(n, 4, 2, seed=1)
        w_bar = resolve_w_bar(spec, seed=2)
        y = generate_targets(X, w_bar, spec, seed=3)
        noise = y - X @ w_bar
        assert abs(noise.mean()) <= 3.0 / np.sqrt(n)

    def test_pure_laplace_noise_mean(self):
        n = 100_000
        spec = SyntheticSpec(n=n, d=4, effective_rank=2, bernoulli_p=0.0, seed=0)
        X = generate_low_rank(n, 4, 2, seed=1)
        w_bar = resolve_w_bar(spec, seed=2)
        y = generate_targets(X, w_bar, spec, seed=3)
        noise = y - X @ w_bar
        # Mean 10, variance 2 for the heavy branch at unit scale.
        assert abs(noise.mean() - 10.0) <= 3.0 * np.sqrt(2.0) / np.sqrt(n)

    def test_degenerate_laplace_scale_gives_constant_offset(self):
        spec = SyntheticSpec(
            n=50, d=3, effective_rank=2, bernoulli_p=0.0, laplace_scale=0.0, seed=0
        )
        X = generate_low_rank(50, 3, 2, seed=1)
        w_bar = resolve_w_bar(spec, seed=2)
        y = generate_targets(X, w_bar, spec, seed=3)
        assert np.array_equal(y - X @ w_bar, np.full(50, 10.0))

    def test_width_mismatch_rejected(self):
        spec = SyntheticSpec(n=5, d=3, effective_rank=2)
        with pytest.raises(ValueError, match="3 columns but w_bar has length 4"):
            generate_targets(np.ones((5, 3)), np.ones(4), spec, seed=0)

    def test_seed_determinism(self):
        spec = SyntheticSpec(n=100, d=3, effective_rank=2, seed=5)
        X = generate_low_rank(100, 3, 2, seed=6)
        w_bar = resolve_w_bar(spec, seed=7)
        assert np.array_equal(
            generate_targets(X, w_bar, spec, seed=8), generate_targets(X, w_bar, spec, seed=8)
        )

    def test_streams_are_distinct(self):
        streams = seed_streams(0)
        assert set(streams) == {
            "train_matrix",
            "test_matrix",
            "w_bar",
            "train_noise",
            "test_noise",
        }
        a = np.random.default_rng(streams["train_noise"]).random(4)
        b = np.random.default_rng(streams["test_noise"]).random(4)
        assert not np.array_equal(a, b)

    def test_streams_keep_their_bits(self):
        # Golden words from when a sixth stream followed these five: spawning
        # fewer children must not move the ones that stay.
        streams = seed_streams(2024)
        golden = {
            "train_matrix": [2855298535, 925030728],
            "test_matrix": [1146676384, 1811149567],
            "w_bar": [524768821, 2577401382],
            "train_noise": [4067285479, 2609318523],
            "test_noise": [2651666590, 174624609],
        }
        for name, words in golden.items():
            assert streams[name].generate_state(2).tolist() == words


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = random_lsq_dataset(0, n=10, d=3)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)

    def test_text_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["x0,target"] + [f"{i}.0,{i}.5" for i in range(1, 11)]
        lines[7] = "oops,7.5"  # 7th data row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonNumericCellError, match="row 7") as err:
            load_csv(path)
        assert err.value.row == 7

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("column", [0, 2])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_names_row(self, tmp_path, cell, column, quoted):
        # Quoting the cell sends the file through the row parser.
        path = tmp_path / "bad.csv"
        rows = [["1.0", "2.0", "3.0"] for _ in range(4)]
        rows[2][column] = f'"{cell}"' if quoted else cell  # 3rd data row
        path.write_text("x0,x1,target\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(NonNumericCellError, match="non-finite cell at data row 3$") as err:
            load_csv(path)
        assert err.value.row == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(EmptyDatasetError, match="no header row"):
            load_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1,target\n")
        with pytest.raises(EmptyDatasetError, match="empty dataset"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, target_column="target")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,target\n1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path)

    def test_custom_target_column_position(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y,x0\n5.0,1.0\n6.0,2.0\n")
        ds = load_csv(path, target_column="y")
        assert np.array_equal(ds.targets, [5.0, 6.0])
        assert np.array_equal(ds.features[:, 0], [1.0, 2.0])

    @pytest.mark.parametrize("header", ["x0,target,target", "target,x0, target "])
    def test_target_named_twice_is_rejected(self, tmp_path, header):
        # Fitting the first match would fit a column the user may not mean.
        path = tmp_path / "twice.csv"
        path.write_text(header + "\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(DataFormatError, match="'target' matches 2 columns") as err:
            load_csv(path)
        assert not isinstance(err.value, MissingColumnError)

    @pytest.mark.parametrize("name", [" y", "y ", " y "])
    def test_target_name_is_stripped_like_the_header(self, tmp_path, name):
        path = tmp_path / "spaced.csv"
        path.write_text("x0, y\n1.0,5.0\n2.0,6.0\n")
        ds = load_csv(path, target_column=name)
        assert np.array_equal(ds.targets, [5.0, 6.0])
        assert np.array_equal(ds.features[:, 0], [1.0, 2.0])

    def test_row_parser_reads_the_same_handle_again(self, tmp_path, monkeypatch):
        # A quoted cell sends the body to the row parser, which rereads the
        # file from its start on the handle the header came from.
        path = tmp_path / "quoted.csv"
        path.write_text('x0,target\n"1.5",2.0\n3.0,4.0\n')
        opened = []
        real_open = open

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return real_open(*args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        ds = load_csv(path)
        monkeypatch.undo()
        assert opened == [path]
        assert np.array_equal(ds.features[:, 0], [1.5, 3.0])
        assert np.array_equal(ds.targets, [2.0, 4.0])


def csv_writer_reference(data: Dataset, target_column: str = "target") -> bytes:
    """The file a row-by-row ``csv.writer`` with 17-digit cells writes."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([f"x{j}" for j in range(data.d)] + [target_column])
    for x, y in zip(data.features, data.targets):
        writer.writerow([f"{v:.17g}" for v in x] + [f"{y:.17g}"])
    return out.getvalue().encode()


def _tie_at_digit_18(j: int):
    """Odd n / 2**j whose exact decimal n * 5**j has 18 digits, so the
    17-digit rounding is an exact tie."""
    low = -(-(10**17) // 5**j) // 2
    high = (min(10**18 // 5**j, 2**53) - 1) // 2
    return st.integers(low, high).map(lambda o: (2 * o + 1) / 2.0**j)


# Cells the numpy kernel formats: zeros, and 1e-11 <= |x| < 2**52, with E in
# [-11, 15].
_KERNEL_CELL = st.builds(
    lambda x, negative: -x if negative else x,
    st.one_of(
        st.just(0.0),
        st.floats(np.nextafter(1e-11, 1.0), 4.5e15),
        st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 9999), st.integers(-10, 11)),
        st.integers(1, 2**52 - 1).map(float),
        st.builds(
            lambda j, up: float(np.nextafter(10.0**j, np.inf if up else 0.0)),
            st.integers(-10, 15),
            st.booleans(),
        ),
        st.integers(2, 25).flatmap(_tie_at_digit_18),
    ),
    st.booleans(),
)


@st.composite
def _kernel_blocks(draw):
    rows, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    cells = draw(st.lists(_KERNEL_CELL, min_size=rows * (d + 1), max_size=rows * (d + 1)))
    table = np.array(cells).reshape(rows, d + 1)
    return Dataset(table[:, :d], table[:, d])


CHUNK = dataio._CSV_CHUNK_ROWS  # rows per formatted block


class TestCsvFastPaths:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(ds=_kernel_blocks())
    def test_kernel_matches_csv_writer_bytes(self, tmp_path, ds):
        # Every cell lies in the kernel's range, so the block is formatted in
        # numpy, and must still give %.17g's bytes: signed zeros, short
        # decimals, integers, neighbours of powers of ten and exact ties at
        # the 18th digit.
        assert dataio._format_block(np.column_stack((ds.features, ds.targets))) is not None
        path = tmp_path / "k.csv"
        save_csv(ds, path)
        assert path.read_bytes() == csv_writer_reference(ds)

    def test_powers_of_ten_and_their_neighbours_take_the_kernel(self):
        # floor(log10|x|) is off by one next to some powers of ten, and no
        # neighbour below one rounds up to it at 17 digits.  The double 1e-11
        # lies below 10**-11, outside the kernel's range.
        powers = 10.0 ** np.arange(-10, 16)
        cells = np.concatenate(
            [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]
        )
        block = np.concatenate([cells, -cells]).reshape(-1, 6)
        row_format = ",".join(["%.17g"] * 6) + "\r\n"
        assert dataio._format_block(block) == (row_format * block.shape[0]) % tuple(block.ravel())
        assert dataio._format_block(np.array([[1e-11]])) is None

    @pytest.mark.parametrize("n, bad_row", [(CHUNK + 1, CHUNK), (2500, 1500)])
    def test_out_of_range_cell_sends_only_its_block_to_the_percent_line(
        self, tmp_path, monkeypatch, n, bad_row
    ):
        rng = np.random.default_rng(n)
        X = rng.choice([-1.0, 1.0], (n, 3)) * 10.0 ** rng.uniform(-10, 15, (n, 3))
        X[bad_row, 1] = 5e-324
        X[:: CHUNK // 2, 2] = 0.0
        ds = Dataset(X, rng.uniform(1.0, 2.0, n))
        format_block, formatted = dataio._format_block, []

        def spy(block):
            text = format_block(block)
            formatted.append(text is not None)
            return text

        monkeypatch.setattr(dataio, "_format_block", spy)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        assert formatted == [i != bad_row // CHUNK for i in range(-(-n // CHUNK))]
        assert path.read_bytes() == csv_writer_reference(ds)

    @pytest.mark.parametrize("n", [1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2500])
    def test_save_matches_csv_writer_bytes(self, tmp_path, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
        X[0, 0] = -0.0
        X[-1, -1] = 5e-324
        ds = Dataset(X, rng.standard_cauchy(n))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        assert path.read_bytes() == csv_writer_reference(ds)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)

    def test_write_holds_one_block_at_a_time(self):
        def peak_bytes(n):
            ds = random_lsq_dataset(n, n=n, d=40)
            tracemalloc.start()
            try:
                save_csv(ds, os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1)  # builds the formatting tables outside the measurements
        small, large = peak_bytes(4 * CHUNK), peak_bytes(32 * CHUNK)
        assert large < 1.25 * small

    def test_target_name_that_needs_quoting(self, tmp_path):
        ds = random_lsq_dataset(1, n=5, d=2)
        name = 'y, "raw"'
        path = tmp_path / "q.csv"
        body = csv_writer_reference(ds).split(b"\r\n", 1)[1]
        path.write_bytes(b'x0,x1,"y, ""raw"""\r\n' + body)
        assert path.read_bytes() == csv_writer_reference(ds, name)
        back = load_csv(path, target_column=name)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)

    def test_blank_line_is_a_short_row(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x0,target\n1.0,2.0\n\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match="data row 2 has 0 cells, expected 2"):
            load_csv(path)

    def test_hash_prefixed_row_is_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("x0,target\n1.0,2.0\n#3.0,4.0\n")
        with pytest.raises(NonNumericCellError, match="row 2") as err:
            load_csv(path)
        assert err.value.row == 2

    def test_quoted_cells_parse_as_numbers(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('x0,"target"\n"1.5",2.0\n3.0,"-4e-3"\n')
        ds = load_csv(path)
        assert np.array_equal(ds.features[:, 0], [1.5, 3.0])
        assert np.array_equal(ds.targets, [2.0, -4e-3])

    def test_lf_and_crlf_files_load_alike(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(b"x0,target\n1.0,2.0\n3.0,4.0")
        crlf.write_bytes(b"x0,target\r\n1.0,2.0\r\n3.0,4.0\r\n")
        a, b = load_csv(lf), load_csv(crlf)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, [2.0, 4.0])


class TestAppendIntercept:
    def test_adds_trailing_ones(self):
        ds = random_lsq_dataset(1, n=5, d=2)
        aug = append_intercept(ds)
        assert aug.d == 3
        assert np.array_equal(aug.features[:, -1], np.ones(5))
        assert np.array_equal(aug.features[:, :2], ds.features)


class TestResidualQuantileReport:
    def test_perfect_fit_is_all_zero(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 3))
        w = rng.standard_normal(3)
        ds = Dataset(X, X @ w)
        report = residual_quantile_report(w, ds, [0.5, 0.9])
        assert report.mean == pytest.approx(0.0, abs=1e-25)
        assert all(v == pytest.approx(0.0, abs=1e-25) for v in report.quantiles.values())

    def test_constructed_squared_residuals(self):
        # Residuals 1, 2, 3, 4 against a zero model give r^2 = 1, 4, 9, 16.
        ds = Dataset(np.zeros((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
        report = residual_quantile_report(np.zeros(1), ds, [0.75, 0.5])
        assert report.p_levels == [0.5, 0.75]
        assert report.quantiles[0.5] == 4.0
        assert report.quantiles[0.75] == 9.0
        assert report.mean == pytest.approx(np.mean([1.0, 4.0, 9.0, 16.0]))

    def test_mean_equals_level_zero_tail_average(self):
        ds = random_lsq_dataset(8, n=25, d=3)
        w = np.random.default_rng(9).standard_normal(3)
        report = residual_quantile_report(w, ds, [0.0])
        r2 = (ds.targets - ds.features @ w) ** 2
        assert report.mean == pytest.approx(superquantile(r2, 0.0), rel=1e-12)

    def test_quantiles_nondecreasing_in_level(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ds = random_lsq_dataset(int(rng.integers(1000)), n=40, d=3)
            w = rng.standard_normal(3)
            report = residual_quantile_report(w, ds, [0.1, 0.3, 0.5, 0.7, 0.9])
            vals = [report.quantiles[p] for p in report.p_levels]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bad_level_rejected(self):
        ds = random_lsq_dataset(11, n=5, d=2)
        with pytest.raises(ValueError):
            residual_quantile_report(np.zeros(2), ds, [0.5, 1.0])


class TestSyntheticSpecValidation:
    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=4, effective_rank=5)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=4, effective_rank=2, bernoulli_p=1.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n": 0}, "need n >= 1"),
            ({"laplace_scale": -1.0}, "laplace_scale must be nonnegative"),
        ],
    )
    def test_size_and_scale_bounds(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**{"n": 10, "d": 4, "effective_rank": 2, **fields})

    def test_full_pipeline_reproducible(self):
        def run(seed):
            streams = seed_streams(seed)
            spec = SyntheticSpec(n=60, d=5, effective_rank=3, seed=seed)
            X = generate_low_rank(60, 5, 3, streams["train_matrix"])
            w_bar = resolve_w_bar(spec, streams["w_bar"])
            return generate_targets(X, w_bar, spec, streams["train_noise"])

        assert np.array_equal(run(123), run(123))
        assert not np.array_equal(run(123), run(124))
