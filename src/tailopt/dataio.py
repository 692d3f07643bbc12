"""Synthetic regression data, CSV ingestion, and residual reports.

All randomness flows through one 64-bit seed, split per purpose with
``numpy.random.SeedSequence`` (see :func:`seed_streams`), so a run is fully
reproducible from its seed.  Cross-platform bitwise equality is not promised;
statistical equivalence is.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .core import Dataset, EvaluationError, _all_finite, _check_level
from .superquantile import _order_statistic

__all__ = [
    "DataFormatError",
    "EmptyDatasetError",
    "MissingColumnError",
    "NonNumericCellError",
    "QuantileReport",
    "SyntheticSpec",
    "append_intercept",
    "generate_low_rank",
    "generate_targets",
    "load_csv",
    "residual_quantile_report",
    "resolve_w_bar",
    "save_csv",
    "seed_streams",
]


class DataFormatError(ValueError):
    """Malformed tabular input."""


class MissingColumnError(DataFormatError):
    """The requested target column is not in the header."""


class NonNumericCellError(DataFormatError):
    """A data cell failed to parse as a number."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class EmptyDatasetError(DataFormatError):
    """The file holds a header but no data rows."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Settings for the synthetic low-rank regression corpus.

    Targets are a linear signal X @ w_bar, with w_bar a seeded standard normal
    vector (see :func:`resolve_w_bar`), plus mixture noise: with probability
    ``bernoulli_p`` a standard normal draw, otherwise a Laplace draw with the
    given location and scale.  ``seed`` is the master seed that
    :func:`seed_streams` splits.
    """

    n: int = 10000
    d: int = 40
    effective_rank: int = 30
    bernoulli_p: float = 0.8
    laplace_loc: float = 10.0
    laplace_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if not 1 <= self.effective_rank <= self.d:
            raise ValueError(
                f"effective_rank must lie in [1, d={self.d}], got {self.effective_rank}"
            )
        if not 0.0 <= self.bernoulli_p <= 1.0:
            raise ValueError(f"bernoulli_p must lie in [0, 1], got {self.bernoulli_p}")
        if self.laplace_scale < 0.0:
            raise ValueError(f"laplace_scale must be nonnegative, got {self.laplace_scale}")


_STREAMS = ("train_matrix", "test_matrix", "w_bar", "train_noise", "test_noise")


def seed_streams(seed: int) -> dict[str, np.random.SeedSequence]:
    """Split one master seed into independent per-purpose seed sequences."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return dict(zip(_STREAMS, children))


def generate_low_rank(n: int, d: int, effective_rank: int, seed) -> np.ndarray:
    """Random n-by-d matrix whose spectrum decays past ``effective_rank``.

    Built as U diag(s) V^T with orthonormal factors from QR of seeded Gaussian
    matrices and a bell-shaped singular-value profile
    exp(-(k / rank)^2) + 0.01 * exp(-k / rank), so the top ``effective_rank``
    singular values carry nearly all of the squared spectrum.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not 1 <= effective_rank <= d:
        raise ValueError(f"effective_rank must lie in [1, d={d}], got {effective_rank}")
    rng = np.random.default_rng(seed)
    m = min(n, d)
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    V, _ = np.linalg.qr(rng.standard_normal((d, m)))
    k = np.arange(m)
    s = np.exp(-((k / effective_rank) ** 2)) + 0.01 * np.exp(-k / effective_rank)
    return (U * s) @ V.T


def _laplace_inverse_cdf(u: np.ndarray, loc: float, scale: float) -> np.ndarray:
    # Inverse-CDF sampling keeps draws deterministic for a given generator.
    t = u - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(t), np.finfo(float).tiny)
    return loc - scale * np.sign(t) * np.log(mag)


def resolve_w_bar(spec: SyntheticSpec, seed) -> np.ndarray:
    """The spec's ground-truth parameters: a standard normal vector of length d."""
    return np.random.default_rng(seed).standard_normal(spec.d)


def generate_targets(X: np.ndarray, w_bar: np.ndarray, spec: SyntheticSpec, seed) -> np.ndarray:
    """Targets X @ w_bar plus per-sample normal/Laplace mixture noise.

    The noise takes its mixture weight, location and scale from ``spec``.
    All three draws (mixture flag, normal, Laplace) are made independently for
    every sample from the generator seeded by ``seed``, one of the streams
    of :func:`seed_streams`.
    """
    X = np.asarray(X, dtype=float)
    w_bar = np.asarray(w_bar, dtype=float)
    if X.shape[1] != w_bar.shape[0]:
        raise ValueError(f"X has {X.shape[1]} columns but w_bar has length {w_bar.shape[0]}")
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    gaussian = rng.random(n) < spec.bernoulli_p
    eps_normal = rng.standard_normal(n)
    eps_laplace = _laplace_inverse_cdf(rng.random(n), spec.laplace_loc, spec.laplace_scale)
    return X @ w_bar + np.where(gaussian, eps_normal, eps_laplace)


_CSV_CHUNK_ROWS = 1024


def save_csv(data: Dataset, path, target_column: str = "target") -> None:
    """Write the dataset with a header row and 17-significant-digit values.

    Feature columns are named x0..x{d-1}; 17 digits make the save/load round
    trip exact for float64.  The output is what :mod:`csv`'s default writer
    gives, CRLF line ends included; the numeric body is formatted in blocks of
    rows, so only one block at a time exists as Python floats.
    """
    with open(path, "w", newline="") as fh:
        _write_csv(data, fh, target_column)


def _write_csv(data: Dataset, fh, target_column: str) -> None:
    """:func:`save_csv`'s output, written to a text file opened with ``newline=""``."""
    row_format = ",".join(["%.17g"] * (data.d + 1)) + "\r\n"
    csv.writer(fh).writerow([f"x{j}" for j in range(data.d)] + [target_column])
    for i in range(0, data.n, _CSV_CHUNK_ROWS):
        block = np.column_stack(
            (data.features[i : i + _CSV_CHUNK_ROWS], data.targets[i : i + _CSV_CHUNK_ROWS])
        )
        fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def load_csv(path, target_column: str = "target") -> Dataset:
    """Read a headered numeric CSV into a dataset.

    Raises FileNotFoundError for a missing file, :class:`MissingColumnError`
    if the target column is absent, :class:`EmptyDatasetError` for a file with
    no data rows, and :class:`NonNumericCellError` naming the 1-based data row
    of the first cell that fails to parse.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDatasetError(f"{path}: empty dataset (no header row)")
        header = [h.strip() for h in header]
        if target_column not in header:
            raise MissingColumnError(
                f"{path}: target column {target_column!r} not found in header {header}"
            )
        tidx = header.index(target_column)
        table = _plain_numeric_table(fh, len(header))
    if table is None:
        # The row parser names the first offending row, and reads what the
        # plain-number reader does not (quoted cells, for one).
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            table = _parse_rows(path, reader, len(header))
    return Dataset(np.delete(table, tidx, axis=1), table[:, tidx])


def _plain_numeric_table(lines, n_columns: int) -> np.ndarray | None:
    """The remaining lines as a float table when each holds exactly
    ``n_columns`` plain numbers; None when one does not (blank, quoted,
    short, ...) or there are none."""
    n_lines = 0

    def counted():
        nonlocal n_lines
        for line in lines:
            n_lines += 1
            yield line

    body = counted()
    try:
        # next() raises StopIteration on an empty body, before loadtxt can
        # warn about it.
        rows = itertools.chain([next(body)], body)
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)
    except Exception:  # any failure defers to the row parser and its errors
        return None
    # loadtxt skips blank lines, which the row parser rejects.
    return table if table.shape == (n_lines, n_columns) else None


def _parse_rows(path, rows, n_columns: int) -> np.ndarray:
    """Parse CSV rows one at a time into a float table, naming the first bad row."""
    parsed_rows: list[list[float]] = []
    for rownum, row in enumerate(rows, start=1):
        if len(row) != n_columns:
            raise DataFormatError(
                f"{path}: data row {rownum} has {len(row)} cells, expected {n_columns}"
            )
        try:
            parsed_rows.append([float(cell) for cell in row])
        except ValueError as exc:
            raise NonNumericCellError(
                f"{path}: non-numeric cell at data row {rownum}", row=rownum
            ) from exc
    if not parsed_rows:
        raise EmptyDatasetError(f"{path}: empty dataset (header only)")
    return np.asarray(parsed_rows, dtype=float)


def append_intercept(data: Dataset) -> Dataset:
    """Copy of the dataset with a trailing constant-1 feature column."""
    ones = np.ones((data.n, 1))
    return Dataset(np.hstack([data.features, ones]), data.targets)


@dataclass(frozen=True)
class QuantileReport:
    """Mean and selected quantiles of squared residuals, sorted by level."""

    mean: float
    quantiles: dict[float, float]
    p_levels: list[float]


def residual_quantile_report(w, data: Dataset, p_levels) -> QuantileReport:
    """Squared-residual summary of a linear model on a dataset.

    Levels are sorted ascending; each quantile follows the empirical
    ceil(n*p) order-statistic convention, so the column values are
    nondecreasing in the level.  A residual whose square overflows raises
    :class:`~tailopt.core.EvaluationError` naming the sample.
    """
    w = np.asarray(w, dtype=float)
    levels = sorted(float(p) for p in p_levels)
    for p in levels:
        _check_level(p)
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = (data.targets - data.features @ w) ** 2
    if not _all_finite(r2):
        bad = np.flatnonzero(~np.isfinite(r2))[0]
        raise EvaluationError(f"non-finite squared residual at sample {int(bad)}")
    return QuantileReport(
        mean=float(r2.mean()),
        quantiles={p: _order_statistic(r2, p) for p in levels},
        p_levels=levels,
    )
