"""Synthetic regression data, CSV ingestion, and residual reports.

All randomness flows through one 64-bit seed, split per purpose with
``numpy.random.SeedSequence`` (see :func:`seed_streams`), so a run is fully
reproducible from its seed.  Cross-platform bitwise equality is not promised;
statistical equivalence is.
"""

from __future__ import annotations

import csv
import functools
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
    """A data cell failed to parse as a finite number."""

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


_CSV_CHUNK_ROWS = 512


def save_csv(data: Dataset, path) -> None:
    """Write the dataset with a header row and 17-significant-digit values.

    The header is x0..x{d-1} and then ``target``, the name :func:`load_csv`
    reads by default; 17 digits make the save/load round trip exact for
    float64.  The output is what :mod:`csv`'s default writer gives, CRLF line
    ends included, with every cell the bytes of ``%.17g``.  The body is
    formatted in blocks of 512 rows.  A block whose cells are all zero or lie
    in 1e-11 <= |x| < 2**52 is formatted by a numpy kernel that computes the
    17 digits exactly in integer arithmetic; any other block, one with a
    subnormal, a tiny or huge value or a non-finite cell, goes through
    Python's ``%`` operator, so one such cell costs only its own block.
    """
    row_format = ",".join(["%.17g"] * (data.d + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([f"x{j}" for j in range(data.d)] + ["target"])
        for i in range(0, data.n, _CSV_CHUNK_ROWS):
            block = np.column_stack(
                (data.features[i : i + _CSV_CHUNK_ROWS], data.targets[i : i + _CSV_CHUNK_ROWS])
            )
            text = _format_block(block)
            if text is None:
                text = (row_format * block.shape[0]) % tuple(block.ravel().tolist())
            fh.write(text)


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """5**k for k = 0..27, 10**k for k = 0..17, and :func:`_format_block`'s
    4-byte words, built on first use so that importing the package costs
    nothing.

    Each word is four ASCII bytes viewed as one uint32, in runs of 10,000
    indexed by a 4-digit chunk c: c zero-padded (``_ZEROS``); c with its
    leading zeros as NUL bytes (``_LEAD``); c with its trailing zeros as NULs
    (``_TRAIL``), 0 giving four NULs in both; then "e-XX" for XX = 0..11
    (``_EXP``).
    """
    c = np.arange(10000)
    place = np.arange(4)
    digits = (48 + (c[:, None] // 10 ** (3 - place)) % 10).astype(np.uint8)
    n_digits = np.searchsorted([1, 10, 100, 1000], c, side="right")
    n_trailing = (c[:, None] % 10 ** (place + 1) == 0).sum(axis=1)
    lead = digits * (place >= 4 - n_digits[:, None])
    trail = digits * (place < 4 - n_trailing[:, None])
    xx = np.arange(12)
    exp = np.stack([np.full(12, 101), np.full(12, 45), 48 + xx // 10, 48 + xx % 10], axis=1)
    words = np.concatenate([digits, lead, trail, exp.astype(np.uint8)])
    five = np.uint64(5) ** np.arange(28, dtype=np.uint64)
    ten = np.uint64(10) ** np.arange(18, dtype=np.uint64)
    return five, ten, words.view(np.uint32).ravel()


_ZEROS, _LEAD, _TRAIL, _EXP = (np.uint32(10000 * r) for r in range(4))
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_E16, _E17 = _U64(10**16), _U64(10**17)


def _seventeen_digits(m2, ebits, k):
    """floor and round-half-even of m2 * 5**k / 2**s for the cells
    x = m2 * 2**(ebits - 1076), with s = 1076 - ebits - k, so that both equal
    |x| * 10**k up to the dropped fraction.

    The product, below 2**117, is held as two uint64 halves built from
    32-bit parts; every operand is uint64, so no step rounds through float64.
    """
    p = _format_tables()[0][k]
    s = _U64(1076) - ebits - k.astype(np.uint64)
    mh, ml = m2 >> _U64(32), m2 & _LOW32
    ph, pl = p >> _U64(32), p & _LOW32
    lo = ml * pl
    mid = mh * pl + ml * ph
    carry = (lo >> _U64(32)) + (mid & _LOW32)
    low = (lo & _LOW32) | (carry << _U64(32))
    high = mh * ph + (mid >> _U64(32)) + (carry >> _U64(32))
    # s lies in [1, 63]: the two shifts of `high` keep each below 64 bits.
    floor = ((high << (_U64(63) - s)) << _U64(1)) | (low >> s)
    unit = _U64(1) << s
    rest, half = low & (unit - _U64(1)), unit >> _U64(1)
    return floor, floor + (rest + (floor & _U64(1)) > half)


def _format_block(block: np.ndarray) -> str | None:
    """The rows of ``block`` as ``%.17g`` cells joined by "," and ended by
    "\\r\\n", or None when a nonzero cell lies outside 1e-11 <= |x| < 2**52.

    Each cell |x| = m * 2**q has 17 significant digits N = round(|x| * 10**k)
    with k = 16 - E, E its decimal exponent, computed exactly by
    :func:`_seventeen_digits`.  E starts as floor(log10|x|), which can be off
    by one near a power of ten; it is corrected where the truncated N is
    below 10**16 or the rounded N reaches 10**17, and a block where E does
    not settle in [-11, 15] is left to the caller.  So is a cell whose
    digits round up to the next power of ten, but no double in the range
    does: the largest double below each power of ten lies more than half a
    17th digit under it.  The text follows C's %g: positional notation for
    E >= -4, "d.ddde-XX" below it, trailing zeros and a bare point dropped.
    A zero is "0", or "-0" when its sign bit is set.
    """
    cells = block.ravel()
    a = np.abs(cells)
    zero = a == 0.0
    if not (((a >= 1e-11) & (a < 2.0**52)) | zero).all():
        return None
    # A zero cell is worked as 1.0, whose E = 0 is exact, and given N = 0.
    a[zero] = 1.0
    bits = a.view(np.uint64)
    ebits = bits >> _U64(52)
    m2 = ((bits & _U64(2**52 - 1)) | _U64(2**52)) << _U64(1)
    E = np.clip(np.floor(np.log10(a)), -11, 15).astype(np.int64)
    floor, N = _seventeen_digits(m2, ebits, 16 - E)
    off = np.flatnonzero((floor < _E16) | (N >= _E17))
    if off.size:
        E[off] += np.where(floor[off] < _E16, -1, 1)
        if not ((E[off] >= -11) & (E[off] <= 15)).all():
            return None
        floor, N[off] = _seventeen_digits(m2[off], ebits[off], 16 - E[off])
        if not ((floor >= _E16) & (N[off] < _E17)).all():
            return None
    N[zero] = 0
    return _cell_text(cells, E, N, block.shape)


def _cell_text(cells, E, N, shape) -> str:
    """The text of :func:`_format_block` from each cell's sign, exponent E
    and 17 digits N.

    Each cell becomes eleven 4-byte words, with NUL bytes where it has no
    character: the separator before it ("," or, at a row's first cell but
    the block's, "\r\n") and the sign; the integer part N // 10**t in 16
    digits, leading zeros dropped but for a zero part's "0"; the point; the
    20-digit fraction, trailing zeros dropped; in exponential form "e-XX" in
    place of the fraction's last four digits, which it never uses.  t = 16 - E
    places the point (t = 16 in exponential form, after the first digit).
    The words' bytes with the NULs deleted, and a final "\r\n", are the text.
    """
    _, ten, words = _format_tables()
    exponential = E < -4
    t = np.where(exponential, 16, 16 - E)
    unit = ten[np.minimum(t, 17)]
    whole = N // unit
    fraction = N - whole * unit
    # The fraction's 20 digits: fraction * 10**(20 - t), as a 16-digit head
    # and a 4-digit tail, which only t > 16 (E in [-4, -1]) fills.
    over = np.maximum(t - 16, 0)
    head = fraction // ten[over]
    tail = ((fraction - head * ten[over]) * ten[4 - over]).astype(np.uint32)
    head *= ten[np.maximum(16 - t, 0)]
    out = np.empty((cells.size, 11), dtype=np.uint32)
    zeros_before = np.ones(cells.size, dtype=bool)
    for col, chunk in zip(range(1, 5), _chunks(whole)):
        out[:, col] = words[chunk + np.where(zeros_before, _LEAD, _ZEROS)]
        zeros_before &= chunk == 0
    # Where a byte falls within its word does not matter once NULs go.
    out[:, 4] |= zeros_before * np.uint32(48)
    out[:, 10] = words[np.where(exponential, _EXP - E, _TRAIL + tail)]
    zeros_after = tail == 0
    for col, chunk in zip(range(9, 5, -1), _chunks(head)[::-1]):
        out[:, col] = words[chunk + np.where(zeros_after, _TRAIL, _ZEROS)]
        zeros_after &= chunk == 0
    out[:, 5] = ~zeros_after * np.uint32(46)
    sep = np.zeros((*shape, 4), dtype=np.uint8)
    sep[:, 1:, 0] = 44
    sep[1:, 0, :2] = (13, 10)
    sep = sep.view(np.uint32).ravel()
    minus = np.array([0, 0, 0, 45], dtype=np.uint8).view(np.uint32)
    out[:, 0] = np.where(np.signbit(cells), sep | minus, sep)
    return (out.tobytes().translate(None, b"\0") + b"\r\n").decode("ascii")


def _chunks(x):
    """The four 4-digit chunks of x < 10**16, most significant first."""
    high = (x // _U64(10**8)).astype(np.uint32)
    low = (x - high.astype(np.uint64) * _U64(10**8)).astype(np.uint32)
    hh, lh = high // np.uint32(10000), low // np.uint32(10000)
    return hh, high - hh * np.uint32(10000), lh, low - lh * np.uint32(10000)


def load_csv(path, target_column: str = "target") -> Dataset:
    """Read a headered numeric CSV into a dataset.

    Header names and ``target_column`` are matched with surrounding spaces
    stripped.  Raises FileNotFoundError for a missing file,
    :class:`MissingColumnError` if the target column is absent,
    :class:`DataFormatError` if it names more than one column,
    :class:`EmptyDatasetError` for a file with no data rows, and
    :class:`NonNumericCellError` naming the 1-based data row of the first
    cell that fails to parse or parses to a NaN or an infinity.
    """
    target = target_column.strip()
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise EmptyDatasetError(f"{path}: empty dataset (no header row)")
        header = [h.strip() for h in header]
        found = header.count(target)
        if found != 1:
            error = MissingColumnError if found == 0 else DataFormatError
            raise error(f"{path}: target {target!r} matches {found} columns of header {header}")
        tidx = header.index(target)
        table = _plain_numeric_table(fh, len(header))
        if table is None:
            # The row parser names the first offending row, and reads what the
            # plain-number reader does not (quoted cells, for one).
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            table = _parse_rows(path, reader, len(header))
    if not _all_finite(table):
        row = int(np.flatnonzero(~np.isfinite(table).all(axis=1))[0]) + 1
        raise NonNumericCellError(f"{path}: non-finite cell at data row {row}", row=row)
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
