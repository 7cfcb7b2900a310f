"""Tick-data container and CSV ingestion.

A tick file is a UTF-8 CSV with header ``time,price`` where ``time`` is
seconds since session open (decimal, strictly increasing) and ``price`` is a
positive decimal. LF and CRLF line endings, a leading byte-order mark,
``"``-quoted numeric fields and columns beyond the first two are accepted.
Lines starting with ``#`` before the header carry ``key=value`` metadata.

Data rows are numbered from 1 after the header; blank lines are skipped but
keep their number, so an error names the line a reader would count to. The
metadata and the header are read line by line, and the open file is then
handed to one :func:`numpy.loadtxt` call, which parses its lines as they are
read; the columns are checked with array masks. The file's text is never
held whole on this path, so memory follows the parsed arrays. Only when the
parse raises or a check fails is the file read again as a whole: to name the
first offending row, or to parse a file with whitespace-only lines, which
loadtxt alone rejects. Writers format and write rows a fixed-size chunk at
a time.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidParameter, MalformedInput


@dataclass(frozen=True)
class TickSeries:
    """One asset's (time, log-price) sequence.

    Parameters
    ----------
    times : array
        Transaction times in seconds since session open, strictly increasing.
    log_prices : array
        Natural log of the traded price, same length as ``times``.
    """

    times: np.ndarray
    log_prices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.log_prices, dtype=float)
        if t.ndim != 1 or p.ndim != 1 or t.shape != p.shape:
            raise MalformedInput("times and log_prices must be 1-d arrays of equal length")
        if t.size < 2:
            raise InsufficientData("a tick series needs at least 2 observations")
        if not (np.isfinite(t).all() and np.isfinite(p).all()):
            raise MalformedInput("tick series contains non-finite values")
        if not (t[1:] > t[:-1]).all():
            raise MalformedInput("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "log_prices", p)

    def __len__(self) -> int:
        return self.times.size

    @property
    def span(self) -> float:
        """Observed time span in seconds."""
        return float(self.times[-1] - self.times[0])


def _read_columns(path, names, error, checks=None):
    """Parse a CSV whose header starts with ``names`` into float columns.

    Returns ``(meta, columns)``: the ``# key=value`` lines before the header
    as a dict, and a ``(len(names), n_rows)`` view of the leading columns.
    Every failure raises ``error`` naming ``path`` and, for a data fault, the
    first offending 1-based data row. ``checks(columns)`` may return further
    ``(row_mask, message)`` pairs; a message is formatted with ``row`` and
    ``fields`` (that row's values). Earlier checks win ties, after the
    built-in non-finite check.

    The data lines stream from the open file into one :func:`numpy.loadtxt`
    call. Only when that parse raises or a check fails is the file read again
    as a whole by :func:`_reread_columns`, which numbers the offending row.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            meta = _read_head(fh, path, names, error)
            columns = _loadtxt(fh, len(names)).T
    except ValueError:  # undecodable bytes, or a line loadtxt cannot parse
        return _reread_columns(path, names, error, checks)
    if _first_fault(columns, checks):
        return _reread_columns(path, names, error, checks)
    return meta, columns


def _read_head(fh, path, names, error):
    """Read the ``# key=value`` lines into a dict, then check the header line."""
    meta: dict[str, str] = {}
    line = fh.readline()
    while line.startswith("#"):
        key, _, value = line[1:].strip().partition("=")
        meta[key.strip()] = value.strip()
        line = fh.readline()
    line = line.removesuffix("\n")
    header = [c.strip().strip('"').strip().lower() for c in line.split(",")]
    if header[: len(names)] != list(names):
        raise error(f"{path}: expected a header starting {','.join(names)!r}, got {line!r}")
    return meta


def _reread_columns(path, names, error, checks):
    """The whole-text parse behind :func:`_read_columns`, run after a fault.

    Blank lines keep their row number and whitespace-only lines are dropped
    before parsing, so a file with such lines is parsed here, and every
    error names the row a reader would count to.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None
    fh = io.StringIO(text)
    meta = _read_head(fh, path, names, error)
    lines = ["" if line.isspace() else line for line in fh.read().split("\n")]  # loadtxt skips only empty lines
    k = len(names)
    fault = None
    try:
        table = _loadtxt(lines, k)
    except ValueError as exc:
        # a value fault can still precede the first unparsable row
        row, fault = _first_unparsable(lines, k, exc)
        lines = lines[: row - 1]
        table = _loadtxt(lines, k)
    columns = table.T
    first = _first_fault(columns, checks)
    if first:
        i, message = first
        row = int(np.flatnonzero([bool(line) for line in lines])[i]) + 1
        fault = message.format(row=row, fields=columns[:, i].tolist())
    if fault:
        raise error(f"{path}: {fault}")
    return meta, columns


def _first_fault(columns, checks):
    """``(index, message)`` of the first row a check rejects, or ``None``."""
    masks = [(~np.isfinite(columns).all(axis=0), "row {row}: non-finite value")]
    masks += checks(columns) if checks else []
    firsts = [(int(np.argmax(m)), j) for j, (m, _) in enumerate(masks) if m.any()]
    if not firsts:
        return None
    i, j = min(firsts)
    return i, masks[j][1]


def _loadtxt(lines, k):
    """Parse an iterable of lines; a table of no rows when every line is empty."""
    lines = iter(lines)
    for first in lines:  # numpy warns on input with no rows
        if first not in ("", "\n"):
            break
    else:
        return np.empty((0, k))
    return np.loadtxt(itertools.chain([first], lines), delimiter=",", usecols=range(k), ndmin=2,
                      quotechar='"', comments=None)


def _first_unparsable(lines, k, exc):
    """``(row, message)`` for the first row :func:`numpy.loadtxt` cannot parse.

    numpy's own row numbers are inconsistent between fault kinds, so the
    lines are scanned again; this runs only after a parse failure. A failure
    the scan cannot place is reported with numpy's message at row 1.
    """
    for row, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = [f.strip().strip('"') for f in line.split(",")]
        if len(fields) < k:
            return row, f"row {row}: expected {k} fields"
        try:
            for f in fields[:k]:
                float(f.replace("_", "?"))  # numpy rejects digit separators
        except ValueError:
            return row, f"row {row}: non-numeric field"
    return 1, str(exc)


def _tick_checks(columns):
    times, prices = columns
    return [
        (prices <= 0.0, "row {row}: non-positive price {fields[1]}"),
        (np.r_[False, times[1:] == times[:-1]], "duplicate time at row {row}"),
        (np.r_[False, times[1:] < times[:-1]], "non-monotone time at row {row}"),
    ]


def load_ticks(path) -> TickSeries:
    """Read a ``time,price`` CSV into a :class:`TickSeries`.

    Prices are stored as natural logs. Rows must already be in strictly
    increasing time order; a duplicate or backward timestamp, a non-finite
    value, a non-positive price, a short row or a non-numeric field raises
    :class:`MalformedInput` naming the first offending data row (1-based).
    """
    _, (times, prices) = _read_columns(path, ("time", "price"), MalformedInput, _tick_checks)
    if times.size < 2:
        raise InsufficientData(f"{path}: need at least 2 ticks, found {times.size}")
    return TickSeries(times, np.log(prices))


_CHUNK_ROWS = 4096  # rows formatted per write, so the text held is one chunk's, not the file's


def _write_rows(fh, head, row_format, columns):
    """Write ``head``, then each row of the equal-length ``columns`` through ``row_format``."""
    fh.write(head)
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = zip(*(c[lo:lo + _CHUNK_ROWS].tolist() for c in columns))
        fh.write("".join(map(row_format.__mod__, rows)))


def save_ticks(series: TickSeries, path) -> None:
    """Write a series back to ``time,price`` CSV with 17 significant digits.

    Round-trips bit-for-bit through :func:`load_ticks` up to the exp/log pair
    applied to the price column. A log price whose price overflows to inf or
    underflows to 0, which :func:`load_ticks` would reject, raises
    :class:`InvalidParameter` naming the first such tick before the file is
    opened.
    """
    with np.errstate(over="ignore", under="ignore"):
        prices = np.exp(series.log_prices)
    if not (prices.min() > 0.0 and prices.max() < np.inf):  # reductions: no mask is held
        i = int(np.argmax((prices == 0.0) | (prices == np.inf)))
        t, log_price = series.times[i].item(), series.log_prices[i].item()
        raise InvalidParameter(f"tick {i + 1} at time {t!r}: price exp({log_price!r}) "
                               "is not a finite positive float")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, "time,price\n", "%.17g,%.17g\n", (series.times, prices))

