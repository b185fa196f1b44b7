"""CSV tick ingestion and JSON run reports.

Input format: one long CSV with header ``asset_id,timestamp,log_price``,
timestamps in seconds from session start and strictly increasing per
asset; rows of different assets may interleave.  A plain file is parsed
by columns in one numeric pass, the asset ids taken from the bytes read to
check it; a row-by-row parser reads every other file and locates faults, so
validation failures report the offending line number.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import TickSeries
from .sampling import SamplingScheme

__all__ = ["TickFileError", "load_ticks", "write_ticks", "RunReport"]

_HEADER = ["asset_id", "timestamp", "log_price"]


class TickFileError(ValueError):
    """Malformed tick file; the message carries the offending line number."""


def load_ticks(path: str | Path, horizon: float | None = None) -> tuple[list[str], list[TickSeries]]:
    """Load a tick CSV into one :class:`TickSeries` per asset.

    Returns ``(asset_ids, series)`` in first-appearance order.  Timestamps
    must be strictly increasing within each asset; duplicates, NaNs and a
    missing header are rejected with line numbers.  The horizon defaults to
    the largest timestamp in the file; a horizon that leaves an asset's
    ticks outside ``[0, horizon]`` is rejected naming the asset.
    """
    path = Path(path)
    ids, times, prices = _parse_columns(path) or _parse_rows(path)
    T = horizon if horizon is not None else max(float(t[-1]) for t in times)
    series = []
    for asset, t, v in zip(ids, times, prices):
        try:
            series.append(TickSeries(SamplingScheme(t, T), v))
        except ValueError as exc:
            raise TickFileError(f"{path}: asset {asset!r}: {exc}") from None
    return ids, series


# The column parse reads printable ASCII without the quote character, tab
# and line ends.  Any other file goes to the row parser.
_PLAIN = bytes([9, 10, 13, *range(32, 127)]).replace(b'"', b"")


def _parse_columns(path: Path) -> tuple[list[str], list[np.ndarray], list[np.ndarray]] | None:
    """Parse the file column by column, or return ``None`` when the row
    parser must decide (a fault to locate, or syntax only it reads)."""
    # the asset ids come from the bytes of the plain-file check; those bytes
    # are released before the ids are grouped and before loadtxt parses the
    # two numeric columns, so the parse never holds them and the parsed
    # columns at once
    ids = _row_ids(path.read_bytes())
    if ids is None:
        return None
    names, key = _asset_index(ids)
    del ids
    # loadtxt reads a path in chunks, but walks an open file line by line
    try:
        num = np.loadtxt(path, dtype=float, usecols=(1, 2), ndmin=2, delimiter=",", skiprows=1, comments=None)
    except ValueError:
        return None
    if len(num) != key.size or not np.isfinite(num).all():
        return None
    # group rows by asset, assets in first-appearance order, rows in file order
    perm = np.argsort(key, kind="stable")
    cuts = np.cumsum(np.bincount(key))[:-1]
    del key  # before the columns are gathered
    t, v = num[perm, 0], num[perm, 1]
    # strictly increasing times within each asset
    rising = t[1:] > t[:-1]
    rising[cuts - 1] = True
    if not rising.all():
        return None
    return names, np.split(t, cuts), np.split(v, cuts)


def _asset_index(ids: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``(names, key)`` of the rows' ids: the stripped names in
    first-appearance order and each row's index in ``names``."""
    # the ids of a run of equal rows are stripped and looked up once, at its head
    heads = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    names, first, inv = np.unique(np.char.strip(ids[heads]), return_index=True, return_inverse=True)
    order = np.argsort(first)
    return [a.decode() for a in names[order]], np.repeat(np.argsort(order)[inv], np.diff(heads, append=ids.size))


def _row_ids(data: bytes) -> np.ndarray | None:
    """Each row's asset id as one fixed-width ``S<w>`` array, unstripped.
    ``None`` unless the file has the header, then at least one line,
    only ``_PLAIN`` bytes, no blank line, no lone ``\\r``, exactly two commas
    per line and no field over ``csv.field_size_limit()``, and unless the
    ids fit in the file's size at the width of the longest."""
    n = len(data)
    end = data.find(b"\n")
    # a blank line has no comma, so the comma rule below rejects it
    if (
        not 0 <= end < n - 1
        or [h.strip() for h in data[:end].split(b",")] != [h.encode() for h in _HEADER]
        # text-mode loadtxt ends a line at a lone \r, the byte scan does not
        or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return None
    step = (csv.field_size_limit() + 1) // 2
    spans = _id_spans(data, step)
    if spans is None:
        return None
    starts, w = spans
    rows = starts.size
    # one fixed-width id per row: only while those bytes fit in the file's size
    if rows * w > n:
        return None
    # each row's w bytes from its line start; a line that starts in the last
    # w bytes reads a zero-padded copy of them.  The gather takes as many rows
    # at a time as fill one scan block at 8 bytes each, so numpy's intp copy
    # of their int32 starts stays small (as does searchsorted's, given an int)
    tail = n - w
    k = int(np.searchsorted(starts, starts.dtype.type(tail), side="right"))
    window = np.lib.stride_tricks.sliding_window_view
    head = window(np.frombuffer(data, np.uint8), w)
    raw = np.empty((rows, w), np.uint8)
    b = max(step // 8, 1)
    for i in range(0, k, b):
        raw[i : min(i + b, k)] = head[starts[i : min(i + b, k)]]
    raw[k:] = window(np.frombuffer(data[tail:] + bytes(w), np.uint8), w)[starts[k:] - tail]
    # an id ends at its line's first comma: zero that comma and the bytes after it
    keep = raw != 44
    for j in range(1, w):
        keep[:, j] &= keep[:, j - 1]
    raw *= keep
    return raw.view(f"S{w}")[:, 0]


def _id_spans(data: bytes, step: int) -> tuple[np.ndarray, int] | None:
    """Each row's line start and the width of the widest first field, or
    ``None`` when :func:`_line_marks` rejects the file.  The first commas
    are freed before the ids are gathered."""
    marks = _line_marks(data, step)
    if marks is None:
        return None
    ends, firsts = marks
    # in place: each row's line start, then the width of its id
    starts = ends[:-1]
    starts += 1
    widths = firsts[1:]
    widths -= starts
    return starts, max(int(widths.max()), 1)


def _line_marks(data: bytes, step: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The line ends of ``data`` (the last one at ``len(data)`` when the file
    has no final newline) and the first comma of each line, or ``None`` when
    a byte is not in ``_PLAIN``, a line does not hold exactly two commas or a
    field is longer than ``csv.field_size_limit()``, which the row parser
    rejects."""
    limit = csv.field_size_limit()
    n = len(data)
    pos = np.int32 if n < 2**31 else np.int64
    buf = np.frombuffer(data, np.uint8)
    # the scans walk aligned blocks of `step` bytes, so their masks and byte
    # check copies stay small next to the file.  The first checks the bytes
    # and counts the line ends, which sizes the arrays the second fills
    blocks = range(0, n, step)
    lines = int(data[-1] != ord("\n"))
    for i in blocks:
        if data[i : i + step].translate(None, _PLAIN):
            return None
        lines += int(np.count_nonzero(buf[i : i + step] == 10))
    ends, firsts = np.empty(lines, pos), np.empty(lines, pos)
    # the commas and line ends in file order: line j's are marks 3j, 3j + 1
    # and 3j + 2.  With every mark 3j + 2 a line end, as many as the file
    # holds, every other mark is a comma.  A field over the limit covers a
    # whole block, so only a block without marks needs the exact search
    nm = 0  # marks before the block
    bare = False
    for i in blocks:
        block = buf[i : i + step]
        at = block == 10
        at |= block == 44
        m = np.flatnonzero(at)
        e, f = m[(2 - nm) % 3 :: 3], m[(-nm) % 3 :: 3]
        if nm + m.size > 3 * lines or not (block[e] == 10).all():
            return None
        ends[nm // 3 : nm // 3 + e.size] = e + i
        firsts[(nm + 2) // 3 : (nm + 2) // 3 + f.size] = f + i
        nm += m.size
        bare = bare or not m.size
    if nm != 3 * lines - (data[-1] != ord("\n")):
        return None
    if bare and re.search(rb"[^,\r\n]{%d}" % (limit + 1), data) is not None:
        return None
    ends[nm // 3 :] = n
    return ends, firsts


def _parse_rows(path: Path) -> tuple[list[str], list[np.ndarray], list[np.ndarray]]:
    """Parse the file row by row with ``csv.reader``, raising a
    :class:`TickFileError` with the line number of the first fault."""
    times: dict[str, list[float]] = {}
    prices: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise TickFileError(f"{path}: no records (empty file)") from None
        if [h.strip() for h in header] != _HEADER:
            raise TickFileError(f"{path}:1: expected header {','.join(_HEADER)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise TickFileError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            asset = row[0].strip()
            try:
                ts = float(row[1])
                px = float(row[2])
            except ValueError:
                raise TickFileError(f"{path}:{lineno}: non-numeric timestamp or log_price") from None
            if math.isnan(ts) or math.isnan(px) or math.isinf(ts) or math.isinf(px):
                raise TickFileError(f"{path}:{lineno}: NaN/inf value")
            seen = times.setdefault(asset, [])
            if seen and ts <= seen[-1]:
                kind = "duplicate" if ts == seen[-1] else "non-monotone"
                raise TickFileError(f"{path}:{lineno}: {kind} timestamp {ts!r} for asset {asset!r}")
            seen.append(ts)
            prices.setdefault(asset, []).append(px)
    if not times:
        raise TickFileError(f"{path}: no records")
    return list(times), [np.asarray(t) for t in times.values()], [np.asarray(v) for v in prices.values()]


def _csv_rows(fh, path: Path):
    """The rows of ``csv.reader(fh)``; a fault it finds (such as a field
    over ``csv.field_size_limit()``) is raised as a line-numbered
    :class:`TickFileError`."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise TickFileError(f"{path}:{reader.line_num}: {exc}") from None


def write_ticks(path: str | Path, ids: Sequence[str], series: Sequence[TickSeries]) -> None:
    """Write tick series to the long CSV format (inverse of :func:`load_ticks`)."""
    if len(ids) != len(series):
        raise ValueError("one id per series required")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for aid, s in zip(ids, series):
            for t, v in zip(s.scheme.times, s.values):
                writer.writerow([aid, repr(float(t)), repr(float(v))])


@dataclass
class RunReport:
    """Schema-stable JSON report of a CLI run.

    Every key is always present; sections not produced by the command stay
    at their empty defaults.  Standard errors are reported as
    ``sqrt(avar) / r_n`` alongside each estimate, ``null`` where the
    variance estimate is negative.
    """

    command: str = ""
    config: dict = field(default_factory=dict)
    asset_ids: list = field(default_factory=list)
    estimates: dict = field(default_factory=lambda: {"matrix": None, "svec": None, "method": None, "per_pair": {}})
    acov: dict = field(default_factory=lambda: {"entries": None, "rate": None, "n_ref": None})
    standard_errors: list | None = None
    test: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=_jsonable, sort_keys=True)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
