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
    try:
        with open(path) as fh:
            num = np.loadtxt(fh, dtype=float, usecols=(1, 2), ndmin=2, delimiter=",", skiprows=1, comments=None)
    except ValueError:
        return None
    if len(num) != key.size or not np.isfinite(num).all():
        return None
    # group rows by asset, assets in first-appearance order, rows in file order
    perm = np.argsort(key, kind="stable")
    cuts = np.cumsum(np.bincount(key))[:-1]
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
    spans = _id_spans(data)
    if spans is None:
        return None
    starts, widths = spans
    rows, w = starts.size, max(int(widths.max()), 1)
    # one fixed-width id per row: only while those bytes fit in the file's size
    if rows * w > n:
        return None
    # each row's w bytes from its line start, those past the id zeroed; a
    # line that starts in the last w bytes reads a zero-padded copy of them
    tail = n - w
    k = np.searchsorted(starts, tail, side="right")
    window = np.lib.stride_tricks.sliding_window_view
    raw = np.empty((rows, w), np.uint8)
    raw[:k] = window(np.frombuffer(data, np.uint8), w)[starts[:k]]
    raw[k:] = window(np.frombuffer(data[tail:] + bytes(w), np.uint8), w)[starts[k:] - tail]
    raw[np.arange(w) >= widths[:, None]] = 0
    return raw.view(f"S{w}")[:, 0]


def _id_spans(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Each row's line start and the width of its first field, or ``None``
    when :func:`_line_marks` rejects the file or a line does not hold
    exactly two commas.  The positions are freed before the ids are
    gathered."""
    marks = _line_marks(data)
    if marks is None:
        return None
    ends, commas = marks
    # line i holds commas 2i and 2i+1 and no other
    if commas.size != 2 * ends.size or not ((commas[1::2] < ends).all() and (commas[2::2] > ends[:-1]).all()):
        return None
    starts = ends[:-1] + 1
    return starts, commas[2::2] - starts


def _line_marks(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The line ends of ``data`` (the last one at ``len(data)`` when the file
    has no final newline) and its comma positions, or ``None`` when a byte
    is not in ``_PLAIN`` or a field is longer than ``csv.field_size_limit()``,
    which the row parser rejects."""
    limit = csv.field_size_limit()
    n = len(data)
    pos = np.int32 if n < 2**31 else np.int64
    buf = np.frombuffer(data, np.uint8)
    ends, commas = [], []
    # the scan walks aligned blocks of `step` bytes, so its masks and byte
    # check copies stay small next to the file; a field over the limit covers
    # a whole block, so only a block without a comma and a line end needs
    # the exact search
    step = (limit + 1) // 2
    bare = False
    for i in range(0, n, step):
        if data[i : i + step].translate(None, _PLAIN):
            return None
        block = buf[i : i + step]
        ends.append((np.flatnonzero(block == 10) + i).astype(pos))
        commas.append((np.flatnonzero(block == 44) + i).astype(pos))
        bare = bare or not (ends[-1].size or commas[-1].size)
    if bare and re.search(rb"[^,\r\n]{%d}" % (limit + 1), data) is not None:
        return None
    if data[-1] != ord("\n"):
        ends.append(np.array([n], pos))
    ends = np.concatenate(ends)  # frees the blocks before the commas are joined
    return ends, np.concatenate(commas)


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
