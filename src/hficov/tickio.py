"""CSV tick ingestion and JSON run reports.

Input format: one long CSV with header ``asset_id,timestamp,log_price``,
timestamps in seconds from session start and strictly increasing per
asset; rows of different assets may interleave.  Files are parsed by
columns; a row-by-row parser locates faults, so validation failures report
the offending line number.
"""

from __future__ import annotations

import csv
import json
import math
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
# and line ends, and no blank lines (loadtxt warns about them).  Any other
# file goes to the row parser.
_PLAIN = bytes([9, 10, 13, *range(32, 127)]).replace(b'"', b"")
_BLANK_LINES = (b"\n\n", b"\n\r", b"\r\r")


def _parse_columns(path: Path) -> tuple[list[str], list[np.ndarray], list[np.ndarray]] | None:
    """Parse the file column by column, or return ``None`` when the row
    parser must decide (a fault to locate, or syntax only it reads)."""
    # the raw bytes are released before loadtxt reads the file again, so
    # the parse never holds them and the parsed columns at once
    commas = _plain_commas(path.read_bytes())
    if commas is None:
        return None
    kw = dict(delimiter=",", skiprows=1, comments=None)
    try:
        with open(path) as fh:
            assets = np.loadtxt(fh, dtype=str, usecols=0, ndmin=1, **kw)
            fh.seek(0)
            num = np.loadtxt(fh, dtype=float, usecols=(1, 2), ndmin=2, **kw)
    except ValueError:
        return None
    # every row read has at least three fields; with the header's two
    # commas, this count leaves exactly three per row
    if commas != 2 * (assets.size + 1) or not np.isfinite(num).all():
        return None
    # group rows by asset, assets in first-appearance order, rows in file order
    names, first, inv = np.unique(np.char.strip(assets), return_index=True, return_inverse=True)
    order = np.argsort(first)
    key = np.argsort(order)[inv]
    perm = np.argsort(key, kind="stable")
    cuts = np.cumsum(np.bincount(key))[:-1]
    t, v = num[perm, 0], num[perm, 1]
    step = np.diff(t)
    step[cuts - 1] = np.inf
    if not (step > 0).all():
        return None
    return [str(a) for a in names[order]], np.split(t, cuts), np.split(v, cuts)


def _plain_commas(data: bytes) -> int | None:
    """The comma count of a file the column parse reads: the header, then at
    least one line, only ``_PLAIN`` bytes and no blank line; else ``None``."""
    end = data.find(b"\n")
    if (
        not 0 <= end < len(data) - 1
        or [h.strip() for h in data[:end].split(b",")] != [h.encode() for h in _HEADER]
        or data.translate(None, _PLAIN)
        or any(blank in data for blank in _BLANK_LINES)
    ):
        return None
    return data.count(b",")


def _parse_rows(path: Path) -> tuple[list[str], list[np.ndarray], list[np.ndarray]]:
    """Parse the file row by row with ``csv.reader``, raising a
    :class:`TickFileError` with the line number of the first fault."""
    times: dict[str, list[float]] = {}
    prices: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
