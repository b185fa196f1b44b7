"""CSV tick ingestion and JSON run reports.

Input format: one long CSV with header ``asset_id,timestamp,log_price``,
sorted by (asset_id, timestamp), timestamps in seconds from session start.
Validation failures report the offending line number.
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
    the largest timestamp in the file.
    """
    path = Path(path)
    ids: list[str] = []
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
        count = 0
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
            if asset not in times:
                ids.append(asset)
                times[asset] = []
                prices[asset] = []
            elif times[asset] and ts <= times[asset][-1]:
                kind = "duplicate" if ts == times[asset][-1] else "non-monotone"
                raise TickFileError(f"{path}:{lineno}: {kind} timestamp {ts!r} for asset {asset!r}")
            times[asset].append(ts)
            prices[asset].append(px)
            count += 1
    if count == 0:
        raise TickFileError(f"{path}: no records")
    T = horizon if horizon is not None else max(t[-1] for t in times.values())
    series = [
        TickSeries(SamplingScheme(np.asarray(times[a]), T), np.asarray(prices[a]))
        for a in ids
    ]
    return ids, series


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
