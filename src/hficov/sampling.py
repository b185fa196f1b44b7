"""Observation-time machinery: sampling schemes, tick interpolation, refresh times.

Everything downstream (synchronized estimators, quadratic covariations of
observation times, sampling autocorrelation functionals) is built on two
primitives defined here:

* previous-/next-tick interpolation ``t^-(s) = max{t_i <= s}``,
  ``t^+(s) = min{t_i >= s}``;
* the refresh-time recursion, which collapses two (or, applied twice, four)
  irregular observation schemes onto a common synchronous skeleton.

All containers are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "InterpolationError",
    "SamplingScheme",
    "SyncGrid",
    "tick_interpolation",
    "pairwise_refresh",
    "global_refresh",
]


class InterpolationError(ValueError):
    """Requested previous/next tick does not exist in the scheme.

    ``side`` is ``"previous"`` when ``s`` lies before the first observation
    and ``"next"`` when it lies after the last one, so callers can tell the
    two failure modes apart.
    """

    def __init__(self, side: str, s: float) -> None:
        self.side = side
        self.s = s
        super().__init__(f"no {side} tick at s={s!r}")


@dataclass(frozen=True)
class SamplingScheme:
    """Strictly increasing observation times on a fixed horizon ``[0, T]``.

    Parameters
    ----------
    times : array_like
        Observation times, strictly increasing, all within ``[0, horizon]``.
    horizon : float
        Length ``T`` of the observation window, finite and positive.
    """

    times: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("scheme needs a nonempty 1-d array of times")
        if not np.all(np.isfinite(t)):
            raise ValueError("scheme times must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("scheme times must be strictly increasing")
        if not np.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon!r}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if t[0] < 0 or t[-1] > self.horizon:
            raise ValueError("scheme times must lie in [0, horizon]")

    def __len__(self) -> int:
        return int(self.times.size)


def tick_interpolation(scheme: SamplingScheme, s: float) -> tuple[float, float]:
    """Previous- and next-tick interpolation ``(t^-(s), t^+(s))``.

    Raises :class:`InterpolationError` with ``side="previous"`` when ``s``
    lies before the first observation and ``side="next"`` when it lies after
    the last one.
    """
    if not 0.0 <= s <= scheme.horizon:
        raise ValueError(f"s={s!r} outside [0, {scheme.horizon}]")
    nxt, prv = _index_maps([scheme.times], np.array([s], dtype=float))
    return float(scheme.times[prv[0, 0]]), float(scheme.times[nxt[0, 0]])


@dataclass(frozen=True)
class SyncGrid:
    """Refresh times of two or four schemes plus interpolation index maps.

    ``next_idx[l, i]`` / ``prev_idx[l, i]`` give, for refresh time ``i`` and
    source scheme ``l``, the index of the next/previous tick of that scheme,
    so ``t_l^-(tau_i) <= tau_i <= t_l^+(tau_i)`` by construction.

    For a grid built by :func:`global_refresh`, ``pair_grids`` holds the two
    pairwise grids.
    """

    refresh_times: np.ndarray
    source_schemes: tuple[SamplingScheme, ...]
    next_idx: np.ndarray
    prev_idx: np.ndarray
    pair_grids: tuple["SyncGrid", ...] = field(default=())

    def __post_init__(self) -> None:
        r = np.asarray(self.refresh_times, dtype=float)
        object.__setattr__(self, "refresh_times", r)
        if r.size == 0:
            raise ValueError("empty refresh grid")
        if r.size > 1 and not np.all(np.diff(r) > 0):
            raise ValueError("refresh times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.refresh_times.size)

    @property
    def horizon(self) -> float:
        return self.source_schemes[0].horizon

    @property
    def next_times(self) -> np.ndarray:
        """``next_times[l, i]``: next tick ``t_l^+(tau_i)`` of source scheme ``l``."""
        return np.array([s.times[i] for s, i in zip(self.source_schemes, self.next_idx)])

    @property
    def prev_times(self) -> np.ndarray:
        """``prev_times[l, i]``: previous tick ``t_l^-(tau_i)`` of source scheme ``l``."""
        return np.array([s.times[i] for s, i in zip(self.source_schemes, self.prev_idx)])


def _refresh_merge(
    a: np.ndarray, b: np.ndarray, cuts_a: np.ndarray | None = None, cuts_b: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Refresh times of two nonempty increasing time arrays, as a merge,
    segment by segment.

    ``cuts_a`` and ``cuts_b`` (length K + 1, nondecreasing) split the arrays
    into K segments ``a[cuts_a[j]:cuts_a[j+1]]`` and ``b[cuts_b[j]:cuts_b[j+1]]``;
    by default each array is one segment.  Segment j of both arrays must lie
    in one time window, below every stamp of segment j + 1 (bins of one
    partition of time).  Returns the refresh times of all segments,
    concatenated, and the K + 1 bounds of each segment's share.

    Each segment is merged on its own: tau_0 is the larger first tick;
    tau_i is the larger of the two first ticks strictly after tau_{i-1}.
    Over the union of the stamps after tau_0, each labelled a-only, b-only
    or both, a refresh fires at every "both" stamp, and at a single-label
    stamp whose label differs from the previous stamp's when the previous
    stamp did not fire (tau_0 counts as fired).  Inside a run of consecutive
    label changes the fire flag therefore alternates, starting with "no" at
    the run's first stamp; runs end at segment bounds.  Fires after
    ``min(a[-1], b[-1])`` of the segment are dropped: from there on one
    array has no tick at or after the candidate, so next-tick interpolation
    would be undefined.  A segment with no tick in one array, or whose
    tau_0 lies after that cut, has no refresh times.
    """
    if cuts_a is None or cuts_b is None:
        cuts_a, cuts_b = np.array([0, a.size]), np.array([0, b.size])
    lo_a, hi_a, lo_b, hi_b = cuts_a[:-1], cuts_a[1:], cuts_b[:-1], cuts_b[1:]
    # first and last ticks per segment; an empty segment reads a neighbour's and is dead
    tau0 = np.maximum(a[np.minimum(lo_a, a.size - 1)], b[np.minimum(lo_b, b.size - 1)])
    last = np.minimum(a[hi_a - 1], b[hi_b - 1])
    live = (hi_a > lo_a) & (hi_b > lo_b) & (tau0 <= last)
    tau0[~live] = np.inf  # a dead segment keeps no stamp
    seg_a = np.repeat(np.arange(live.size), hi_a - lo_a)
    seg_b = np.repeat(np.arange(live.size), hi_b - lo_b)
    a, b = a[lo_a[0] : hi_a[-1]], b[lo_b[0] : hi_b[-1]]
    keep_a, keep_b = a > tau0[seg_a], b > tau0[seg_b]
    stamps = np.concatenate([a[keep_a], b[keep_b]])
    order = np.argsort(stamps, kind="stable")  # linear: two sorted runs
    stamps = stamps[order]
    seg = np.concatenate([seg_a[keep_a], seg_b[keep_b]])[order]
    label = np.where(order < np.count_nonzero(keep_a), 1, 2)  # 1 = a, 2 = b, 3 = both
    first = np.ones(stamps.size, dtype=bool)
    first[1:] = stamps[1:] != stamps[:-1]  # a stamp occurs at most twice
    if stamps.size:
        label = np.bitwise_or.reduceat(label, np.flatnonzero(first))
    stamps, seg = stamps[first], seg[first]

    # a label change: a-only next to b-only, in one segment
    change = np.zeros(stamps.size, dtype=bool)
    change[1:] = (label[1:] + label[:-1] == 3) & (seg[1:] == seg[:-1])
    pos = np.arange(stamps.size)
    run_start = np.maximum.accumulate(np.where(change, 0, pos))
    fire = ((label == 3) | (change & ((pos - run_start) % 2 == 1))) & (stamps <= last[seg])
    # tau_0 first in each segment: a stable sort on the segment keeps it there
    seg = np.concatenate([np.flatnonzero(live), seg[fire]])
    order = np.argsort(seg, kind="stable")
    refresh = np.concatenate([tau0[live], stamps[fire]])[order]
    return refresh, np.searchsorted(seg[order], np.arange(live.size + 1))


def _index_maps(times: Sequence[np.ndarray], refresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tick rule: next-/previous-tick indices ``min{i: t_i >= tau}`` and
    ``max{i: t_i <= tau}`` of the nonempty increasing ``refresh`` times into
    each increasing time array.  Raises :class:`InterpolationError` for the
    first time with no previous tick or the last with no next tick."""
    nxt = np.empty((len(times), refresh.size), dtype=np.int64)
    prv = np.empty_like(nxt)
    for l, t in enumerate(times):
        nxt[l] = np.searchsorted(t, refresh, side="left")
        prv[l] = np.searchsorted(t, refresh, side="right") - 1
        if prv[l, 0] < 0:
            raise InterpolationError("previous", float(refresh[0]))
        if nxt[l, -1] >= t.size:
            raise InterpolationError("next", float(refresh[-1]))
    return nxt, prv


def pairwise_refresh(scheme_a: SamplingScheme, scheme_b: SamplingScheme) -> SyncGrid:
    """Refresh times of two schemes with next-/previous-tick index maps.

    The recursion collapses simultaneous ticks into a single refresh time and
    stops as soon as either scheme runs out of later ticks.
    """
    if scheme_a.horizon != scheme_b.horizon:
        raise ValueError("schemes must share the horizon")
    refresh, _ = _refresh_merge(scheme_a.times, scheme_b.times)
    if refresh.size == 0:
        raise ValueError("schemes produce no refresh times (disjoint tick ranges)")
    nxt, prv = _index_maps([scheme_a.times, scheme_b.times], refresh)
    return SyncGrid(refresh, (scheme_a, scheme_b), nxt, prv)


def global_refresh(grid_ab: SyncGrid, grid_cd: SyncGrid) -> SyncGrid:
    """Refresh times of two pairwise refresh sequences ("refresh times of
    refresh times"), i.e. the synchronous skeleton of all four schemes.

    Index maps are provided into the four underlying schemes; the two
    pairwise grids are kept as ``pair_grids``.
    """
    if grid_ab.horizon != grid_cd.horizon:
        raise ValueError("grids must share the horizon")
    refresh, _ = _refresh_merge(grid_ab.refresh_times, grid_cd.refresh_times)
    if refresh.size == 0:
        raise ValueError("pairwise grids produce no common refresh times")
    schemes = grid_ab.source_schemes + grid_cd.source_schemes
    nxt, prv = _index_maps([s.times for s in schemes], refresh)
    return SyncGrid(refresh, schemes, nxt, prv, pair_grids=(grid_ab, grid_cd))
