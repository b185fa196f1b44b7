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
        Length ``T`` of the observation window.
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


def _refresh_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Refresh times of two strictly increasing time arrays, as a merge.

    tau_0 is the larger first tick; tau_i is the larger of the two first
    ticks strictly after tau_{i-1}.  Over the union of the stamps after
    tau_0, each labelled a-only, b-only or both, a refresh fires at every
    "both" stamp, and at a single-label stamp whose label differs from the
    previous stamp's when the previous stamp did not fire (tau_0 counts as
    fired).  Inside a run of consecutive label changes the fire flag
    therefore alternates, starting with "no" at the run's first stamp.
    Fires after ``min(a[-1], b[-1])`` are dropped: from there on one array
    has no tick at or after the candidate, so next-tick interpolation would
    be undefined.
    """
    tau0 = max(a[0], b[0])
    last = min(a[-1], b[-1])
    if tau0 > last:
        return np.empty(0)
    a = a[np.searchsorted(a, tau0, side="right") :]
    b = b[np.searchsorted(b, tau0, side="right") :]
    stamps = np.concatenate([a, b])
    order = np.argsort(stamps, kind="stable")  # linear: two sorted runs
    stamps = stamps[order]
    label = np.where(order < a.size, 1, 2)  # 1 = a, 2 = b, 3 = both
    first = np.ones(stamps.size, dtype=bool)
    first[1:] = stamps[1:] != stamps[:-1]  # a stamp occurs at most twice
    label = np.bitwise_or.reduceat(label, np.flatnonzero(first))
    stamps = stamps[first]

    single = label != 3
    change = np.zeros(stamps.size, dtype=bool)
    change[1:] = single[1:] & single[:-1] & (label[1:] != label[:-1])
    pos = np.arange(stamps.size)
    run_start = np.maximum.accumulate(np.where(change, 0, pos))
    fires = stamps[~single | (change & ((pos - run_start) % 2 == 1))]
    fires = fires[: np.searchsorted(fires, last, side="right")]
    return np.concatenate([[tau0], fires])


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
    refresh = _refresh_merge(scheme_a.times, scheme_b.times)
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
    refresh = _refresh_merge(grid_ab.refresh_times, grid_cd.refresh_times)
    if refresh.size == 0:
        raise ValueError("pairwise grids produce no common refresh times")
    schemes = grid_ab.source_schemes + grid_cd.source_schemes
    nxt, prv = _index_maps([s.times for s in schemes], refresh)
    return SyncGrid(refresh, schemes, nxt, prv, pair_grids=(grid_ab, grid_cd))
