"""Observation-time machinery: sampling schemes, tick interpolation, refresh times.

Everything downstream (synchronized estimators, quadratic covariations of
observation times, sampling autocorrelation functionals) is built on two
primitives defined here:

* previous-/next-tick interpolation ``t^-(s) = max{t_i <= s}``,
  ``t^+(s) = min{t_i >= s}``;
* the refresh-time recursion, which collapses two (or, applied twice, four)
  irregular observation schemes onto a common synchronous skeleton.

Both have one home, the stamp union of two time arrays
(:class:`_StampUnion`): one merge sorts and labels their distinct stamps,
the refresh rule then fires on its run structure segment by segment, and
each array's next and previous tick at a union stamp is a cumulative count
of its labels, so no binary search is needed.  The tick rule at times that
are not stamps of a scheme (:func:`tick_interpolation`, the index maps of a
global grid) reads the union of the scheme with those times.  The stamps
two schemes share are the union's "both" stamps: the noise moments read
them there.  The histogram asymptotic covariance builds one union per
component pair and reads its pairwise grids, bracket bins, shared stamps
and overlap counts off it.

All containers are immutable after construction and safe to share across
workers (a :class:`SyncGrid` fills its index maps and interpolated times in
on first read, with the same values every time).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
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
    nxt, prv = _tick_maps([scheme.times], np.array([s], dtype=float))
    return float(scheme.times[prv[0, 0]]), float(scheme.times[nxt[0, 0]])


@dataclass(frozen=True)
class SyncGrid:
    """Refresh times of two or four schemes plus interpolation index maps.

    ``next_idx[l, i]`` / ``prev_idx[l, i]`` give, for refresh time ``i`` and
    source scheme ``l``, the index of the next/previous tick of that scheme,
    so ``t_l^-(tau_i) <= tau_i <= t_l^+(tau_i)`` by construction.  ``maps``
    holds them as ``(next_idx, prev_idx)``; left ``None``, they are computed
    on first read.

    For a grid built by :func:`global_refresh`, ``pair_grids`` holds the two
    pairwise grids.
    """

    refresh_times: np.ndarray
    source_schemes: tuple[SamplingScheme, ...]
    maps: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
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

    def _filled_maps(self) -> tuple[np.ndarray, np.ndarray]:
        if self.maps is None:
            object.__setattr__(self, "maps", _tick_maps([s.times for s in self.source_schemes], self.refresh_times))
        return self.maps

    @property
    def next_idx(self) -> np.ndarray:
        return self._filled_maps()[0]

    @property
    def prev_idx(self) -> np.ndarray:
        return self._filled_maps()[1]

    @cached_property
    def next_times(self) -> np.ndarray:
        """``next_times[l, i]``: next tick ``t_l^+(tau_i)`` of source scheme ``l``."""
        return np.array([s.times[i] for s, i in zip(self.source_schemes, self.next_idx)])

    @cached_property
    def prev_times(self) -> np.ndarray:
        """``prev_times[l, i]``: previous tick ``t_l^-(tau_i)`` of source scheme ``l``."""
        return np.array([s.times[i] for s, i in zip(self.source_schemes, self.prev_idx)])


class _StampUnion:
    """The sorted distinct stamps of two increasing time arrays ``a`` and
    ``b``, built by one merge, and the one home of what is read off it: the
    tick rule (:meth:`maps`), the refresh rule (:meth:`fire`,
    :meth:`refresh`) and the stamps the arrays share (``both``).

    * ``stamps``: the union, of size U; each stamp is a-only, b-only or both;
    * ``count[l, i]``: the number of ticks of array l (0 = a, 1 = b) at union
      positions below i (i = 0..U), so the next tick at or after union
      stamp i is ``count[l, i]`` and the previous tick at or before it
      ``count[l, i + 1] - 1``;
    * ``ticks[l]``: the union position of each tick of array l; ``first[l][c]``
      is that of tick c or U past the last tick, ``last[l][c]`` that of
      tick c - 1 or -1 before the first;
    * the labels the refresh rule reads: ``both`` (the stamp is in both
      arrays, so ``count[:, flatnonzero(both)]`` indexes the shared stamps
      in a and b) and ``change`` (an a-only stamp next to a b-only one).

    :meth:`flipped` gives the same union with the roles of a and b swapped.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        t = np.concatenate((a, b))
        order = np.argsort(t, kind="stable")  # linear: two sorted runs
        t = t[order]
        new = np.empty(t.size, dtype=bool)
        new[0] = True
        np.not_equal(t[1:], t[:-1], out=new[1:])  # a stamp occurs at most twice
        pos = np.empty(t.size, dtype=np.int32)  # int32 index arrays halve the union's memory
        pos[order] = np.cumsum(new, dtype=np.int32) - 1
        self.stamps = t[new]
        U = self.stamps.size
        self.sizes = (a.size, b.size)
        sentinel = np.array([-1, U], dtype=np.int32)
        padded = [np.concatenate((sentinel[:1], p, sentinel[1:])) for p in (pos[: a.size], pos[a.size :])]
        self.ticks = tuple(p[1:-1] for p in padded)
        self.first = tuple(p[1:] for p in padded)
        self.last = tuple(p[:-1] for p in padded)
        count = np.zeros((2, U + 1), dtype=np.int32)
        count[0, self.ticks[0] + 1] = 1
        count[1, self.ticks[1] + 1] = 1
        label = count[0, 1:] + 2 * count[1, 1:]  # 1 = a, 2 = b, 3 = both
        self.count = np.cumsum(count, axis=1, out=count)
        self.both = label == 3
        self.change = np.zeros(U, dtype=bool)
        self.change[1:] = label[1:] + label[:-1] == 3

    def flipped(self) -> "_StampUnion":
        """This union with ``b`` as the first array and ``a`` as the second."""
        out = copy.copy(self)
        for name in ("sizes", "ticks", "first", "last", "count"):
            setattr(out, name, getattr(self, name)[::-1])
        return out

    def fire(self, cuts_a: np.ndarray, cuts_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The refresh rule: union positions of the refresh times of K
        segments, concatenated, and the K + 1 bounds of each segment's share.

        ``cuts_a`` and ``cuts_b`` (length K + 1, nondecreasing) split the
        arrays into the segments ``a[cuts_a[j]:cuts_a[j+1]]`` and
        ``b[cuts_b[j]:cuts_b[j+1]]``, which must lie in one time window,
        below every stamp of segment j + 1 (bins of one partition of time);
        a segment is then a range of union positions.

        Each segment is merged on its own: tau_0 is the larger first tick;
        tau_i is the larger of the two first ticks strictly after tau_{i-1}.
        Over the union of the stamps after tau_0, each labelled a-only,
        b-only or both, a refresh fires at every "both" stamp, and at a
        single-label stamp whose label differs from the previous stamp's
        when the previous stamp did not fire (tau_0 counts as fired).
        Inside a run of consecutive label changes the fire flag therefore
        alternates, starting with "no" at the run's first stamp; runs end
        at segment bounds, and each segment starts a new one at its first
        stamp after tau_0.  Fires after the earlier of the segment's two
        last ticks are dropped: from there on one array has no tick at or
        after the candidate, so next-tick interpolation would be undefined.
        A segment with no tick in one array, or whose tau_0 lies after that
        cut, has no refresh times.  Time is linear in the union size, with
        about 30 numpy calls.
        """
        first_a, first_b = self.first[0][cuts_a], self.first[1][cuts_b]
        q0 = np.maximum(first_a[:-1], first_b[:-1])
        last = np.minimum(self.last[0][cuts_a[1:]], self.last[1][cuts_b[1:]])
        live = q0 <= last  # false also when one array has no tick in the segment
        q0, last = q0[live], last[live]
        # marks at each live segment's first stamp after tau_0; their cumsum
        # is the segment id of every union position (0 before the first)
        starts = np.zeros(self.stamps.size + 1, dtype=np.int32)
        starts[q0 + 1] = 1
        starts = starts[:-1]
        end = np.concatenate(([-1], last)).take(np.cumsum(starts, dtype=np.int32))
        pos = np.arange(starts.size, dtype=np.int32)
        # a run of label changes starts where no change happens, or at a mark
        run_start = np.maximum.accumulate(np.where(self.change & (starts == 0), 0, pos))
        odd = ((pos - run_start) & 1).astype(bool)
        fired = (self.both | (self.change & odd)) & (pos <= end)
        fired[q0] = True
        pos = np.flatnonzero(fired)
        # a segment's refresh times lie at or after its first union position
        return pos, pos.searchsorted(np.minimum(first_a, first_b))

    def refresh(self) -> np.ndarray:
        """Union positions of the refresh times of the whole arrays:
        :meth:`fire` on one segment."""
        return self.fire(np.array([0, self.sizes[0]]), np.array([0, self.sizes[1]]))[0]

    def maps(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tick rule at the nonempty increasing union positions ``pos``:
        next-/previous-tick indices ``min{i: t_i >= s}`` and
        ``max{i: t_i <= s}`` of ``s = stamps[pos]`` into ``a`` (row 0) and
        ``b`` (row 1).  Raises :class:`InterpolationError` for the first
        stamp with no previous tick or the last with no next tick, checking
        ``a`` before ``b``."""
        nxt, prv = self.count.take(pos, axis=1), self.count.take(pos + 1, axis=1) - 1
        for l, n in enumerate(self.sizes):
            if prv[l, 0] < 0:
                raise InterpolationError("previous", float(self.stamps[pos[0]]))
            if nxt[l, -1] >= n:
                raise InterpolationError("next", float(self.stamps[pos[-1]]))
        return nxt, prv


def _refresh_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Refresh times of two nonempty increasing time arrays, read off the
    union of their stamps (:meth:`_StampUnion.refresh`)."""
    union = _StampUnion(a, b)
    return union.stamps[union.refresh()]


def _tick_maps(times: Sequence[np.ndarray], query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tick rule of the nonempty increasing ``query`` times into each
    increasing time array, one int32 row per array: :meth:`_StampUnion.maps`
    of the union of the array with the query times, at the query times'
    union positions.  Raises :class:`InterpolationError` as it does."""
    nxt = np.empty((len(times), query.size), dtype=np.int32)
    prv = np.empty_like(nxt)
    for l, t in enumerate(times):
        union = _StampUnion(t, query)
        (nxt[l], _), (prv[l], _) = union.maps(union.ticks[1])
    return nxt, prv


def pairwise_refresh(scheme_a: SamplingScheme, scheme_b: SamplingScheme) -> SyncGrid:
    """Refresh times of two schemes with next-/previous-tick index maps.

    The recursion collapses simultaneous ticks into a single refresh time and
    stops as soon as either scheme runs out of later ticks.
    """
    return _pair_grid(_StampUnion(scheme_a.times, scheme_b.times), scheme_a, scheme_b)


def _pair_grid(union: _StampUnion, scheme_a: SamplingScheme, scheme_b: SamplingScheme) -> SyncGrid:
    """:func:`pairwise_refresh` read off the union of the two schemes' stamps."""
    if scheme_a.horizon != scheme_b.horizon:
        raise ValueError("schemes must share the horizon")
    pos = union.refresh()
    if pos.size == 0:
        raise ValueError("schemes produce no refresh times (disjoint tick ranges)")
    return SyncGrid(union.stamps[pos], (scheme_a, scheme_b), union.maps(pos))


def global_refresh(grid_ab: SyncGrid, grid_cd: SyncGrid) -> SyncGrid:
    """Refresh times of two pairwise refresh sequences ("refresh times of
    refresh times"), i.e. the synchronous skeleton of all four schemes.

    Index maps into the four underlying schemes are computed on first read;
    the two pairwise grids are kept as ``pair_grids``.
    """
    if grid_ab.horizon != grid_cd.horizon:
        raise ValueError("grids must share the horizon")
    refresh = _refresh_merge(grid_ab.refresh_times, grid_cd.refresh_times)
    if refresh.size == 0:
        raise ValueError("pairwise grids produce no common refresh times")
    return SyncGrid(refresh, grid_ab.source_schemes + grid_cd.source_schemes, pair_grids=(grid_ab, grid_cd))
