"""Deterministic functionals of sampling schemes that drive asymptotic variances.

Three families live here, all evaluated at finite sample size as step
functions on ``[0, T]``:

* quadratic covariations of observation times (``G`` and the interpolation
  functions ``F``, ``H``, ``I`` for the two index channels), which control
  the covariance of synchronized-interpolation estimators without noise;
* the local sampling autocorrelation ``G_{N,r}(t)`` and its weight-smoothed
  version ``D_N(t)`` that replaces the quadratic variation of time in the
  subsampling/multi-scale limit theory;
* synchronous-overlap functions ``S_kl`` and the overlap counts that switch
  the noise terms of the general asymptotic covariance on and off.

Step functions are stored as breakpoint/value arrays and evaluated
right-continuously, matching the ``sum over S_i <= t`` convention used
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import WeightScheme
from .sampling import SamplingScheme, SyncGrid, _StampUnion

__all__ = [
    "StepFunction",
    "TimeCovariationBundle",
    "time_covariations",
    "lasa_function",
    "weighted_lasa_function",
    "SyncOverlap",
    "sync_overlap",
]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous nondecreasing step function from breakpoint arrays.

    ``values[i]`` is the function value on ``[breakpoints[i], breakpoints[i+1])``;
    the function is 0 before the first breakpoint.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)
        if b.shape != v.shape or b.ndim != 1:
            raise ValueError("breakpoints and values must be matching 1-d arrays")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def total(self) -> float:
        """Value at (and beyond) the last breakpoint."""
        return float(self.values[-1]) if self.values.size else 0.0

    def increments(self) -> np.ndarray:
        """Jumps at the breakpoints (first jump is from 0)."""
        return np.diff(self.values, prepend=0.0)


def _cum_step(breaks: np.ndarray, jumps: np.ndarray) -> StepFunction:
    return StepFunction(breaks, np.cumsum(jumps))


@dataclass(frozen=True)
class TimeCovariationBundle:
    """Quadratic covariations of observation times on a global refresh grid.

    ``g`` aggregates squared refresh-time gaps; the ``f``/``h``/``i``
    functions collect the interpolation-overlap products for the two index
    channels (subscripts name the channel: ``24_13`` multiplies the
    13/24 spot-covariance product, ``23_14`` the 14/23 one).  All functions
    are nondecreasing, start at 0, and are scaled by ``N/T``.
    """

    g: StepFunction
    f_24_13: StepFunction
    f_23_14: StepFunction
    h_24_13: StepFunction
    h_23_14: StepFunction
    i_24_13: StepFunction
    i_23_14: StepFunction

    def channel(self, which: str) -> tuple[StepFunction, StepFunction, StepFunction]:
        if which == "24_13":
            return self.f_24_13, self.h_24_13, self.i_24_13
        if which == "23_14":
            return self.f_23_14, self.h_23_14, self.i_23_14
        raise ValueError(f"unknown channel {which!r}")


def _overlap(lo_a, hi_a, lo_b, hi_b):
    return np.maximum(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0.0)


def time_covariations(grid: SyncGrid) -> TimeCovariationBundle:
    """Evaluate the quadratic covariations of times on a 4-scheme global grid.

    The grid must come from :func:`hficov.sampling.global_refresh` (scheme
    order 1, 2, 3, 4; schemes 1, 2 form the first pair and 3, 4 the second).

    The functions are built directly from the synchronized-interpolation
    decomposition of the overlap estimator on the two *pairwise* refresh
    grids.  Writing each pairwise estimate as a synchronous part (products
    of refresh-block increments) plus an interpolation part (next-stub x
    span + span x next-stub + prev-stub x block + block x prev-stub per
    refresh block), every Gaussian covariance pairing between the two
    estimates reduces to a product of two interval overlaps attributed to
    one of the two index channels, (1-3)(2-4) or (1-4)(2-3):

    * ``g``  -- squared overlaps of the two pairwise refresh partitions
      (the synchronous-times term; on a common grid this is the plain sum
      of squared gaps);
    * ``f``  -- interpolation x interpolation products whose anchor blocks
      overlap in time;
    * ``h``  -- synchronous x interpolation cross products;
    * ``i``  -- interpolation x interpolation products with disjoint anchor
      blocks (longer reaches).

    All functions are nondecreasing step functions scaled by ``N/T`` (N =
    global refresh count) and vanish identically (except ``g``) when the
    four schemes coincide.  Only the channel sums ``f + h + i`` enter the
    asymptotic covariance; the split is diagnostic.  Block j's intervals lie
    in ``[min_l t_l^-(tau_{j-1}), max(tau_j, max_l t_l^+(tau_j))]``, whose
    ends are nondecreasing in j, so only the block offsets at which these
    spans of the two pairs overlap are scanned; others contribute nothing.
    """
    if len(grid.source_schemes) != 4 or len(grid.pair_grids) != 2:
        raise ValueError("time_covariations requires a 4-scheme global refresh grid")
    N = len(grid) - 1
    if N < 2:
        raise ValueError("need at least 3 global refresh times")
    T = grid.horizon
    scale = N / T
    g12, g34 = grid.pair_grids

    def pair_data(g: SyncGrid):
        tau = g.refresh_times
        tp, tm = g.next_times, g.prev_times
        block = (tau[:-1], tau[1:])
        span = (np.minimum(tm[0][:-1], tm[1][:-1]), np.maximum(tau[1:], np.maximum(tp[0][1:], tp[1][1:])))
        terms = []
        for a, b in ((0, 1), (1, 0)):
            nxt_a = (tau[1:], np.maximum(tp[a][1:], tau[1:]))   # (tau_j, t_a^+(tau_j)]
            span_b = (tm[b][:-1], tau[1:])                      # (t_b^-(tau_{j-1}), tau_j]
            prev_a = (tm[a][:-1], tau[:-1])                     # (t_a^-(tau_{j-1}), tau_{j-1}]
            if a == 0:
                terms.append((nxt_a, span_b))    # (X_a side, X_b side)
                terms.append((prev_a, block))
            else:
                terms.append((span_b, nxt_a))
                terms.append((block, prev_a))
        return tau, block, span, terms

    tau12, block12, span12, terms12 = pair_data(g12)
    tau34, block34, span34, terms34 = pair_data(g34)
    n12, n34 = tau12.size - 1, tau34.size - 1

    # align block j of pair 12 with candidate blocks k = k0[j] + r of pair
    # 34; the blocks whose span overlaps block j's span are [k_lo, k_hi)
    k0 = np.searchsorted(tau34[1:], tau12[1:], side="left")
    j_all = np.arange(n12)
    k_lo = np.searchsorted(span34[1], span12[0], side="right")
    k_hi = np.searchsorted(span34[0], span12[1], side="left")
    meets = k_lo < k_hi

    times_parts: list[np.ndarray] = []
    wa_parts: list[np.ndarray] = []
    wb_parts: list[np.ndarray] = []
    kind_parts: list[np.ndarray] = []  # 0 = g, 1 = f, 2 = h, 3 = i

    def emit(j, k, wa, wb, kind):
        keep = (wa != 0.0) | (wb != 0.0)
        if not np.any(keep):
            return
        times_parts.append(np.maximum(tau12[1:][j[keep]], tau34[1:][k[keep]]))
        wa_parts.append(wa[keep])
        wb_parts.append(wb[keep])
        kind_parts.append(np.full(keep.sum(), kind, dtype=np.int8))

    for r in range(np.min(k_lo[meets] - k0[meets]), np.max(k_hi[meets] - k0[meets])):
        k = k0 + r
        valid = (k >= 0) & (k < n34)
        if not np.any(valid):
            continue
        j = j_all[valid]
        kk = k[valid]
        blk_ov = _overlap(block12[0][j], block12[1][j], block34[0][kk], block34[1][kk])
        anchored = blk_ov > 0.0

        # synchronous x synchronous: squared overlap of the two partitions
        emit(j, kk, blk_ov**2, blk_ov**2 * 0.0, 0)  # weight identical per channel
        # (channel-b weight equals channel-a for g; handled when assembling)

        # interpolation x interpolation
        for x1, x2 in terms12:
            for x3, x4 in terms34:
                ov13 = _overlap(x1[0][j], x1[1][j], x3[0][kk], x3[1][kk])
                ov24 = _overlap(x2[0][j], x2[1][j], x4[0][kk], x4[1][kk])
                ov14 = _overlap(x1[0][j], x1[1][j], x4[0][kk], x4[1][kk])
                ov23 = _overlap(x2[0][j], x2[1][j], x3[0][kk], x3[1][kk])
                wa = ov13 * ov24
                wb = ov14 * ov23
                if np.any(wa) or np.any(wb):
                    emit(j[anchored], kk[anchored], wa[anchored], wb[anchored], 1)
                    na = ~anchored
                    emit(j[na], kk[na], wa[na], wb[na], 3)

        # synchronous x interpolation (both factors of the synchronous part
        # live on the same block interval)
        for x3, x4 in terms34:
            ov_a = _overlap(block12[0][j], block12[1][j], x3[0][kk], x3[1][kk])
            ov_b = _overlap(block12[0][j], block12[1][j], x4[0][kk], x4[1][kk])
            w = ov_a * ov_b
            emit(j, kk, w, w, 2)
        for x1, x2 in terms12:
            ov_a = _overlap(x1[0][j], x1[1][j], block34[0][kk], block34[1][kk])
            ov_b = _overlap(x2[0][j], x2[1][j], block34[0][kk], block34[1][kk])
            w = ov_a * ov_b
            emit(j, kk, w, w, 2)

    times = np.concatenate(times_parts)
    wa = np.concatenate(wa_parts)
    wb = np.concatenate(wb_parts)
    kinds = np.concatenate(kind_parts)
    order = np.argsort(times, kind="stable")
    times, wa, wb, kinds = times[order], wa[order], wb[order], kinds[order]

    def build(weights: np.ndarray, mask: np.ndarray) -> StepFunction:
        t = times[mask]
        w = weights[mask]
        if t.size == 0:
            return StepFunction(np.array([T]), np.array([0.0]))
        uniq, inv = np.unique(t, return_inverse=True)
        acc = np.zeros(uniq.size)
        np.add.at(acc, inv, w)
        return _cum_step(uniq, scale * acc)

    g_mask = kinds == 0
    return TimeCovariationBundle(
        g=build(wa, g_mask),
        f_24_13=build(wa, kinds == 1),
        f_23_14=build(wb, kinds == 1),
        h_24_13=build(wa, kinds == 2),
        h_23_14=build(wb, kinds == 2),
        i_24_13=build(wa, kinds == 3),
        i_23_14=build(wb, kinds == 3),
    )


# ---------------------------------------------------------------------------
# Local sampling autocorrelation
# ---------------------------------------------------------------------------


def _times_of(obj) -> tuple[np.ndarray, float]:
    if isinstance(obj, SyncGrid):
        return obj.refresh_times, obj.horizon
    if isinstance(obj, SamplingScheme):
        return obj.times, obj.horizon
    raise TypeError("expected a SamplingScheme or SyncGrid")


def lasa_function(grid, r: int) -> StepFunction:
    """Local sampling autocorrelation ``G_{N,r}`` of a time grid.

    ``G_{N,r}(t) = N/(rT) * sum_{t_j <= t} dt_j * sum_{q=0}^{r ^ j} dt_{j-q}``
    with out-of-range increments (``q = j``, reaching before the first
    observation) contributing zero.  On an equidistant grid the slope is
    ``(r+1)/r``.
    """
    times, T = _times_of(grid)
    N = times.size - 1
    if N < 1:
        raise ValueError("grid too small")
    if not 1 <= r < N:
        raise ValueError(f"need 1 <= r < N, got r={r}, N={N}")
    d = np.diff(times)  # d[j-1] = t_j - t_{j-1}, j = 1..N
    # inner[j-1] = sum_{q=0}^{min(r, j)} d_{j-q} with d_0 := 0
    csum = np.concatenate([[0.0], np.cumsum(d)])
    j = np.arange(1, N + 1)
    lo = np.maximum(j - r, 1) - 1
    inner = csum[j] - csum[lo]
    jumps = (N / (r * T)) * d * inner
    return _cum_step(times[1:], jumps)


def weighted_lasa_function(grid, weights: WeightScheme) -> StepFunction:
    """Weight-smoothed sampling autocorrelation ``D_N`` of a refresh grid.

    This is the finite-sample evaluation of

    ``D_N(t) = N/(M T) * sum_{S_r <= t} dS_r *
               sum_{i,k=1}^{M} a_i a_k sum_{q=0}^{r^i^k} (1-q/i)(1-q/k) dS_{r-q}``

    computed through the exact algebraic reduction of the inner double sum to
    ``kappa_q^2`` with ``kappa_q = sum_{i>=q} a_i (1 - q/i)`` (and
    ``kappa_0 = sum a_i``), which turns the triple sum into a single
    convolution.  On an equidistant grid ``D_N(t)/t`` converges to
    ``int_0^1 K(x)^2 dx`` of the generating kernel.

    The ``q = 0`` self term carries the trapezoidal edge weight 1/2, which
    removes most of the O(1/M) bias when the function is used as the
    integrator in asymptotic covariances; the literal sum weighs it fully.
    """
    times, T = _times_of(grid)
    N = times.size - 1
    M = weights.M
    if M > N:
        raise ValueError(f"need M <= N, got M={M}, N={N}")
    d = np.diff(times)
    k2 = weights.kappas() ** 2  # kappa_q^2, q = 0..M
    k2[0] *= 0.5
    # conv[r-1] = sum_{q} k2[q] * d_{r-q}; the out-of-range increment d_0
    # contributes zero through the convolution truncation.
    conv = np.convolve(d, k2)[: d.size]
    jumps = (N / (M * T)) * d * conv
    return _cum_step(times[1:], jumps)


# ---------------------------------------------------------------------------
# Synchronous-overlap functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyncOverlap:
    """Synchronous-observation functionals of four schemes.

    ``s_kl`` are the step functions counting shared timestamps of schemes
    ``k`` and ``l`` (scaled by ``1/N`` with ``N`` the global refresh count);
    the scalar counts summarize how often next-/previous-tick interpolations
    of the two pairs land on shared timestamps, normalized so that four
    identical schemes give 1 and fully disjoint schemes give exactly 0.
    """

    s_13: StepFunction
    s_14: StepFunction
    s_23: StepFunction
    s_24: StepFunction
    s_hat_13_24: float
    s_hat_14_23: float
    s_tilde_13_24: float
    s_tilde_14_23: float

    def all_zero(self) -> bool:
        return (
            self.s_hat_13_24 == 0.0
            and self.s_hat_14_23 == 0.0
            and self.s_tilde_13_24 == 0.0
            and self.s_tilde_14_23 == 0.0
            and self.s_13.total == 0.0
            and self.s_14.total == 0.0
            and self.s_23.total == 0.0
            and self.s_24.total == 0.0
        )


def _shared_step(shared: np.ndarray, horizon: float, N: int) -> StepFunction:
    if shared.size == 0:
        return StepFunction(np.array([horizon]), np.array([0.0]))
    return _cum_step(shared, np.full(shared.size, 1.0 / N))


def _ranks(x: np.ndarray, size: int) -> np.ndarray:
    """``r[v]``: the number of entries of ``x`` below ``v``, for v = 0..size,
    of integers ``x`` in ``[0, size)``."""
    r = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(x, minlength=size), out=r[1:])
    return r


def _match_ranges(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For nondecreasing nonnegative integers ``x`` and ``y``, the half-open
    column ranges ``[lo_r, hi_r)`` of the ``y`` entries equal to ``x[r]``.
    Both bounds are nondecreasing in ``r``."""
    r = _ranks(y, int(max(x[-1], y[-1])) + 1)
    return r.take(x), r.take(x + 1)


def _overlap_count(
    a_plus: np.ndarray,
    b_plus: np.ndarray,
    a_minus: np.ndarray,
    b_minus: np.ndarray,
    m_12: int,
    m_34: int,
) -> int:
    """Number of (j, k, r, q) with ``t_a^+(tau_j) = t_b^+(ttau_k)`` and
    ``t_am^-(tau_{j-r}) = t_bm^-(ttau_{k-q})``, ``1 <= r <= j ^ m_12``,
    ``1 <= q <= k ^ m_34``, for the interpolation arrays of two pairwise
    grids, each stamp given as its nonnegative integer position in a union
    of the compared schemes' stamps (so the arrays are nondecreasing and
    equal stamps have equal positions).

    A pairwise grid has a tick of each series in every ``(tau_{j-1},
    tau_j]``, so its previous-tick arrays strictly increase and its
    next-tick arrays hold a value at most twice.  The plus-matches (j, k)
    are enumerated (O(N)).  Each minus row matches at most one column, and
    the m-th matched row pairs with the m-th matched column; with ``row[v]``
    and ``col[v]`` the numbers of matched rows and columns below v, the
    minus-matches in the rectangle of rows ``[j - j^m_12, j)`` and columns
    ``[k - k^m_34, k)`` are the m in ``[max(row[r0], col[q0]), min(row[j],
    col[k]))``.  Every lookup is a rank in a count array, so time is linear
    in the lengths and the union size.
    """
    lo_p, hi_p = _match_ranges(a_plus, b_plus)
    width = hi_p - lo_p
    j = np.repeat(np.arange(a_plus.size), width)
    k = lo_p[j] + np.arange(j.size) - np.repeat(np.cumsum(width) - width, width)
    keep = (j > 0) & (k > 0)
    j, k = j[keep], k[keep]
    r0, q0 = j - np.minimum(j, m_12), k - np.minimum(k, m_34)

    lo, hi = _match_ranges(a_minus, b_minus)
    rows = np.flatnonzero(hi > lo)
    row, col = _ranks(rows, a_minus.size), _ranks(lo[rows], b_minus.size)
    return int(np.sum(np.maximum(0, np.minimum(row[j], col[k]) - np.maximum(row[r0], col[q0]))))


def sync_overlap(glob: SyncGrid, m_12: int, m_34: int) -> SyncOverlap:
    """Finite-sample synchronous-overlap functions and counts.

    ``glob`` is the global refresh grid of four schemes from
    :func:`hficov.sampling.global_refresh`; the schemes and the two pairwise
    grids are read from it.  Timestamps are compared with exact equality.
    The scalar counts evaluate the indicator sums over pairwise refresh indices
    without the limit; the quadruple sums are normalized by
    ``2 N min(m_12, m_34)`` and the boundary sums by ``2 min(m_12, m_34)``
    so the fully synchronous case yields 1 (both indicator brackets fire on
    identical schemes).  Time and memory are linear in the tick count.
    """
    if len(glob.source_schemes) != 4 or len(glob.pair_grids) != 2:
        raise ValueError("sync_overlap requires a 4-scheme global refresh grid")
    s1, s2, s3, s4 = (s.times for s in glob.source_schemes)
    unions = [_StampUnion(x, y) for x, y in ((s1, s3), (s1, s4), (s2, s3), (s2, s4))]
    return _sync_overlap(glob, m_12, m_34, unions)


def _sync_overlap(glob: SyncGrid, m_12: int, m_34: int, unions: Sequence[_StampUnion]) -> SyncOverlap:
    """:func:`sync_overlap` with the stamp unions of source schemes (1, 3),
    (1, 4), (2, 3) and (2, 4) given, in that order and orientation."""
    grid_12, grid_34 = glob.pair_grids
    N = len(glob) - 1  # refresh increment count, as elsewhere
    M = min(m_12, m_34)
    if M < 1:
        raise ValueError("multi-scale frequencies must be >= 1")

    s_13, s_14, s_23, s_24 = (_shared_step(u.stamps[u.both], glob.horizon, N) for u in unions)

    def ticks(x: int, y: int, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Union positions of the next (``side="next"``) or previous ticks
        of source schemes x (1, 2) and y (3, 4) at the two pairwise grids'
        refresh times."""
        u = unions[2 * (x - 1) + (y - 3)]
        idx_12, idx_34 = (grid_12.next_idx, grid_34.next_idx) if side == "next" else (grid_12.prev_idx, grid_34.prev_idx)
        return u.ticks[0].take(idx_12[x - 1]), u.ticks[1].take(idx_34[y - 3])

    def eq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x[:, None] == y[None, :]

    def s_hat(plus, minus) -> float:
        count = _overlap_count(*ticks(*plus, "next"), *ticks(*minus, "prev"), m_12, m_34)
        return count / (2.0 * N * M) if count else 0.0

    def s_tilde(p, q) -> float:
        (a_plus, b_plus), (c_plus, d_plus) = ticks(*p, "next"), ticks(*q, "next")
        (a_minus, b_minus), (c_minus, d_minus) = ticks(*p, "prev"), ticks(*q, "prev")
        n12, n34 = a_plus.size, b_plus.size
        j = np.arange(min(m_12, n12))
        k = np.arange(min(m_34, n34))
        front = np.logical_and(eq(a_plus[j], b_plus[k]), eq(c_plus[j], d_plus[k])).sum()
        jb = n12 - 1 - j
        kb = n34 - 1 - k
        back = np.logical_and(eq(a_minus[jb], b_minus[kb]), eq(c_minus[jb], d_minus[kb])).sum()
        return (front + back) / (2.0 * M)

    # 13/24 pairing: next ticks of (1, 3) with previous ticks of (2, 4), plus
    # the mirrored (2, 4)/(1, 3) bracket.
    hat_13_24 = s_hat((1, 3), (2, 4)) + s_hat((2, 4), (1, 3))
    hat_14_23 = s_hat((1, 4), (2, 3)) + s_hat((2, 3), (1, 4))
    tilde_13_24 = s_tilde((1, 3), (2, 4))
    tilde_14_23 = s_tilde((1, 4), (2, 3))

    return SyncOverlap(
        s_13=s_13,
        s_14=s_14,
        s_23=s_23,
        s_24=s_24,
        s_hat_13_24=float(hat_13_24),
        s_hat_14_23=float(hat_14_23),
        s_tilde_13_24=float(tilde_13_24),
        s_tilde_14_23=float(tilde_14_23),
    )
