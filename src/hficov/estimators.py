"""Integrated-covariance estimators for synchronous and asynchronous tick data.

The menu, in increasing generality:

* ``realized_cov`` — plain sum of synchronous increment products; consistent
  without noise, biased under microstructure noise.
* ``multiscale`` / ``kernel_estimator`` — noise-smoothing estimators for
  synchronous data (weighted subsampling scales / weighted realized
  autocovariances); ``multiscale_adjusted`` and ``kernel_estimator(...,
  adjusted=True)`` remove the additive end-effect noise bias.
* ``hayashi_yoshida`` — overlap-indicator estimator for asynchronous data
  without noise.
* ``generalized_multiscale`` — multi-scale smoothing on the pairwise
  refresh-time skeleton with next-/previous-tick interpolation; handles
  noise and asynchronicity together.

``estimate_matrix`` assembles the full p x p matrix and packs it into the
half-vectorized (svec) layout used by the asymptotic covariance machinery.
The ``kernel`` matrix and every multi-scale sum over whole rows
(``multiscale``, the ``ms`` matrix, and ``generalized_multiscale`` where
the skeleton rows are the series' own levels, as on synchronous schemes)
filter each series' increments once by one direct convolution,
``_autocov_pairs``; a multi-scale sum then subtracts its end effects in
closed form.  The other multi-scale sums (asynchronous ``gms`` pairs, the
gms acov brackets of ``hficov.avar``) go through ``_lag_sums``.  Both are
within rounding of a scale loop.  The ``hy`` matrix forms each series'
prefix sums once and each pair of tick-time arrays' overlap windows once.
Each pair of these matrices has the bits of the one-pair call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import KernelFunction, WeightScheme, builtin_kernel, cubic_weights, end_effect_adjust, weights_from_kernel
from .sampling import SamplingScheme, SyncGrid, _StampUnion, pairwise_refresh

__all__ = [
    "TickSeries",
    "CovEstimate",
    "NoiseMoments",
    "EstimatorConfig",
    "realized_cov",
    "multiscale",
    "multiscale_adjusted",
    "kernel_estimator",
    "hayashi_yoshida",
    "generalized_multiscale",
    "noise_moments",
    "estimate_matrix",
    "svec_index",
    "svec_pairs",
    "svec_pack",
    "svec_unpack",
]


@dataclass(frozen=True)
class TickSeries:
    """One asset's observation scheme with log-price values."""

    scheme: SamplingScheme
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size != len(self.scheme):
            raise ValueError("values must be 1-d and match the scheme length")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n_increments(self) -> int:
        return len(self) - 1

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def _same_times(schemes: Sequence[SamplingScheme]) -> bool:
    """Whether all schemes observe at exactly the same times (a scheme whose
    times are the first scheme's array is not compared)."""
    t = schemes[0].times
    return all(s.times is t or np.array_equal(s.times, t) for s in schemes[1:])


def _sync_increments(data: Sequence[TickSeries], error: str) -> np.ndarray:
    """Increments of synchronous series as one (p, n) array, after one
    synchronicity check that raises ``ValueError(error)``.  Row k has the
    bits of ``data[k].increments()``; the rc estimates and the rc acov
    entries of one call share it."""
    if not _same_times([s.scheme for s in data]):
        raise ValueError(error)
    return np.array([s.increments() for s in data])


def _require_synchronous(a: TickSeries, b: TickSeries, who: str) -> None:
    if not _same_times((a.scheme, b.scheme)):
        raise ValueError(f"{who} requires synchronous schemes; use hayashi_yoshida or generalized_multiscale")


def _clamp_frequency(m: float, n: int) -> int:
    """Round a multi-scale frequency to an integer in ``[2, n]``."""
    return max(2, min(int(round(m)), n))


def _check_c(c: float) -> None:
    """The frequency scale ``c`` must be finite and positive."""
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c!r}")


def _ms_frequency(c: float, n: int) -> int:
    """The frequency rule ``M = round(c sqrt(n))``, clamped to ``[2, n]``.

    The estimators, the closed forms and the histogram estimator all take
    their frequencies from here.
    """
    return _clamp_frequency(c * math.sqrt(n), n)


# skeleton slots x scales up to which a lag block beats the transform (measured),
# and the lag differences a block holds at once
_BLOCK_VALUES = 1 << 17


def _lag_block(V: np.ndarray, starts: np.ndarray, n1: np.ndarray, h: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The lag block of :func:`_lag_sums`, on bins whose first ``h[u]`` slots
    are lag sources only (their products are not summed).

    Each bin's rows are laid out after M zeros, so one strided view gives
    every lag and no bin reads another's slots.  Series a (rows 0, 2) and
    series b (rows 1, 3) form their lag differences in steps of as many
    scales as keep both within ``_BLOCK_VALUES`` values; series a forms
    them by one masked subtract into a zeroed buffer, so it is 0 where a
    product is not summed (at a slot that reads a lag source before its
    bin, lies in its first h or past its last slot), and one ``np.matmul``
    of stacked rows (a BLAS dot per row) sums the products per (bin,
    scale).  A (scale, bin) with a zero coefficient adds exactly 0,
    whatever its products.
    """
    (M, B), w = C.shape, int(n1.max())
    P = np.zeros((4, B, M + w))  # each bin's slots after M zeros
    for u, (s, n) in enumerate(zip(starts.tolist(), n1.tolist())):
        P[:, u, M : M + n] = V[:, s : s + n]
    lags = np.ndarray((4, B, M, w), P.dtype, P, 0, (*P.strides[:2], P.itemsize, P.itemsize))  # lags[r, u, M - i, j] = P[r, u, M + j - i]
    step = np.arange(-M, w) >= 0
    after = np.ndarray((M, w), bool, step, 0, (1, 1))  # after[M - i, j]: slot j reads no lag source before its bin
    j = np.arange(w)
    summed = ((j >= h[:, None]) & (j < n1[:, None]))[:, None]
    m = max(1, min(M, _BLOCK_VALUES // (2 * B * w)))  # scales per step
    D = np.empty((2, B, m, w))
    sums = np.zeros((B, M, 1, 1))  # sums[u, M - i]: the lag-i sum of bin u
    with np.errstate(over="ignore", invalid="ignore"):  # in products whose coefficients are 0
        for r0 in range(0, M, m):  # rows r0 .. r1 - 1 of the lag view
            r1 = min(r0 + m, M)
            a, b = D[:, :, : r1 - r0]
            a[...] = 0.0
            np.subtract(P[0, :, None, M:], lags[2, :, r0:r1], out=a, where=after[r0:r1] & summed)
            np.subtract(P[1, :, None, M:], lags[3, :, r0:r1], out=b)
            np.matmul(a[:, :, None], b[..., None], out=sums[:, r0:r1])
        C = C.T[:, ::-1]
        return (np.where(C != 0.0, sums[..., 0, 0], 0.0) * C).sum(axis=1)


def _lag_sums(V: np.ndarray, starts: np.ndarray, n1: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The multi-scale sum of one bracket on each bin u, the ``n1[u]`` slots
    from ``starts[u]`` of its rows ``V = (up a, up b, lo a, lo b)`` (4 rows
    of S slots), as a (bins,) array:
    ``sum_i C[i - 1, u] sum_j (V[0][j] - V[2][j - i]) (V[1][j] - V[3][j - i])``,
    j over the bin's last ``n1[u] - i`` slots (``C[i - 1, u]`` is ``a_i / i``,
    0 past the bin's own M < n1).  Both forms add in another order than a
    scale loop, within 1e-12 of its sum of absolute terms; swapping the two
    series (``V[[1, 0, 3, 2]]``) keeps the bits.  It sums the asynchronous
    gms pairs and the gms acov brackets; whole-row sums on the series' own
    levels (``ms``, synchronous gms pairs) take :func:`_multiscale_pairs`
    instead.

    *Block*, when ``S M <= _BLOCK_VALUES`` (M = ``C.shape[0]``): the
    :func:`_lag_block` of the bins.

    *Transform*, in O(S log M).  A bin of more than ``15 M`` slots is cut
    into windows that each sum ``L - 2 M`` of its slots, L the power of two
    at or above ``16 M``; each but a bin's first reads the M slots before it
    as lag sources only.  Each series (up row, lo row) is centred on the
    window mean of its up row, whose lag-source slots are zeroed, and
    transformed once.  A window's lag-i sum is the sum of its up products
    after slot i, plus that of its lo products from slot ``max(h - i, 0)``
    to ``n - i`` (h lag sources, n slots), less the lag-i cross sums from
    the two series' spectra.  Its rounding scales with the centred levels,
    not the differences, so the windows bound their length over M; the
    windows whose absolute lag sums are not 1e12 times a bound on that
    rounding, as when a series stands still, take one lag block.
    """
    (M, B), S = C.shape, V.shape[1]
    if S * M <= _BLOCK_VALUES:
        return _lag_block(V, starts, n1, np.zeros_like(n1), C)
    w = int(n1.max())
    L = 1 << (min(w, 15 * M) + M - 1).bit_length()  # no lag up to M wraps around
    c = L - M if w + M <= L else L - 2 * M  # the slots a window sums over
    k = -(-n1 // c)  # windows per bin
    u = np.repeat(np.arange(B), k)  # the bin of each window
    at = (np.arange(u.size) - np.repeat(np.cumsum(k) - k, k)) * c  # its first summed slot in the bin
    h = np.where(at > 0, M, 0)[:, None]  # its lag-source slots
    n = np.minimum(at + c, n1[u])[:, None] - at[:, None] + h  # its slots
    j = np.arange(n.max())
    win = np.minimum((starts[u] + at)[:, None] - h + j, S - 1)  # (window, slot) -> slot of V
    inside = j < n

    def centred(up, lo):  # a series' rows by window, less the window mean of its up row, whose lag-source slots are zeroed
        x = V[up][win]
        mean = x.sum(axis=1, where=inside, keepdims=True) / n
        return (x - mean) * (inside & (j >= h)), (V[lo][win] - mean) * inside

    (up_a, lo_a), (up_b, lo_b) = centred(0, 2), centred(1, 3)
    size = (np.linalg.norm(up_a, axis=1) + np.linalg.norm(lo_a, axis=1)) * (np.linalg.norm(up_b, axis=1) + np.linalg.norm(lo_b, axis=1))
    r, i = np.arange(u.size)[:, None], np.arange(1, M + 1)
    tail = np.maximum(n - i, 0)  # slot n - i; lags past a bin's n1 - 1 read clipped slots, whose coefficients are 0
    head = np.zeros((u.size, M + 1))  # head[:, m]: the lo products before slot m
    np.cumsum(lo_a[:, :M] * lo_b[:, :M], axis=1, out=head[:, 1:])
    up = np.einsum("ws,ws->w", up_a, up_b)[:, None] - np.cumsum(up_a[:, :M] * up_b[:, :M], axis=1)
    lo = np.einsum("ws,ws->w", lo_a, lo_b)[:, None] - np.cumsum(lo_a[r, tail] * lo_b[r, tail], axis=1) - head[r, np.maximum(h - i, 0)]
    edge = up + lo
    up_a, lo_a, up_b, lo_b = (np.fft.rfft(x, L) for x in (up_a, lo_a, up_b, lo_b))
    G = up_a * lo_b.conj()
    G += up_b * lo_a.conj()
    lag = edge - np.fft.irfft(G, L)[:, 1 : M + 1]
    sums = np.einsum("wi,iw->w", lag, C[:, u])
    absC = np.abs(C[:, u])
    rounding = math.log2(L) * np.finfo(float).eps * absC.sum(axis=0)  # per window, times the series' |up| + |lo| (2-norms)
    t = np.flatnonzero(1e12 * rounding * size > np.einsum("wi,iw->w", np.abs(lag), absC))
    if t.size:
        lo, hi = win[t, 0].min(), (win[t, 0] + n[t, 0]).max()
        sums[t] = _lag_block(V[:, lo:hi], win[t, 0] - lo, n[t, 0], h[t, 0], C[:, u[t]])
    return np.bincount(u, sums, B)


def _autocov_pairs(d: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]], weights: np.ndarray) -> list[float]:
    """Weighted sums of increment autocovariances of synchronous series, one
    per ``(k, l)`` in ``pairs``: ``weights[0] d_k . d_l`` plus
    ``d_k . f_l + d_l . f_k``, where ``f_x[j] = sum_{h>=1} weights[h] d_x[j - h]``
    is one direct convolution of the increments ``d[x]``, formed once per
    series.  Each entry depends on its own two series only, in either order,
    so a pair of a matrix has the bits of the one-pair call; a zero product
    adds exactly 0, so where no lag term is nonzero (a still series, or two
    that never move within the lags) an entry is its lag-0 term.
    """
    n = d[0].size
    lags = np.concatenate([[0.0], weights[1:]])
    f = [np.convolve(x, lags)[:n] for x in d]
    lag0 = float(weights[0])
    return [float(np.dot(d[k], d[l])) * lag0 + float(np.dot(d[k], f[l]) + np.dot(d[l], f[k])) for k, l in pairs]


def _kernel_pairs(
    values: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]], kernel: KernelFunction, H: int, adjusted: bool
) -> list[float]:
    """Kernel estimates of synchronous series, one per ``(k, l)`` in ``pairs``:
    the :func:`_autocov_pairs` of their increments at the weights ``K(h/H)``
    for h = 1..H and ``(n-1)/n`` (``adjusted``) or 1 at lag 0.
    """
    n = values[0].size - 1
    if not 1 <= H < n:
        raise ValueError(f"need 1 <= H < n, got H={H}, n={n}")
    scale = (n - 1) / n if adjusted else 1.0
    K = np.array([scale, *(kernel.k(h / H) for h in range(1, H + 1))])
    return _autocov_pairs([np.diff(v) for v in values], pairs, K)


def _multiscale_pairs(values: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]], w: WeightScheme) -> list[float]:
    """Multi-scale sums of synchronous series over whole rows, one per
    ``(k, l)`` in ``pairs``, at the weights ``w`` (``C_i = a_i / i``).

    A sum is a kernel sum of increment autocovariances less its end effects
    (Zhang 2006; Barndorff-Nielsen, Hansen, Lunde and Shephard 2008): with
    ``W_h = sum_{i>h} C_i (i - h)`` for h = 0..M-1 and W = 0 from M on, it
    is the :func:`_autocov_pairs` at the weights W, less
    ``E = sum_{s,t} x_s y_t (W[max(s, t)] + W[n + 1 - min(s, t)])`` over the
    1-based increments x, y of the pair.  E reads only the first and last
    M - 1 increments: grouped by ``m = max(s, t)`` (``min``, at the tail),
    it is ``sum_m W[m] (x_m Y_m + y_m X_m - x_m y_m)`` with X, Y the prefix
    (suffix) sums of x, y, so it costs O(M) per pair, also where the head
    and the tail overlap (M near n).  Each entry has the bits of its swap
    and of the one-pair call, and a still series gives exactly 0.
    """
    d = [np.diff(v) for v in values]
    n, M = d[0].size, w.M
    if M > n:
        raise ValueError(f"multi-scale frequency M={M} exceeds n={n}")
    W = np.cumsum(np.cumsum((w.alphas / w.scales)[::-1]))[::-1]  # W[h] = sum_{k>h} sum_{i>=k} C_i
    sums = _autocov_pairs(d, pairs, W)
    head = [(x[: M - 1], np.cumsum(x[: M - 1])) for x in d]  # prefix sums
    tail = [(x[n - M + 1 :], np.cumsum(x[n - M + 1 :][::-1])[::-1]) for x in d]  # suffix sums
    out = []
    for (k, l), s in zip(pairs, sums):
        E = 0.0
        for ends, W_e in ((head, W[1:M]), (tail, W[M - 1 : 0 : -1])):
            (x, X), (y, Y) = ends[k], ends[l]
            E += np.dot(W_e, x * Y + y * X - x * y)
        out.append(s - float(E))
    return out


def realized_cov(a: TickSeries, b: TickSeries) -> float:
    """Realized covariance ``sum_i da_i db_i`` over a common grid."""
    _require_synchronous(a, b, "realized_cov")
    return float(np.dot(a.increments(), b.increments()))


def multiscale(a: TickSeries, b: TickSeries, w: WeightScheme) -> float:
    """Multi-scale covariance ``sum_i (a_i/i) sum_{j>=i} d^i_j a d^i_j b``.

    Summed as a kernel sum of increment autocovariances less closed-form end
    effects (:func:`_multiscale_pairs`); the ``ms`` matrix of
    :func:`estimate_matrix` has the bits of this call.
    """
    _require_synchronous(a, b, "multiscale")
    return _multiscale_pairs([a.values, b.values], [(0, 1)], w)[0]


def multiscale_adjusted(a: TickSeries, b: TickSeries, w: WeightScheme) -> float:
    """Multi-scale estimator with the end-effect weight adjustment applied."""
    return multiscale(a, b, end_effect_adjust(w, a.n_increments))


def kernel_estimator(
    a: TickSeries,
    b: TickSeries,
    kernel: KernelFunction,
    H: int,
    adjusted: bool = False,
) -> float:
    """Autocovariance-kernel estimator for synchronous noisy data.

    Realized covariance plus ``K(h/H)``-weighted symmetrized lag-h realized
    autocovariances for h = 1..H (so ``H=1`` degenerates to realized
    covariance).  ``adjusted=True`` multiplies the realized-covariance
    addend by ``(n-1)/n``, cancelling the ``+2 eta_ab`` noise bias.  The lag
    sums are one direct convolution of each series' increments with the
    weights (:func:`_autocov_pairs`, which the multi-scale sums over whole
    rows share), and the ``kernel`` matrix of :func:`estimate_matrix` has
    the bits of this call.
    """
    _require_synchronous(a, b, "kernel_estimator")
    return _kernel_pairs([a.values, b.values], [(0, 1)], kernel, H, adjusted)[0]


def _overlap_windows(tx: np.ndarray, ty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each interval i of the times ``tx``, the range ``[lo[i], hi[i])``
    of the intervals of ``ty`` that it overlaps: y-interval k = (ty[k],
    ty[k+1]] overlaps (tx[i], tx[i+1]] iff ty[k+1] > tx[i] and ty[k] <
    tx[i+1], and the overlapping k form a range."""
    k_lo = np.searchsorted(ty[1:], tx[:-1], side="right")
    k_hi = np.searchsorted(ty[:-1], tx[1:], side="left")
    return k_lo, np.maximum(k_hi, k_lo)


def _hy_pairs(data: Sequence[TickSeries], pairs: Sequence[tuple[int, int]], windows: dict | None = None) -> list[float]:
    """Overlap estimates, one per ``(k, l)`` in ``pairs``: each series'
    increments and prefix sums are formed once, and the overlap windows once
    per ordered pair of distinct tick-time arrays (series on equal times
    share them).  Each pair sums in a total order of its two series (length,
    then the bytes of the times, then of the values), so the estimate is
    bit-exact in its two arguments and a pair of a matrix has the bits of the
    one-pair call.

    ``windows``, if given, holds the :func:`_overlap_windows` of earlier
    calls, keyed by the pair ``(tx.tobytes(), ty.tobytes())`` of the time
    arrays in summing order, and gets this call's new ones: callers whose
    schemes stay fixed (Monte Carlo replicates) find each pair's windows
    once.  A pair's bits do not depend on whether its windows were found or
    looked up.  Threads may share one dict: each entry depends on its key
    alone, so a race at most finds the same windows twice."""
    for k, l in pairs:
        a, b = data[k], data[l]
        if len(a) < 2 or len(b) < 2:
            raise ValueError("hayashi_yoshida needs at least two observations per series")
        if a.scheme.horizon != b.scheme.horizon:
            raise ValueError("schemes must share the horizon")
    shared = {}  # series on equal times share one bytes object of them
    keys = [(len(s), shared.setdefault(t := s.scheme.times.tobytes(), t), s.values.tobytes()) for s in data]  # the total order
    d = [s.increments() for s in data]
    cum = [np.concatenate([[0.0], np.cumsum(x)]) for x in d]
    windows = {} if windows is None else windows
    out = []
    for k, l in pairs:
        x, y = (k, l) if keys[k] <= keys[l] else (l, k)
        at = keys[x][1], keys[y][1]
        if at not in windows:
            windows[at] = _overlap_windows(data[x].scheme.times, data[y].scheme.times)
        lo, hi = windows[at]
        out.append(float(np.dot(d[x], cum[y][hi] - cum[y][lo])))
    return out


def hayashi_yoshida(a: TickSeries, b: TickSeries) -> float:
    """Overlap-indicator covariance for asynchronous schemes.

    ``sum_{i,j} da_i db_j 1{(t_{i-1}, t_i] and (s_{j-1}, s_j] overlap}``: for
    each interval of one series, the prefix sums of the other's increments
    over the range of intervals it overlaps (two binary searches), in
    O((n_a + n_b) log).  Exactly symmetric in its arguments, and reduces to
    realized covariance on a common grid.
    """
    return _hy_pairs([a, b], [(0, 1)])[0]


def generalized_multiscale(a: TickSeries, b: TickSeries, w: WeightScheme, grid: SyncGrid | None = None) -> float:
    """Multi-scale estimator on the pairwise refresh skeleton.

    ``sum_{i<=M} (a_i/i) sum_{j>=i} (a(t_a^+(tau_j)) - a(t_a^-(tau_{j-i})))
    * (b(t_b^+(tau_j)) - b(t_b^-(tau_{j-i})))`` with next-/previous-tick
    interpolation into each scheme.  Where every refresh time is a tick of
    both schemes (next equals previous tick, as on synchronous schemes) the
    skeleton rows are the series' own levels and the sum is the whole-row
    :func:`multiscale` sum, with its bits; other skeletons go through
    :func:`_lag_sums`.
    """
    if grid is None:
        grid = pairwise_refresh(a.scheme, b.scheme)
    N = len(grid) - 1
    if w.M > N:
        raise ValueError(f"multi-scale frequency M={w.M} exceeds refresh count N={N}")
    up, lo = grid.next_idx, grid.prev_idx
    if np.array_equal(up, lo):  # the skeleton rows are the series' own levels
        return _multiscale_pairs([a.values[up[0]], b.values[up[1]]], [(0, 1)], w)[0]
    V = np.array([a.values[up[0]], b.values[up[1]], a.values[lo[0]], b.values[lo[1]]])
    C = (w.alphas / w.scales)[:, None]
    return float(_lag_sums(V, np.zeros(1, int), np.array([N + 1]), C)[0])


@dataclass(frozen=True)
class NoiseMoments:
    """Estimated noise covariance matrix (variances and synchronous covariances)."""

    h_hat: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h_hat, dtype=float)
        object.__setattr__(self, "h_hat", h)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h_hat must be square")


def noise_moments(data: Sequence[TickSeries]) -> NoiseMoments:
    """Estimate the noise covariance matrix from tick data.

    Diagonal: ``RV_l / (2 n_l)``.  Off-diagonal (k, l): restrict both series
    to their exactly shared timestamps and average adjacent-increment
    products, ``-mean(d_i(k) d_{i+1}(l))``; exactly 0 when the schemes share
    fewer than three timestamps.
    """
    p = len(data)
    H = np.diag([_noise_variance(s) for s in data])
    for k in range(p):
        for l in range(k + 1, p):
            union = _StampUnion(data[k].scheme.times, data[l].scheme.times)
            H[k, l] = H[l, k] = _noise_covariance(data[k], data[l], union)
    return NoiseMoments(H)


def _noise_variance(s: TickSeries) -> float:
    """The diagonal entry ``RV / (2 n)`` of :func:`noise_moments`."""
    if len(s) < 2:
        raise ValueError("each series needs at least two observations")
    d = s.increments()
    return float(np.dot(d, d)) / (2.0 * s.n_increments)


def _noise_covariance(a: TickSeries, b: TickSeries, union: _StampUnion) -> float:
    """The off-diagonal entry ``-mean(d_i(a) d_{i+1}(b))`` of
    :func:`noise_moments`, on the stamps shared by a and b: the "both"
    stamps of ``union``, the stamp union of a's and b's times in that
    order, whose tick counts there are their indices in a and in b."""
    both = np.flatnonzero(union.both)
    if both.size < 3:
        return 0.0
    ia, ib = union.count.take(both, axis=1)
    da = np.diff(a.values[ia])
    db = np.diff(b.values[ib])
    return -float(np.mean(da[:-1] * db[1:]))


@dataclass(frozen=True)
class EstimatorConfig:
    """Per-run estimator configuration.

    ``c`` scales the multi-scale frequency ``M_kl = round(c * sqrt(N_kl))``;
    ``kernel`` names the weight-generating kernel; ``adjusted`` applies the
    end-effect corrections.
    """

    kernel: str = "cubic"
    c: float = 1.0
    adjusted: bool = True

    def __post_init__(self) -> None:
        _check_c(self.c)

    def weights(self, M: int) -> WeightScheme:
        if self.kernel == "cubic":
            return cubic_weights(M)
        return weights_from_kernel(builtin_kernel(self.kernel), M)


@dataclass(frozen=True)
class CovEstimate:
    """Symmetric integrated-covariance estimate with method metadata.

    ``svec`` packs the upper triangle row-wise (11, 12, ..., 1p, 22, ...).
    ``min_eigenvalue`` is diagnostic only; positive semidefiniteness is not
    enforced.
    """

    matrix: np.ndarray
    method: str
    per_pair: dict
    svec: np.ndarray
    min_eigenvalue: float


def svec_index(p: int, k: int, l: int) -> int:
    """0-based position of entry (k, l), 1 <= k <= l <= p, in the svec layout
    (row-wise upper triangle: 11, 12, ..., 1p, 22, 23, ...)."""
    if not 1 <= k <= l <= p:
        raise ValueError(f"need 1 <= k <= l <= p, got ({k}, {l}) for p={p}")
    return (k - 1) * (2 * p - k + 2) // 2 + (l - k)


def svec_pairs(p: int) -> list[tuple[int, int]]:
    """The (k, l) pairs (1-based, k <= l) in svec order."""
    return [(k, l) for k in range(1, p + 1) for l in range(k, p + 1)]


def svec_pack(matrix: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix's upper triangle row-wise into a vector."""
    m = np.asarray(matrix, dtype=float)
    p = m.shape[0]
    return np.concatenate([m[k, k:] for k in range(p)])


def svec_unpack(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec_pack`."""
    v = np.asarray(vec, dtype=float)
    q = v.size
    p = int(round((math.isqrt(8 * q + 1) - 1) / 2))
    if p * (p + 1) // 2 != q:
        raise ValueError(f"length {q} is not p(p+1)/2 for integer p")
    out = np.zeros((p, p))
    pos = 0
    for k in range(p):
        out[k, k:] = v[pos : pos + p - k]
        out[k:, k] = v[pos : pos + p - k]
        pos += p - k
    return out


def estimate_matrix(data: Sequence[TickSeries], method: str, config: EstimatorConfig | None = None) -> CovEstimate:
    """Assemble the p x p integrated-covariance matrix.

    ``method`` is one of ``rc``, ``ms``, ``kernel`` (synchronous schemes
    required), ``hy``, or ``gms``.  Multi-scale frequencies are chosen per
    pair as ``M_kl = round(c sqrt(N_kl))``, clamped to ``[2, N_kl]``, with
    ``N_kl`` the common-grid size (ms/kernel) or pairwise refresh count (gms).
    """
    return _estimate_matrix(data, method, config or EstimatorConfig(), None)


def _estimate_matrix(
    data: Sequence[TickSeries],
    method: str,
    cfg: EstimatorConfig,
    pair_grid: Callable[[int, int], SyncGrid] | None,
    incs: np.ndarray | None = None,
) -> CovEstimate:
    """:func:`estimate_matrix`; ``pair_grid(k, l)``, if given, supplies the
    pairwise refresh grid of 0-based components k and l for ``gms``, and
    ``incs``, if given, the :func:`_sync_increments` of ``data`` for ``rc``."""
    p = len(data)
    if p < 1:
        raise ValueError("need at least one series")
    if method not in ("rc", "ms", "kernel", "hy", "gms"):
        raise ValueError(f"unknown method {method!r}")
    sync_error = f"method {method!r} requires synchronous schemes; use 'hy' or 'gms'"
    if method in ("ms", "kernel") and not _same_times([s.scheme for s in data]):
        raise ValueError(sync_error)
    pairs = [(k, l) for k in range(p) for l in range(k, p)]
    if method == "rc":
        d = _sync_increments(data, sync_error) if incs is None else incs
        vals = [float(np.dot(d[k], d[l])) for k, l in pairs]  # one dot per pair: the bits of realized_cov
        infos = [{"method": method} for _ in pairs]
    elif method in ("ms", "kernel"):
        n = data[0].n_increments
        M = _ms_frequency(cfg.c, n)
        values = [s.values for s in data]
        if method == "ms":
            w = end_effect_adjust(cfg.weights(M), n) if cfg.adjusted else cfg.weights(M)
            vals = _multiscale_pairs(values, pairs, w)
        else:
            vals = _kernel_pairs(values, pairs, builtin_kernel(cfg.kernel), M, cfg.adjusted)
        infos = [{"method": method, "M": M, "c": float(cfg.c), "kernel": cfg.kernel} for _ in pairs]
    elif method == "hy":
        vals = _hy_pairs(data, pairs)
        infos = [{"method": method} for _ in pairs]
    else:
        vals, infos = [], []
        for k, l in pairs:
            a, b = data[k], data[l]
            grid = pair_grid(k, l) if pair_grid else pairwise_refresh(a.scheme, b.scheme)
            N = len(grid) - 1
            M = _ms_frequency(cfg.c, N)
            infos.append({"method": method, "M": M, "c": float(cfg.c), "kernel": cfg.kernel, "refresh_count": N})
            w = cfg.weights(M)
            if cfg.adjusted:
                w = end_effect_adjust(w, N)
            vals.append(generalized_multiscale(a, b, w, grid=grid))
    mat = np.zeros((p, p))
    for (k, l), val in zip(pairs, vals):
        mat[k, l] = mat[l, k] = val
    per_pair = dict(zip(pairs, infos))
    eig_min = float(np.linalg.eigvalsh(mat).min()) if p > 1 else float(mat[0, 0])
    return CovEstimate(matrix=mat, method=method, per_pair=per_pair, svec=svec_pack(mat), min_eigenvalue=eig_min)
