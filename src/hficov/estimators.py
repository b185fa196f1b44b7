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
On synchronous data ``ms`` and ``kernel`` difference each series once and
share those differences across all pairs; every pair's value has the same
bits as the one-pair call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import KernelFunction, WeightScheme, builtin_kernel, cubic_weights, end_effect_adjust, weights_from_kernel
from .sampling import SamplingScheme, SyncGrid, pairwise_refresh

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
    """Whether all schemes observe at exactly the same times."""
    return all(np.array_equal(s.times, schemes[0].times) for s in schemes[1:])


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


def _multiscale_sum(up_a: np.ndarray, lo_a: np.ndarray, up_b: np.ndarray, lo_b: np.ndarray, w: WeightScheme) -> float:
    """``sum_i (a_i/i) sum_j (up_a[j] - lo_a[j-i]) (up_b[j] - lo_b[j-i])``."""
    total = 0.0
    for i in range(1, w.M + 1):
        da = up_a[i:] - lo_a[:-i]
        db = up_b[i:] - lo_b[:-i]
        total += (w.alphas[i - 1] / i) * float(np.dot(da, db))
    return total


def _multiscale_pairs(values: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]], w: WeightScheme) -> list[float]:
    """Multi-scale sums of synchronous series, one per ``(k, l)`` in ``pairs``.

    Scales run outside and pairs inside, so each series' scale-i differences
    are formed once per scale; each pair still adds one ``np.dot`` per scale,
    in the order of :func:`_multiscale_sum`.
    """
    n = values[0].size - 1
    if w.M > n:
        raise ValueError(f"multi-scale frequency M={w.M} exceeds n={n}")
    totals = [0.0] * len(pairs)
    for i in range(1, w.M + 1):
        d = [v[i:] - v[:-i] for v in values]
        coef = w.alphas[i - 1] / i
        for j, (k, l) in enumerate(pairs):
            totals[j] += coef * float(np.dot(d[k], d[l]))
    return totals


def _kernel_pairs(
    values: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]], kernel: KernelFunction, H: int, adjusted: bool
) -> list[float]:
    """Kernel estimates of synchronous series, one per ``(k, l)`` in ``pairs``,
    from increments formed once per series and lag weights ``K(h/H)`` formed
    once per call."""
    n = values[0].size - 1
    if not 1 <= H < n:
        raise ValueError(f"need 1 <= H < n, got H={H}, n={n}")
    d = [np.diff(v) for v in values]
    lags = [(h, wgt) for h in range(1, H + 1) if (wgt := kernel.k(h / H)) != 0.0]
    out = []
    for k, l in pairs:
        da, db = d[k], d[l]
        total = float(np.dot(da, db)) * ((n - 1) / n if adjusted else 1.0)
        for h, wgt in lags:
            total += wgt * float(np.dot(da[h:], db[:-h]) + np.dot(db[h:], da[:-h]))
        out.append(total)
    return out


def realized_cov(a: TickSeries, b: TickSeries) -> float:
    """Realized covariance ``sum_i da_i db_i`` over a common grid."""
    _require_synchronous(a, b, "realized_cov")
    return float(np.dot(a.increments(), b.increments()))


def multiscale(a: TickSeries, b: TickSeries, w: WeightScheme) -> float:
    """Multi-scale covariance ``sum_i (a_i/i) sum_{j>=i} d^i_j a d^i_j b``.

    Computed scale by scale from prefix differences in O(nM).
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
    addend by ``(n-1)/n``, cancelling the ``+2 eta_ab`` noise bias.
    """
    _require_synchronous(a, b, "kernel_estimator")
    return _kernel_pairs([a.values, b.values], [(0, 1)], kernel, H, adjusted)[0]


def _canonical_pair(a: TickSeries, b: TickSeries) -> tuple[TickSeries, TickSeries]:
    """Deterministic total ordering so symmetric estimators are bit-exact in
    their two arguments (full arrays break ties)."""
    ka = (len(a), a.scheme.times.tobytes(), a.values.tobytes())
    kb = (len(b), b.scheme.times.tobytes(), b.values.tobytes())
    return (a, b) if ka <= kb else (b, a)


def hayashi_yoshida(a: TickSeries, b: TickSeries) -> float:
    """Overlap-indicator covariance for asynchronous schemes.

    ``sum_{i,j} da_i db_j 1{(t_{i-1}, t_i] and (s_{j-1}, s_j] overlap}``,
    evaluated by an interval sweep with prefix sums in O((n_a + n_b) log).
    Exactly symmetric in its arguments, and reduces to realized covariance
    on a common grid.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("hayashi_yoshida needs at least two observations per series")
    if a.scheme.horizon != b.scheme.horizon:
        raise ValueError("schemes must share the horizon")
    x, y = _canonical_pair(a, b)
    tx, ty = x.scheme.times, y.scheme.times
    dx, dy = x.increments(), y.increments()
    # b-interval k = (ty[k], ty[k+1]] overlaps (tx[i], tx[i+1]] iff
    # ty[k+1] > tx[i] and ty[k] < tx[i+1]; the overlapping k form a range.
    k_lo = np.searchsorted(ty[1:], tx[:-1], side="right")
    k_hi = np.searchsorted(ty[:-1], tx[1:], side="left")
    cum = np.concatenate([[0.0], np.cumsum(dy)])
    spans = cum[np.maximum(k_hi, k_lo)] - cum[k_lo]
    return float(np.dot(dx, spans))


def generalized_multiscale(a: TickSeries, b: TickSeries, w: WeightScheme, grid: SyncGrid | None = None) -> float:
    """Multi-scale estimator on the pairwise refresh skeleton.

    ``sum_{i<=M} (a_i/i) sum_{j>=i} (a(t_a^+(tau_j)) - a(t_a^-(tau_{j-i})))
    * (b(t_b^+(tau_j)) - b(t_b^-(tau_{j-i})))`` with next-/previous-tick
    interpolation into each scheme.  On synchronous schemes the
    interpolations are identities and the estimator coincides with
    :func:`multiscale`.
    """
    if grid is None:
        grid = pairwise_refresh(a.scheme, b.scheme)
    N = len(grid) - 1
    if w.M > N:
        raise ValueError(f"multi-scale frequency M={w.M} exceeds refresh count N={N}")
    up_a, lo_a = a.values[grid.next_idx[0]], a.values[grid.prev_idx[0]]
    up_b, lo_b = b.values[grid.next_idx[1]], b.values[grid.prev_idx[1]]
    return _multiscale_sum(up_a, lo_a, up_b, lo_b, w)


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
    H = np.zeros((p, p))
    for l, s in enumerate(data):
        if len(s) < 2:
            raise ValueError("each series needs at least two observations")
        d = s.increments()
        H[l, l] = float(np.dot(d, d)) / (2.0 * s.n_increments)
    for k in range(p):
        for l in range(k + 1, p):
            tk, tl = data[k].scheme.times, data[l].scheme.times
            shared, ik, il = np.intersect1d(tk, tl, return_indices=True)
            if shared.size < 3:
                continue
            dk = np.diff(data[k].values[ik])
            dl = np.diff(data[l].values[il])
            H[k, l] = H[l, k] = -float(np.mean(dk[:-1] * dl[1:]))
    return NoiseMoments(H)


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
    cfg = config or EstimatorConfig()
    p = len(data)
    if p < 1:
        raise ValueError("need at least one series")
    if method not in ("rc", "ms", "kernel", "hy", "gms"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("rc", "ms", "kernel") and not _same_times([s.scheme for s in data]):
        raise ValueError(f"method {method!r} requires synchronous schemes; use 'hy' or 'gms'")
    pairs = [(k, l) for k in range(p) for l in range(k, p)]
    if method in ("ms", "kernel"):
        n = data[0].n_increments
        M = _ms_frequency(cfg.c, n)
        values = [s.values for s in data]
        if method == "ms":
            w = cfg.weights(M)
            vals = _multiscale_pairs(values, pairs, end_effect_adjust(w, n) if cfg.adjusted else w)
        else:
            vals = _kernel_pairs(values, pairs, builtin_kernel(cfg.kernel), M, cfg.adjusted)
        infos = [{"method": method, "M": M, "c": float(cfg.c), "kernel": cfg.kernel} for _ in pairs]
    else:
        vals, infos = [], []
        for k, l in pairs:
            a, b = data[k], data[l]
            info: dict = {"method": method}
            if method == "rc":
                val = realized_cov(a, b)
            elif method == "hy":
                val = hayashi_yoshida(a, b)
            else:
                grid = pairwise_refresh(a.scheme, b.scheme)
                N = len(grid) - 1
                M = _ms_frequency(cfg.c, N)
                info.update(M=M, c=float(cfg.c), kernel=cfg.kernel, refresh_count=N)
                w = cfg.weights(M)
                if cfg.adjusted:
                    w = end_effect_adjust(w, N)
                val = generalized_multiscale(a, b, w, grid=grid)
            vals.append(val)
            infos.append(info)
    mat = np.zeros((p, p))
    for (k, l), val in zip(pairs, vals):
        mat[k, l] = mat[l, k] = val
    per_pair = dict(zip(pairs, infos))
    eig_min = float(np.linalg.eigvalsh(mat).min()) if p > 1 else float(mat[0, 0])
    return CovEstimate(matrix=mat, method=method, per_pair=per_pair, svec=svec_pack(mat), min_eigenvalue=eig_min)
