"""Asymptotic covariance matrices of integrated-covariance estimators.

Contents:

* the Gaussian product-moment identity (:func:`isserlis_cov`);
* :func:`acov_theory` — the closed-form asymptotic covariance of two
  estimates for each sampling regime, used as the oracle in Monte Carlo
  validation (realized covariance; multi-scale on synchronous data;
  overlap estimator under asynchronicity; generalized multi-scale under
  asynchronicity and noise);
* the data-driven estimators :func:`acov_rc_hat` (adjacent-increment
  quarticity form) and :func:`acov_gms_hat` (histogram of binwise
  multi-scale brackets), assembled into the full q x q matrix by
  :func:`acov_matrix_hat` (q = p(p+1)/2);
* :func:`lincomb_avar` and :func:`standardize` for feasible central limit
  theorems on portfolio linear combinations.

Coefficient conventions: the slot coefficients entering the multi-scale
covariance (noise^2, signal-noise cross, end effects) are taken from
:class:`hficov.kernels.KernelConstants` properties, which were validated
against exact finite-sample covariances of the estimators' quadratic forms;
see the notes in that module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    EstimatorConfig,
    TickSeries,
    _check_c,
    _clamp_frequency,
    _lag_sums,
    _ms_frequency,
    _noise_covariance,
    _noise_variance,
    _sync_increments,
    svec_index,
    svec_pairs,
)
from .kernels import KernelConstants, WeightScheme, _end_adjusted, kernel_constants
from .sampling import SyncGrid, _pair_grid, _refresh_merge, _StampUnion, global_refresh, pairwise_refresh
from .timefuncs import (
    StepFunction,
    SyncOverlap,
    TimeCovariationBundle,
    _sync_overlap,
    sync_overlap,
    time_covariations,
    weighted_lasa_function,
)

__all__ = [
    "isserlis_cov",
    "dimension_identity",
    "TheoryInputs",
    "acov_theory",
    "hy_theory_inputs",
    "gms_theory_inputs",
    "acov_rc_hat",
    "GmsAcovConfig",
    "acov_gms_hat",
    "AcovMatrix",
    "acov_matrix_hat",
    "lincomb_avar",
    "standardize",
]


# ---------------------------------------------------------------------------
# Moment identity and dimension count
# ---------------------------------------------------------------------------


def isserlis_cov(sigma: np.ndarray, idx: tuple[int, int, int, int]) -> float:
    """Gaussian product-moment covariance ``Cov(Z_i Z_l, Z_m Z_u)``.

    For ``Z ~ N(0, sigma)`` this equals ``sigma_im sigma_lu + sigma_iu
    sigma_lm``.  Indices are 1-based.
    """
    s = np.asarray(sigma, dtype=float)
    i, l, m, u = _zero_based(idx, s.shape[0])
    return float(s[i, m] * s[l, u] + s[i, u] * s[l, m])


def _zero_based(idx, p: int) -> tuple[int, ...]:
    """Check 1-based component indices against ``1..p`` and shift them to 0-based."""
    for v in idx:
        if not 1 <= v <= p:
            raise IndexError(f"component {v} out of range 1..{p}")
    return tuple(int(v) - 1 for v in idx)


def dimension_identity(p: int) -> tuple[int, int]:
    """Both sides of the free-entry count identity for the q x q asymptotic
    covariance matrix, q = p(p+1)/2.

    Left: ``q(q+1)/2``.  Right: ``p + 3 C(p,4) + 6 C(p,3) + 4 C(p,2)``.
    """
    q = p * (p + 1) // 2
    lhs = q * (q + 1) // 2
    rhs = p + 3 * math.comb(p, 4) + 6 * math.comb(p, 3) + 4 * math.comb(p, 2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Theoretical asymptotic covariances (Monte Carlo oracles)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryInputs:
    """Everything the closed-form asymptotic covariances consume.

    ``times`` are the common quadrature breakpoints (length m+1) and
    ``sigma`` the spot covariance per block, shape (m, p, p) (a single
    (p, p) matrix means a constant path).  ``noise`` is the noise covariance
    matrix; ``c`` the multi-scale tuning constant; ``lasa`` the finite-sample
    weighted sampling autocorrelation of the relevant refresh grid (used as
    a Stieltjes integrator); ``timecov`` the quadratic covariations of times
    (overlap regime); ``overlap`` the synchronous-overlap functions (general
    regime noise terms); ``constants`` the weight-scheme constants.
    """

    times: np.ndarray
    sigma: np.ndarray
    noise: np.ndarray | None = None
    c: float = 1.0
    lasa: StepFunction | None = None
    timecov: TimeCovariationBundle | None = None
    overlap: SyncOverlap | None = None
    constants: KernelConstants | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim == 2:
            s = np.broadcast_to(s, (t.size - 1,) + s.shape).copy()
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sigma", s)
        if s.shape[0] != t.size - 1 or s.shape[1] != s.shape[2]:
            raise ValueError("sigma must have shape (len(times)-1, p, p)")
        if not np.allclose(s, np.swapaxes(s, 1, 2), atol=1e-12):
            raise ValueError("spot covariance path must be symmetric")
        if np.linalg.eigvalsh(s).min() < -1e-10:
            raise ValueError("spot covariance path must be positive semidefinite")

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def sigma_at(self, t: np.ndarray) -> np.ndarray:
        """Spot covariance per queried time (block lookup, right-open)."""
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.sigma.shape[0] - 1)
        return self.sigma[idx]

    def integral(self, f_of_sigma) -> float:
        """Midpoint-rule integral of a scalar function of the spot covariance."""
        dt = np.diff(self.times)
        return float(np.sum(f_of_sigma(self.sigma) * dt))

    def stieltjes(self, step: StepFunction, f_of_sigma) -> float:
        """Integral of ``f(sigma_s)`` against a nondecreasing step function."""
        b = step.breakpoints
        inc = step.increments()
        return float(np.sum(f_of_sigma(self.sigma_at(b)) * inc))


def _pair_components(pairs, p: int) -> tuple[int, ...]:
    """0-based components ``(k, l, r, q)`` of 1-based pairs ``((k, l), (r, q))``."""
    (k, l), (r, q) = pairs
    return _zero_based((k, l, r, q), p)


def _noise_addends(kc: KernelConstants, c: float, eta: np.ndarray, ov: SyncOverlap | None, cross_integral):
    """Pure-noise, end-effect and signal-noise addends ``(noise2, ends, cross)``
    of the multi-scale asymptotic covariance of pairs ``((k, l), (r, q))``.

    ``eta`` is the 4 x 4 noise covariance of the components (k, l, r, q).
    ``ov`` supplies the synchronous-overlap weights; ``None`` means a common
    grid, where every weight is 1.  ``cross_integral(step, (x, y))``
    integrates the spot covariance of components x and y against the slot's
    shared-timestamp function ``step`` (``None`` on a common grid).  A slot
    with zero noise covariance contributes exactly 0 and is not integrated.
    """
    if ov is None:
        hat_a = hat_b = tilde_a = tilde_b = 1.0
        steps = (None,) * 4
    else:
        hat_a, hat_b, tilde_a, tilde_b = ov.s_hat_13_24, ov.s_hat_14_23, ov.s_tilde_13_24, ov.s_tilde_14_23
        steps = (ov.s_13, ov.s_24, ov.s_14, ov.s_23)
    e_kr, e_lq, e_kq, e_lr = eta[0, 2], eta[1, 3], eta[0, 3], eta[1, 2]
    noise2 = c**-3 * kc.noise_coeff * (hat_a * e_kr * e_lq + hat_b * e_kq * e_lr)
    ends = c**-1 * kc.end_coeff * (tilde_a * e_kr * e_lq + tilde_b * e_kq * e_lr)
    # each slot pairs its noise covariance with the spot covariance of the
    # other two components: kr with lq, lq with kr, kq with lr, lr with kq
    t = [
        e * cross_integral(step, other) if e != 0.0 else 0.0
        for e, step, other in zip((e_kr, e_lq, e_kq, e_lr), steps, ((1, 3), (0, 2), (1, 2), (0, 3)))
    ]
    cross = c**-1 * kc.cross_coeff * (t[0] + t[1] + t[2] + t[3])
    return noise2, ends, cross


def acov_theory(inputs: TheoryInputs, regime: str, pairs) -> float:
    """Closed-form asymptotic covariance of two integrated-covariance
    estimates for component pairs ``((k, l), (r, q))`` (1-based).

    Regimes
    -------
    ``rc``
        ``T int (s_kr s_lq + s_kq s_lr) ds`` (sqrt(n) rate).
    ``ms_sync``
        Signal term ``2 c T int D'(s)(s_kr s_lq + s_kq s_lr) ds`` plus the
        noise^2, signal-noise and end-effect slots with the validated
        coefficients ``2 n1 c^-3``, ``2 n2 c^-1`` and ``2 n2 c^-1``
        (n^(1/4) rate).
    ``hy``
        ``T [ int (s_kr s_lq + s_kq s_lr) dG + int s_kr s_lq d(F+H+I)_a
        + int s_kq s_lr d(F+H+I)_b ]`` with the quadratic covariations of
        times of the realized global refresh grid (sqrt(N) rate).
    ``gms``
        Signal term integrated against the realized weighted sampling
        autocorrelation, plus noise terms weighted by the synchronous
        overlap counts (exactly the signal term when no synchronous
        observations exist).
    """
    comps = _pair_components(pairs, inputs.sigma.shape[1])
    k, l, r, q = comps
    T = inputs.T

    def prod_a(s):  # s_kr * s_lq
        return s[..., k, r] * s[..., l, q]

    def prod_b(s):  # s_kq * s_lr
        return s[..., k, q] * s[..., l, r]

    def prod_sum(s):
        return prod_a(s) + prod_b(s)

    if regime == "rc":
        return T * inputs.integral(prod_sum)

    if regime == "ms_sync":
        if inputs.constants is None:
            raise ValueError("ms_sync regime needs kernel constants")
        c = inputs.c
        kc = inputs.constants
        if inputs.lasa is not None:
            signal = 2.0 * c * T * inputs.stieltjes(inputs.lasa, prod_sum)
        else:
            signal = 2.0 * c * T * kc.lasa_slope * inputs.integral(prod_sum)
        if inputs.noise is None:
            return signal
        def cross_integral(_, xy):
            return inputs.integral(lambda s: s[..., comps[xy[0]], comps[xy[1]]])

        noise2, ends, cross = _noise_addends(kc, c, inputs.noise[np.ix_(comps, comps)], None, cross_integral)
        return signal + noise2 + cross + ends

    if regime == "hy":
        if inputs.timecov is None:
            raise ValueError("hy regime needs the quadratic covariations of times")
        tc = inputs.timecov
        out = T * inputs.stieltjes(tc.g, prod_sum)
        f, h, i_ = tc.channel("24_13")
        for st in (f, h, i_):
            out += T * inputs.stieltjes(st, prod_a)
        f, h, i_ = tc.channel("23_14")
        for st in (f, h, i_):
            out += T * inputs.stieltjes(st, prod_b)
        return out

    if regime == "gms":
        if inputs.lasa is None:
            raise ValueError("gms regime needs the weighted sampling autocorrelation")
        c = inputs.c
        signal = 2.0 * c * T * inputs.stieltjes(inputs.lasa, prod_sum)
        ov, H = inputs.overlap, inputs.noise
        if ov is None or H is None or ov.all_zero():
            return signal
        if inputs.constants is None:
            raise ValueError("gms regime with synchronous overlap needs kernel constants")
        def cross_integral(step, xy):
            return inputs.stieltjes(step, lambda s: s[..., comps[xy[0]], comps[xy[1]]])

        noise2, ends, cross = _noise_addends(inputs.constants, c, H[np.ix_(comps, comps)], ov, cross_integral)
        return signal + noise2 + ends + cross

    raise ValueError(f"unknown regime {regime!r}")


def _global_grids(schemes) -> tuple[SyncGrid, SyncGrid, SyncGrid]:
    """Pairwise refresh grids of schemes (1, 2) and (3, 4), and their global grid."""
    g12 = pairwise_refresh(schemes[0], schemes[1])
    g34 = pairwise_refresh(schemes[2], schemes[3])
    return g12, g34, global_refresh(g12, g34)


def _gms_skeleton(g12: SyncGrid, g34: SyncGrid, glob: SyncGrid, weights: Callable[[int], WeightScheme], c: float):
    """The gms frequencies and signal integrator of four schemes' grids:
    pairwise ``M_12``, ``M_34``, the global-lag ``M = min(M_12 N/N_12,
    M_34 N/N_34)`` (``min(M_12, M_34)`` when synchronous), its ``weights(M)``,
    the half-lag-0 :func:`weighted_lasa_function` of the global grid, and
    ``c = M / sqrt(N)``."""
    N, n12, n34 = len(glob) - 1, len(g12) - 1, len(g34) - 1
    m12, m34 = _ms_frequency(c, n12), _ms_frequency(c, n34)
    mg = _clamp_frequency(min(m12 * N / n12, m34 * N / n34), N)
    w = weights(mg)
    return m12, m34, mg, w, weighted_lasa_function(glob, w), mg / math.sqrt(N)


def hy_theory_inputs(schemes, times: np.ndarray, sigma: np.ndarray) -> tuple[TheoryInputs, dict]:
    """Assemble :class:`TheoryInputs` for the overlap (hy) regime.

    ``schemes`` are the four sampling schemes of the components entering
    the two estimates (order 1, 2, 3, 4).  The quadratic covariations of
    times are computed on their realized global refresh grid; the matching
    empirical normalization is ``N * Cov`` with the returned refresh count.
    """
    g12, g34, glob = _global_grids(schemes)
    bundle = time_covariations(glob)
    inputs = TheoryInputs(times=times, sigma=sigma, timecov=bundle)
    return inputs, {"N": len(glob) - 1, "N12": len(g12) - 1, "N34": len(g34) - 1}


def gms_theory_inputs(
    schemes,
    times: np.ndarray,
    sigma: np.ndarray,
    noise: np.ndarray | None = None,
    c: float = 1.0,
    kernel: str = "cubic",
    with_overlap: bool = False,
) -> tuple[TheoryInputs, dict]:
    """Assemble :class:`TheoryInputs` for the generalized multi-scale regime.

    Multi-scale frequencies are ``M_kl = round(c sqrt(N_kl))`` per pair; the
    weighted sampling autocorrelation is evaluated on the global refresh
    grid with the frequencies converted to global-lag units
    (``M = min(M_12 N/N_12, M_34 N/N_34)``) and the trapezoidal lag-0
    weight, which removes most of the finite-frequency bias of the signal
    term.  The matching empirical normalization is ``sqrt(N) * Cov``.
    """
    g12, g34, glob = _global_grids(schemes)
    N, n12, n34 = len(glob) - 1, len(g12) - 1, len(g34) - 1
    m12, m34, mg, w, lasa, c_eff = _gms_skeleton(g12, g34, glob, EstimatorConfig(kernel=kernel, c=c).weights, c)
    ov = sync_overlap(glob, m12, m34) if with_overlap else None
    inputs = TheoryInputs(
        times=times,
        sigma=sigma,
        noise=noise,
        c=c_eff,
        lasa=lasa,
        overlap=ov,
        constants=kernel_constants(w),
    )
    return inputs, {"N": N, "N12": n12, "N34": n34, "M12": m12, "M34": m34, "M_global": mg}


# ---------------------------------------------------------------------------
# Data-driven asymptotic covariance estimators
# ---------------------------------------------------------------------------


def acov_rc_hat(data: Sequence[TickSeries], pairs) -> float:
    """Adjacent-increment estimator of the realized-covariance asymptotic
    covariance for pairs ``((k, l), (r, q))`` on a common synchronous grid.

    ``n * sum_i [ d_i(k) d_{i+1}(l) d_i(r) d_{i+1}(q)
                  + sym(d_{i+1}(k) d_i(l) d_i(r) d_{i+1}(q)) ]``

    The second addend is symmetrized in the two pairs so that the estimator
    is exactly invariant under pair swap; the one-dimensional case reduces to
    ``2 n sum_i d_i^2 d_{i+1}^2``.  The leading factor ``n`` (rather than
    ``n/T``) makes the estimator consistent for the ``T int ...`` limit at
    every horizon.  The entry comes from the Gram product of the p(p+1)/2
    increment products of all components that :func:`acov_matrix_hat`
    takes (O(p^4 n) time, O(p n + p^4) memory), so it has that matrix's
    bits; it differs from the term-by-term sum by rounding, within 1e-12 of
    the sum of its absolute terms.
    """
    _pair_components(pairs, len(data))
    return float(_acov_entries(data, "rc", pairs, None)[0][0, 1])


@functools.lru_cache(maxsize=32)
def _svec_slots(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The svec layout of p components as read-only tables: the 0-based row
    of each of the q = p(p+1)/2 slots, and the (p, p) matrix whose entries
    (a, b) and (b, a) hold the slot of 0-based (a, b), ``svec_index(p, a +
    1, b + 1)`` for a <= b.  Cached, so every call at one p shares them."""
    ka, kb = np.triu_indices(p)
    slot = np.empty((p, p), dtype=np.intp)
    slot[ka, kb] = slot[kb, ka] = np.arange(ka.size)
    for table in (ka, slot):
        table.flags.writeable = False
    return ka, slot


def _rc_acov(d: np.ndarray, pairs) -> np.ndarray:
    """:func:`acov_rc_hat` for every two of the 1-based ``pairs``, from the
    (p, n) increment matrix ``d`` of :func:`_sync_increments`.  The
    q = p(p+1)/2 product rows ``P[slot(a, b)] = d_a d_b`` (a <= b, in svec
    order; ``slot`` is the cached table of :func:`_svec_slots`) give ``G =
    sum_i P[:, i] P[:, i+1]^T``, which holds ``S[a, b, c, e] = sum_i d_i(a)
    d_i(b) d_{i+1}(c) d_{i+1}(e)`` at ``G[slot(a, b), slot(c, e)]``; entry ``((k, l), (r, q))``, with each pair put in k <= l
    order (est_kl = est_lk), is ``n (S[k, r, l, q] + (S[l, r, k, q] +
    S[k, q, l, r]) / 2)``.  G takes one matrix product per chunk of at most
    ``max(2, p n // q)`` columns, so the product rows never hold more values
    than ``d``: memory O(p n + q^2).  Consecutive chunks share one column, so
    each adjacent pair (i, i+1) counts once.  G adds in BLAS order, so an
    entry differs from its term-by-term sum by rounding (within 1e-12 of
    the sum of its absolute terms).  The q x q result is exactly symmetric
    as it stands: swapping the two pairs maps the first G slot of an entry
    onto itself and the two G slots of its second addend onto each other.
    Each chunk's product is one BLAS call, which OpenBLAS splits over
    threads unless capped.
    """
    p, n = d.shape
    ka, slot = _svec_slots(p)
    w = max(2, p * n // ka.size)
    P, G = np.empty((ka.size, w)), np.zeros((ka.size, ka.size))
    for s in range(0, n - 1, w - 1):
        c = d[:, s : s + w]
        m = c.shape[1]
        for a in range(p):  # rows slot(a, a..p-1) = d_a d_a..p-1
            np.multiply(c[a:], c[a], out=P[slot[a, a] : slot[a, a] + p - a, :m])
        G += P[:, : m - 1] @ P[:, 1:m].T
    k, l = np.sort(np.array(pairs) - 1, axis=1).T[:, :, None]  # each pair in k <= l order
    r, q = k.T, l.T
    return n * (G[slot[k, r], slot[l, q]] + 0.5 * (G[slot[l, r], slot[k, q]] + G[slot[k, q], slot[l, r]]))


@dataclass(frozen=True)
class GmsAcovConfig:
    """Tuning for the histogram asymptotic-covariance estimator.

    ``bins`` overrides the default ``K_N = max(2, round(N^(1/5)))``;
    ``include_noise_terms=False`` hard-zeroes the synchronous-overlap noise
    addends (they already evaluate to 0 on fully asynchronous schemes).
    """

    kernel: str = "cubic"
    c: float = 1.0
    bins: int | None = None
    include_noise_terms: bool = True

    def __post_init__(self) -> None:
        _check_c(self.c)


def _bin_edges_from_step(step: StepFunction, K: int, T: float) -> np.ndarray:
    """Time points where the step function first reaches j/K of its total."""
    total = step.total
    levels = np.arange(1, K + 1) * total / K
    idx = np.minimum(np.searchsorted(step.values, levels * (1 - 1e-12), side="left"), step.breakpoints.size - 1)
    edges = np.concatenate([[0.0], step.breakpoints[idx]])
    edges[-1] = T
    return edges


def _bracket_bins(k: int, l: int, edges: np.ndarray, m_bin: int, plan: _AcovPlan) -> np.ndarray:
    """End-effect adjusted generalized multi-scale bracket increment
    estimates per bin, of components k and l of ``plan.data``.

    Bin j holds the ticks in ``(edges[j], edges[j+1]]`` and is estimated on
    the refresh merge of those ticks, with the weights ``plan.weights(M)``
    at ``M = m_bin``, or at ``M = N`` when the bin has fewer refresh
    intervals N than ``m_bin``.
    A bin with fewer than 3 ticks of either series or fewer than 2 refresh
    intervals contributes 0.

    Per-bin frequencies are of order N^(3/5) on bins of order N^(4/5)
    observations, so the multi-scale finite-sample factor
    ``(N + 1 - sum_i a_i i) / N`` is far from 1 (about ``1 - M/N``); each
    bin estimate is divided by it, which makes the synchronous-case bracket
    exactly unbiased, and a bin whose factor is not positive contributes 0.
    The coefficients and factors come from :meth:`_AcovPlan.bin_coefficients`.

    Cost: no merge and no tick search; everything is read off the pair's
    stamp union (:meth:`_AcovPlan.union`).  One ``searchsorted`` of the
    K + 1 edges in its stamps and a gather from its tick counts give the
    bin windows, one :meth:`hficov.sampling._StampUnion.fire` pass the
    refresh times of all bins (the bin is the segment), gathers from the
    same counts the index maps, and one :func:`hficov.estimators._lag_sums`
    call on the bracket's four skeleton rows (next a, next b, previous a,
    previous b) sums every bin."""
    a, b, union = plan.data[k], plan.data[l], plan.union(k, l)
    ia, ib = union.count.take(union.stamps.searchsorted(edges, "right"), axis=1)
    pos, bounds = union.fire(ia, ib)
    n_bin = bounds[1:] - bounds[:-1] - 1
    out = np.zeros(edges.size - 1)
    bins = []
    for j in np.flatnonzero((ia[1:] - ia[:-1] >= 3) & (ib[1:] - ib[:-1] >= 3) & (n_bin >= 2)).tolist():
        N = int(n_bin[j])
        coefs, c1, c2, finite_factor = plan.bin_coefficients(min(m_bin, N), N)
        if finite_factor > 0:
            bins.append((j, int(bounds[j]), N + 1, coefs, c1, c2, finite_factor))
    if not bins:
        return out
    j, lo, n1, coefs, c1, c2, factors = zip(*bins)
    s0 = lo[0]
    nxt, prv = union.maps(pos[s0 : lo[-1] + n1[-1]])
    V = np.empty((4, nxt.shape[1]))  # next a, next b, previous a, previous b
    for row, x, i in zip(V, (a, b, a, b), (*nxt, *prv)):
        x.values.take(i, out=row)
    starts, n1, M = np.array(lo) - s0, np.array(n1), np.array([c.size for c in coefs])
    C = np.zeros((int(M.max()), M.size))  # a_i / i of bin u at scale i is C[i - 1, u]
    C.T[np.arange(C.shape[0]) < M[:, None]] = np.concatenate(coefs)
    C[0], C[1] = c1, c2  # M >= 2
    out[list(j)] = _lag_sums(V, starts, n1, C) / np.array(factors)
    return out


def acov_gms_hat(
    data: Sequence[TickSeries],
    pairs,
    config: GmsAcovConfig | None = None,
) -> float:
    """Histogram estimator of the generalized multi-scale asymptotic
    covariance for component pairs ``((k, l), (r, q))`` (1-based).

    Bins are equidistant in the realized weighted sampling autocorrelation
    ``D_N`` of the global refresh grid of the four components; on each bin
    the four cross brackets ``[k, r], [l, q], [k, q], [l, r]`` are estimated
    by adjusted generalized multi-scale with per-bin frequency
    ``round(N^(3/5))``, and combined as

    ``2 c T sum_j (D_kr D_lq + D_kq D_lr)/(dt_j)^2 * D_N(T)/K``.

    When the schemes share timestamps, the noise addends are included with
    the synchronous-overlap counts, the synchronous-case slot constants, and
    bins equidistant in the shared-timestamp counting functions; on fully
    disjoint schemes every one of them is exactly zero.

    Cost: at most eight brackets per entry, each one pass over its bins
    (:func:`_bracket_bins`) and one lag sum of its four skeleton rows,
    summed in a lag block or, for a large bracket, by transform; either
    differs from a scale loop per bin by rounding.
    Each entry merges its two pairwise grids once more for its global grid,
    whose index maps it never reads.  :func:`acov_matrix_hat` and
    :func:`hficov.citest.ci_test` evaluate all their entries on one
    per-call plan, which builds each component pair's stamp union once and
    reads every pairwise grid, bracket front end, shared stamp and overlap
    count of that pair off it; noise moments, weight schemes and brackets
    are also built once for all entries.  No front end runs a binary search
    over ticks.
    """
    return _gms_entry(data, pairs, _AcovPlan(data, config))


class _AcovPlan:
    """What the gms entries of one acov call share, each built on first use:

    * the stamp union (:class:`hficov.sampling._StampUnion`) per component
      pair, built once and read in either order;
    * the pairwise refresh grid per ordered component pair, read off the
      union;
    * the entries of :func:`hficov.estimators.noise_moments`, per component
      and per ordered component pair (a repeated component included);
    * the weight schemes, their :func:`kernel_constants` and their
      coefficients ``a_i / i`` by ``M``, and the end-adjusted bin
      coefficients and finite-sample factor by ``(M, N)``;
    * the :func:`_bracket_bins` arrays, keyed by unordered 0-based
      component pair, bin-edge bytes and bin frequency (the bracket is
      symmetric in its two series).

    Components are 0-based indices into ``data``.  A plan lives for one
    call; nothing is kept across calls.
    """

    def __init__(self, data: Sequence[TickSeries], config: EstimatorConfig | GmsAcovConfig | None) -> None:
        self.data = data
        self.cfg = config if isinstance(config, GmsAcovConfig) else GmsAcovConfig(
            kernel=getattr(config, "kernel", "cubic"), c=getattr(config, "c", 1.0)
        )
        self.est_cfg = EstimatorConfig(kernel=self.cfg.kernel, c=self.cfg.c)
        self._built: dict = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def union(self, k: int, l: int) -> _StampUnion:
        """Stamp union of components k and l, in that order."""
        if k > l:
            return self._once(("union", k, l), lambda: self.union(l, k).flipped())
        return self._once(("union", k, l), lambda: _StampUnion(self.data[k].scheme.times, self.data[l].scheme.times))

    def grid(self, k: int, l: int) -> SyncGrid:
        """Pairwise refresh grid of components k and l, in that order."""
        return self._once(("grid", k, l), lambda: _pair_grid(self.union(k, l), self.data[k].scheme, self.data[l].scheme))

    def weights(self, M: int) -> WeightScheme:
        return self._once(("weights", M), lambda: self.est_cfg.weights(M))

    def constants(self, M: int) -> KernelConstants:
        return self._once(("constants", M), lambda: kernel_constants(self.weights(M)))

    def bin_coefficients(self, M: int, N: int) -> tuple[np.ndarray, float, float, float]:
        """The coefficients ``a_i / i`` of ``weights(M)``, the first two of
        them after the end-effect adjustment at ``N``, and the finite-sample
        factor ``(N + 1 - sum_i a_i i) / N`` of the adjusted weights (see
        :func:`_bracket_bins`)."""
        w = self.weights(M)

        def adjusted():
            adj = _end_adjusted(w.alphas, N)
            return adj[0], adj[1] / 2, (N + 1 - float(np.sum(adj * w.scales))) / N

        return self._once(("coefs", M), lambda: w.alphas / w.scales), *self._once(("adjusted", M, N), adjusted)

    def noise(self, idx: Sequence[int]) -> np.ndarray:
        """``noise_moments([data[v] for v in idx]).h_hat``; a pair's shared
        timestamps are read off its stamp union (:meth:`union`)."""
        H = np.diag([self._once(("noise", v), lambda: _noise_variance(self.data[v])) for v in idx])
        for x, y in itertools.combinations(range(len(idx)), 2):
            k, l = idx[x], idx[y]
            H[x, y] = H[y, x] = self._once(
                ("noise", k, l), lambda: _noise_covariance(self.data[k], self.data[l], self.union(k, l))
            )
        return H

    def bracket(self, k: int, l: int, edges: np.ndarray, m_bin: int) -> np.ndarray:
        """The per-bin brackets of components k and l (see :func:`_bracket_bins`)."""
        key = ("bracket", min(k, l), max(k, l), edges.tobytes(), m_bin)
        return self._once(key, lambda: _bracket_bins(k, l, edges, m_bin, self))

    def entries(self, pairs_list) -> list[float]:
        """:func:`acov_gms_hat` of each item of ``pairs_list``, in order."""
        return [_gms_entry(self.data, pairs, self) for pairs in pairs_list]


def _gms_entry(data: Sequence[TickSeries], pairs, plan: _AcovPlan) -> float:
    """:func:`acov_gms_hat` on the grids, moments, weights and brackets of ``plan``."""
    cfg = plan.cfg
    idx = _pair_components(pairs, len(data))
    g12, g34 = plan.grid(idx[0], idx[1]), plan.grid(idx[2], idx[3])
    glob = global_refresh(g12, g34)
    N = len(glob) - 1
    if N < 8:
        raise ValueError("too few global refresh times for the histogram estimator")
    K = cfg.bins if cfg.bins is not None else max(2, int(round(N ** 0.2)))
    if K < 2:
        raise ValueError("need at least 2 bins")
    T = glob.horizon

    M12, M34, _, w_glob, lasa, c_eff = _gms_skeleton(g12, g34, glob, plan.weights, cfg.c)
    m_bin = max(2, int(round(N ** 0.6)))

    def bracket(x: int, y: int, edges: np.ndarray) -> np.ndarray:
        return plan.bracket(idx[x], idx[y], edges, m_bin)

    # half-bin split: products of bracket estimates on the same data are
    # biased upward by the estimates' covariance, so each bin is halved (in
    # the autocorrelation measure) and only cross-half products are used --
    # disjoint data makes them conditionally unbiased for the local
    # spot-covariance products
    half_edges = _bin_edges_from_step(lasa, 2 * K, T)
    kr, lq, kq, lr = (bracket(x, y, half_edges) for x, y in ((0, 2), (1, 3), (0, 3), (1, 2)))
    dt_half = np.diff(half_edges)
    a, b = slice(0, 2 * K, 2), slice(1, 2 * K, 2)
    denom = 2.0 * dt_half[a] * dt_half[b]
    cross = kr[a] * lq[b] + kr[b] * lq[a] + kq[a] * lr[b] + kq[b] * lr[a]
    with np.errstate(divide="ignore", invalid="ignore"):
        per_bin = np.where(denom > 0, cross / denom, 0.0)
    first = 2.0 * c_eff * T * float(np.sum(per_bin)) * lasa.total / K

    if not cfg.include_noise_terms:
        return first
    ov = _sync_overlap(glob, M12, M34, [plan.union(idx[x], idx[y]) for x, y in ((0, 2), (0, 3), (1, 2), (1, 3))])
    if ov.all_zero():
        return first

    def binned_integral(step: StepFunction, xy: tuple[int, int]) -> float:
        if step.total == 0.0:
            return 0.0
        se = _bin_edges_from_step(step, K, T)
        sdt = np.diff(se)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(sdt > 0, bracket(*xy, se) / sdt, 0.0)
        return float(np.sum(vals)) * step.total / K

    noise2, ends, cross = _noise_addends(plan.constants(w_glob.M), c_eff, plan.noise(idx), ov, binned_integral)
    return first + noise2 + ends + cross


# ---------------------------------------------------------------------------
# Full-matrix assembly, linear combinations, standardization
# ---------------------------------------------------------------------------


_RATES = ("sqrt_n", "n_quarter")


def _rate_sq(rate: str, n: float) -> float:
    if rate == "sqrt_n":
        return float(n)
    if rate == "n_quarter":
        return float(math.sqrt(n))
    raise ValueError(f"unknown rate {rate!r}")


@dataclass(frozen=True)
class AcovMatrix:
    """Estimated asymptotic covariance of the svec-packed estimates.

    ``entries`` is the symmetric q x q matrix on a common normalization:
    entry (a, b) estimates ``rate(n_ref)^2 * Cov(est_a, est_b)``, where
    ``n_ref`` is the reference sample size recorded alongside.  Entries
    whose own estimator was normalized to a different refresh count were
    rescaled by ``rate(n_ref)^2 / rate(N_ab)^2``.  ``raw()`` recovers plain
    covariance estimates.
    """

    entries: np.ndarray
    rate: str
    n_ref: float
    p: int

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        q = self.p * (self.p + 1) // 2
        if e.shape != (q, q):
            raise ValueError(f"entries must be {q} x {q} for p={self.p}")
        if self.rate not in _RATES:
            raise ValueError(f"rate must be one of {_RATES}")

    @property
    def q(self) -> int:
        return self.p * (self.p + 1) // 2

    def raw(self) -> np.ndarray:
        """Plain (unnormalized) covariance estimates of the svec entries."""
        return self.entries / _rate_sq(self.rate, self.n_ref)

    def entry(self, pair_a: tuple[int, int], pair_b: tuple[int, int]) -> float:  # a pair in either order: est_kl = est_lk
        a = svec_index(self.p, *sorted(pair_a))
        b = svec_index(self.p, *sorted(pair_b))
        return float(self.entries[a, b])


def acov_matrix_hat(
    data: Sequence[TickSeries],
    method: str,
    config: EstimatorConfig | GmsAcovConfig | None = None,
) -> AcovMatrix:
    """Estimate the full q x q asymptotic covariance matrix of the svec
    entries (q = p(p+1)/2) for estimates produced by ``method``.

    ``rc`` uses the adjacent-increment estimator (rate ``sqrt_n``, n_ref =
    common grid size).  ``ms``/``kernel``/``gms`` use the histogram
    estimator (rate ``n_quarter``, n_ref = global refresh count of all
    components); heterogeneous per-entry refresh counts are brought to the
    common normalization.  A data-driven estimator for the pure overlap
    regime is not provided; use :func:`acov_theory` with the realized
    quadratic covariations of times instead.
    """
    p = len(data)
    entries, rate, n_ref = _acov_entries(data, method, svec_pairs(p), config)
    return AcovMatrix(entries=entries, rate=rate, n_ref=n_ref, p=p)


def _acov_entries(
    data: Sequence[TickSeries],
    method: str,
    pairs,
    config,
    plan: _AcovPlan | None = None,
    incs: np.ndarray | None = None,
) -> tuple[np.ndarray, str, float]:
    """Entries of :func:`acov_matrix_hat` among the 1-based ``pairs`` (k <= l),
    in their order, with the rate and n_ref.  The rc entries come from
    ``incs``, the :func:`_sync_increments` of ``data``, or a new one.  The
    gms entries share one :class:`_AcovPlan` (``plan``, or a new one for
    ``config``); each is evaluated with its pairs in svec order, since the
    noise-slot estimates of :func:`acov_gms_hat` depend on the pair order."""
    if method == "rc":
        if incs is None:
            incs = _sync_increments(data, "the rc asymptotic covariance requires synchronous schemes")
        return _rc_acov(incs, pairs), "sqrt_n", float(incs.shape[1])
    if method not in ("ms", "kernel", "gms"):
        raise ValueError(f"no data-driven asymptotic covariance estimator for method {method!r}")
    plan = plan or _AcovPlan(data, config)
    n_ref = _union_refresh_count(data, tuple(range(1, len(data) + 1)))
    qn = len(pairs)
    cells = [(a, b) for a in range(qn) for b in range(a, qn)]
    entry_pairs = [tuple(sorted((pairs[a], pairs[b]))) for a, b in cells]  # svec order
    ent = np.zeros((qn, qn))
    counts: dict = {}  # refresh count per set of components
    for (a, b), (pa, pb), val in zip(cells, entry_pairs, plan.entries(entry_pairs)):
        comps = frozenset(pa + pb)
        if comps not in counts:
            counts[comps] = _union_refresh_count(data, pa + pb)
        n_ab = counts[comps]
        ent[a, b] = ent[b, a] = val * (_rate_sq("n_quarter", n_ref) / _rate_sq("n_quarter", n_ab))
    return ent, "n_quarter", n_ref


def _union_refresh_count(data: Sequence[TickSeries], comps: tuple[int, ...]) -> int:
    """Refresh count of the distinct 1-based components, merged one at a
    time in increasing order (a single component counts its own ticks)."""
    uniq = sorted(set(comps))
    times = data[uniq[0] - 1].scheme.times
    for v in uniq[1:]:
        times = _refresh_merge(times, data[v - 1].scheme.times)
        if times.size == 0:
            raise ValueError("schemes produce no refresh times (disjoint tick ranges)")
    return times.size - 1


def lincomb_avar(coeffs: np.ndarray, acov: AcovMatrix) -> float:
    """Asymptotic variance of ``Z = sum_{k,l} c_k c_l est_kl``.

    Expands to ``sum c_k c_kt c_l c_lt * ACOV(est_(kt,lt), est_(k,l))`` over
    all ordered index quadruples; symmetric svec entries carry the
    off-diagonal multiplicity automatically.
    """
    w = np.asarray(coeffs, dtype=float)
    p = acov.p
    if w.size != p:
        raise ValueError(f"need {p} coefficients")
    # weight of svec entry (k, l): c_k c_l for k = l, 2 c_k c_l for k < l
    wv = np.empty(acov.q)
    for i, (k, l) in enumerate(svec_pairs(p)):
        wv[i] = w[k - 1] * w[l - 1] * (1.0 if k == l else 2.0)
    return float(wv @ acov.entries @ wv)


def standardize(z_value: float, target: float, avar: float, rate: str, n: float) -> float:
    """Feasible-CLT standardization ``r_n (Z - target) / sqrt(avar)``.

    ``avar`` must be on the matching ``r_n^2`` normalization (as produced by
    :func:`lincomb_avar` on an :class:`AcovMatrix` with ``n_ref = n``).
    Raises on a nonpositive or non-finite variance estimate rather than
    flooring it or returning a statistic that reads as not significant.
    """
    if not (math.isfinite(avar) and avar > 0.0):
        raise ValueError(f"asymptotic variance estimate must be finite and positive, got {avar!r}")
    r = math.sqrt(_rate_sq(rate, n))
    return float(r * (z_value - target) / math.sqrt(avar))
