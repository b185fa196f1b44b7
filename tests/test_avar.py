import collections
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hficov.avar as avar_module
import hficov.estimators as estimators_module
import hficov.sampling as sampling_module
from hficov.avar import (
    AcovMatrix,
    GmsAcovConfig,
    TheoryInputs,
    _AcovPlan,
    _bracket_bins,
    _svec_slots,
    _union_refresh_count,
    acov_gms_hat,
    acov_matrix_hat,
    acov_rc_hat,
    acov_theory,
    dimension_identity,
    gms_theory_inputs,
    hy_theory_inputs,
    isserlis_cov,
    lincomb_avar,
    standardize,
)
from hficov.estimators import (
    EstimatorConfig,
    TickSeries,
    _lag_sums,
    _same_times,
    estimate_matrix,
    generalized_multiscale,
    noise_moments,
    svec_index,
    svec_pack,
    svec_pairs,
    svec_unpack,
)
from hficov.citest import ci_test
from hficov.kernels import cubic_weights, end_effect_adjust, kernel_constants
from hficov.sampling import SamplingScheme, pairwise_refresh

from oracles import abs_terms, acov_rc_oracle, isserlis_mc_oracle, multiscale_sum_loop, noise_moments_oracle


def series(times, values, T=1.0):
    return TickSeries(SamplingScheme(np.asarray(times, float), T), np.asarray(values, float))


# ---------------------------------------------------------------------
# Isserlis moment identity
# ---------------------------------------------------------------------
def test_isserlis_identity_matrix():
    eye = np.eye(4)
    assert isserlis_cov(eye, (1, 2, 1, 2)) == 1.0
    assert isserlis_cov(eye, (1, 2, 3, 4)) == 0.0


def test_isserlis_symmetries():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    sigma = m @ m.T
    for idx in ((1, 2, 3, 4), (1, 1, 2, 3), (2, 4, 4, 1)):
        i, l, m_, u = idx
        base = isserlis_cov(sigma, idx)
        assert isserlis_cov(sigma, (l, i, m_, u)) == base
        assert isserlis_cov(sigma, (i, l, u, m_)) == base
        assert isserlis_cov(sigma, (m_, u, i, l)) == base


def test_isserlis_against_monte_carlo():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4))
    sigma = m @ m.T + 0.5 * np.eye(4)
    idx = (1, 2, 1, 3)
    draws = 1_000_000
    mc = isserlis_mc_oracle(sigma, idx, draws, rng)
    exact = isserlis_cov(sigma, idx)
    # rough standard error of the MC covariance estimate
    se = 4 * np.max(np.abs(sigma)) ** 2 / math.sqrt(draws) * 3
    assert abs(mc - exact) < 3 * se


def test_isserlis_index_range():
    with pytest.raises(IndexError):
        isserlis_cov(np.eye(3), (1, 2, 3, 4))


# ---------------------------------------------------------------------
# svec layout and dimension identity
# ---------------------------------------------------------------------
def test_svec_index_examples():
    assert svec_index(4, 1, 2) == 1
    assert svec_index(4, 1, 1) == 0
    assert svec_index(4, 2, 2) == 4
    with pytest.raises(ValueError):
        svec_index(4, 2, 1)


def test_svec_roundtrip_and_order():
    rng = np.random.default_rng(2)
    for p in (1, 2, 5, 7):
        m = rng.standard_normal((p, p))
        m = m + m.T
        v = svec_pack(m)
        assert v.size == p * (p + 1) // 2
        np.testing.assert_array_equal(svec_unpack(v), m)
        for pos, (k, l) in enumerate(svec_pairs(p)):
            assert svec_index(p, k, l) == pos
            assert v[pos] == m[k - 1, l - 1]


def test_svec_slots_are_the_svec_layout_read_only():
    for p in range(1, 13):
        ka, slot = _svec_slots(p)
        assert _svec_slots(p)[1] is slot  # one cached table per p
        for k, l in svec_pairs(p):
            assert slot[k - 1, l - 1] == slot[l - 1, k - 1] == svec_index(p, k, l)
            assert ka[svec_index(p, k, l)] == k - 1
        assert ka.size == p * (p + 1) // 2
        for table in (ka, slot):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1


def test_svec_p5_counts():
    assert len(svec_pairs(5)) == 15
    q = 15
    assert q * (q + 1) // 2 == 120


def test_dimension_identity_exact():
    for p in range(1, 11):
        lhs, rhs = dimension_identity(p)
        assert lhs == rhs
    assert dimension_identity(5) == (120, 120)


# ---------------------------------------------------------------------
# Closed-form asymptotic covariances
# ---------------------------------------------------------------------
def _const_inputs(sigma, **kw):
    return TheoryInputs(times=np.array([0.0, 1.0]), sigma=sigma, **kw)


def test_acov_theory_rc_identity_cases():
    inputs = _const_inputs(np.eye(4))
    assert acov_theory(inputs, "rc", ((1, 2), (3, 4))) == 0.0
    assert acov_theory(inputs, "rc", ((1, 2), (1, 2))) == pytest.approx(1.0)


def test_acov_theory_ms_sync_matches_independent_transcription():
    # independent transcription of the one-dimensional variance formula:
    # 2cT int D'(s)(s11 s22 + s12^2) ds + 2 n1 c^-3 (e1^2 e2^2 + e12^2)
    # + 2 n2 c^-1 int (e1^2 s22 + e2^2 s11 + 2 e12 s12) ds
    # + 2 n2 c^-1 (e1^2 e2^2 + e12^2)
    sig = np.array([[4e-4, 1.2e-4], [1.2e-4, 2.5e-4]])
    H = np.array([[2.5e-7, 1e-7], [1e-7, 4e-7]])
    kc = kernel_constants(cubic_weights(500))
    c = 1.3
    inputs = _const_inputs(sig, noise=H, c=c, constants=kc)
    got = acov_theory(inputs, "ms_sync", ((1, 2), (1, 2)))
    slope = kc.lasa_slope
    expect = (
        2 * c * slope * (sig[0, 0] * sig[1, 1] + sig[0, 1] ** 2)
        + 2 * kc.n1 * c**-3 * (H[0, 0] * H[1, 1] + H[0, 1] ** 2)
        + 2 * kc.n2 * c**-1 * (H[0, 0] * sig[1, 1] + H[1, 1] * sig[0, 0] + 2 * H[0, 1] * sig[0, 1])
        + 2 * kc.n2 * c**-1 * (H[0, 0] * H[1, 1] + H[0, 1] ** 2)
    )
    assert got == pytest.approx(expect, rel=1e-12)


def _poisson_scheme(rng, n, endpoints=True):
    t = np.sort(rng.uniform(0, 1, rng.poisson(n)))
    if endpoints:
        t = np.unique(np.concatenate([[0.0], t, [1.0]]))
    return SamplingScheme(t, 1.0)


def _overlap_matrix(sa, sb):
    lo = np.maximum(sa.times[:-1][:, None], sb.times[:-1][None, :])
    hi = np.minimum(sa.times[1:][:, None], sb.times[1:][None, :])
    return np.maximum(hi - lo, 0.0)


def test_acov_theory_hy_equals_exact_gaussian_covariance():
    rng = np.random.default_rng(3)
    vols = np.array([0.02, 0.015, 0.018, 0.012])
    corr = np.array([[1, .6, .4, .3], [.6, 1, .5, .35], [.4, .5, 1, .45], [.3, .35, .45, 1.0]])
    sig = np.diag(vols) @ corr @ np.diag(vols)
    schemes = [_poisson_scheme(rng, 250) for _ in range(4)]
    inputs, meta = hy_theory_inputs(schemes, np.array([0.0, 1.0]), sig)
    theo = acov_theory(inputs, "hy", ((1, 2), (3, 4)))

    def exact_cov(s1, s2, s3, s4, s13, s24, s14, s23):
        A = (_overlap_matrix(s1, s2) > 0).astype(float)
        B = (_overlap_matrix(s3, s4) > 0).astype(float)
        t1 = np.trace(A.T @ (s13 * _overlap_matrix(s1, s3)) @ B @ (s24 * _overlap_matrix(s2, s4)).T)
        t2 = np.trace(A @ (s23 * _overlap_matrix(s2, s3)) @ B @ (s14 * _overlap_matrix(s1, s4)).T)
        return t1 + t2

    exact = meta["N"] * exact_cov(*schemes, sig[0, 2], sig[1, 3], sig[0, 3], sig[1, 2])
    assert theo == pytest.approx(exact, rel=1e-9)


def _gms_quadratic_form(grid, alphas):
    n1 = len(grid.source_schemes[0])
    n2 = len(grid.source_schemes[1])
    Q = np.zeros((n1, n2))
    up1, lo1 = grid.next_idx[0], grid.prev_idx[0]
    up2, lo2 = grid.next_idx[1], grid.prev_idx[1]
    for i in range(1, len(alphas) + 1):
        w = alphas[i - 1] / i
        np.add.at(Q, (up1[i:], up2[i:]), w)
        np.add.at(Q, (lo1[:-i], lo2[:-i]), w)
        np.add.at(Q, (up1[i:], lo2[:-i]), -w)
        np.add.at(Q, (lo1[:-i], up2[i:]), -w)
    return Q


def test_acov_theory_gms_close_to_exact_gaussian_covariance():
    rng = np.random.default_rng(4)
    vols = np.array([0.02, 0.016, 0.018, 0.015])
    corr = np.full((4, 4), 0.65)
    np.fill_diagonal(corr, 1.0)
    sig = np.diag(vols) @ corr @ np.diag(vols)
    schemes = [_poisson_scheme(rng, 1500, endpoints=False) for _ in range(4)]
    inputs, meta = gms_theory_inputs(schemes, np.array([0.0, 1.0]), sig)
    theo = acov_theory(inputs, "gms", ((1, 2), (3, 4)))
    g12 = pairwise_refresh(schemes[0], schemes[1])
    g34 = pairwise_refresh(schemes[2], schemes[3])
    Q12 = _gms_quadratic_form(g12, cubic_weights(meta["M12"]).alphas)
    Q34 = _gms_quadratic_form(g34, cubic_weights(meta["M34"]).alphas)

    def bm(sa, sb, s):
        return s * np.minimum(sa.times[:, None], sb.times[None, :])

    exact = math.sqrt(meta["N"]) * (
        np.trace(Q12.T @ bm(schemes[0], schemes[2], sig[0, 2]) @ Q34 @ bm(schemes[1], schemes[3], sig[1, 3]).T)
        + np.trace(Q12 @ bm(schemes[1], schemes[2], sig[1, 2]) @ Q34 @ bm(schemes[0], schemes[3], sig[0, 3]).T)
    )
    assert theo == pytest.approx(exact, rel=0.06)


def test_acov_theory_gms_zero_overlap_is_single_term():
    rng = np.random.default_rng(5)
    sig = np.diag([1e-4, 2e-4, 1.5e-4, 1.2e-4])
    schemes = [_poisson_scheme(rng, 200, endpoints=False) for _ in range(4)]
    H = 1e-7 * np.eye(4)
    with_noise, _ = gms_theory_inputs(schemes, np.array([0.0, 1.0]), sig, noise=H, with_overlap=True)
    without, _ = gms_theory_inputs(schemes, np.array([0.0, 1.0]), sig, noise=None)
    a = acov_theory(with_noise, "gms", ((1, 2), (3, 4)))
    b = acov_theory(without, "gms", ((1, 2), (3, 4)))
    assert a == b


def test_acov_theory_unknown_regime():
    with pytest.raises(ValueError):
        acov_theory(_const_inputs(np.eye(2)), "qmle", ((1, 2), (1, 2)))


# ---------------------------------------------------------------------
# Adjacent-increment estimator
# ---------------------------------------------------------------------
def _sync_data(rng, p, n):
    t = np.linspace(0, 1, n + 1)
    return [series(t, rng.standard_normal(n + 1).cumsum() * 0.01) for _ in range(p)]


def test_acov_rc_hat_one_dimensional_form():
    rng = np.random.default_rng(6)
    data = _sync_data(rng, 1, 50)
    d = data[0].increments()
    n = d.size
    expect = 2 * n * np.sum(d[:-1] ** 2 * d[1:] ** 2)
    assert acov_rc_hat(data, ((1, 1), (1, 1))) == pytest.approx(expect, rel=1e-12)


def test_acov_rc_hat_pair_swap_exact():
    rng = np.random.default_rng(7)
    data = _sync_data(rng, 4, 40)
    a = acov_rc_hat(data, ((1, 2), (3, 4)))
    b = acov_rc_hat(data, ((3, 4), (1, 2)))
    assert a == b


def test_acov_rc_hat_ignores_the_order_within_a_pair():
    # est_kl = est_lk, so ((2, 1), (3, 4)) is the entry ((1, 2), (3, 4)) of
    # the matrix, bit for bit, and the matrix takes either order
    rng = np.random.default_rng(0)
    data = _sync_data(rng, 4, 200)
    am = acov_matrix_hat(data, "rc")
    want = am.entry((1, 2), (3, 4))
    for pairs in (((1, 2), (3, 4)), ((2, 1), (3, 4)), ((1, 2), (4, 3)), ((2, 1), (4, 3))):
        assert acov_rc_hat(data, pairs) == want
        assert am.entry(*pairs) == want


def test_acov_rc_hat_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        data = _sync_data(rng, 4, n)
        incs = [list(s.increments()) for s in data]
        idx = tuple(int(v) for v in rng.integers(1, 5, size=4))
        got = acov_rc_hat(data, ((idx[0], idx[1]), (idx[2], idx[3])))
        exp = acov_rc_oracle(incs, *idx)
        assert got == pytest.approx(exp, rel=1e-12, abs=1e-18)


def test_component_range_checked_by_every_acov():
    rng = np.random.default_rng(9)
    data = _sync_data(rng, 3, 60)
    for bad in (((0, 1), (1, 1)), ((1, 1), (1, 4))):
        with pytest.raises(IndexError, match="out of range 1..3"):
            acov_rc_hat(data, bad)
        with pytest.raises(IndexError, match="out of range 1..3"):
            acov_gms_hat(data, bad)
        with pytest.raises(IndexError, match="out of range 1..3"):
            acov_theory(_const_inputs(np.eye(3)), "rc", bad)


def test_acov_rc_hat_requires_synchronous():
    rng = np.random.default_rng(9)
    a = series(np.sort(np.concatenate([[0, 1.0], rng.uniform(0, 1, 10)])), rng.standard_normal(12))
    b = series(np.sort(np.concatenate([[0, 1.0], rng.uniform(0, 1, 11)])), rng.standard_normal(13))
    with pytest.raises(ValueError):
        acov_rc_hat([a, b], ((1, 2), (1, 2)))
    with pytest.raises(ValueError, match="rc asymptotic covariance requires synchronous"):
        acov_matrix_hat([a, b], "rc")


def entrywise_acov_rc(data, pairs):
    """Reference: one adjacent-increment rc acov entry, computed on its own."""
    k, l, r, q = (v - 1 for pair in pairs for v in pair)
    if not _same_times([s.scheme for s in data]):
        raise ValueError("requires synchronous schemes")
    dk, dl, dr, dq = (data[v].increments() for v in (k, l, r, q))
    n = dk.size
    t1 = np.sum((dk[:-1] * dl[1:]) * (dr[:-1] * dq[1:]))
    t2 = 0.5 * (np.sum((dk[1:] * dl[:-1]) * (dr[:-1] * dq[1:])) + np.sum((dr[1:] * dq[:-1]) * (dk[:-1] * dl[1:])))
    return float(n * (t1 + t2))


@st.composite
def sync_increments(draw):
    p = draw(st.integers(1, 6))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 80)))
    scale = draw(st.sampled_from([1e-4, 1.0, 3e3]))
    incs = draw(
        st.lists(
            st.lists(st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False), min_size=n, max_size=n),
            min_size=p,
            max_size=p,
        )
    )
    t = np.linspace(0.0, 1.0, n + 1)
    return [series(t, np.concatenate([[0.0], np.cumsum(np.asarray(d, float) * scale)])) for d in incs]


@settings(max_examples=300)
@given(sync_increments())
def test_acov_matrix_hat_rc_equals_entrywise_reference(data):
    e = acov_matrix_hat(data, "rc").entries
    plist = svec_pairs(len(data))
    ref = np.array([[entrywise_acov_rc(data, (a, b)) for b in plist] for a in plist])
    assert np.array_equal(e, e.T)
    np.testing.assert_allclose(e, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("p", [2, 3, 10])
def test_acov_matrix_hat_rc_chunk_boundaries(p):
    # the product rows are summed in chunks of w = max(2, p n // q) columns;
    # consecutive chunks share a column, so a chunk covers w - 1 of the n - 1
    # adjacent pairs.  n = 1 and 2, then n - 1 a multiple of w - 1 (two
    # chunks or more) and one off on either side
    q = p * (p + 1) // 2
    per_chunk = lambda n: max(2, p * n // q) - 1
    n0 = max(n for n in range(3, 500) if (n - 1) % per_chunk(n) == 0 and n - 1 >= 2 * per_chunk(n))
    rng = np.random.default_rng(p)
    plist = svec_pairs(p)
    for n in (1, 2, n0 - 1, n0, n0 + 1):
        t = np.linspace(0.0, 1.0, n + 1)
        d = rng.standard_normal((p, n)) * 0.01
        data = [series(t, np.concatenate([[0.0], np.cumsum(x)])) for x in d]
        # the reference on |d|: the sum of the entry's absolute terms
        mags = [series(t, np.concatenate([[0.0], np.cumsum(np.abs(s.increments()))])) for s in data]
        e = acov_matrix_hat(data, "rc").entries
        ref = np.array([[entrywise_acov_rc(data, (a, b)) for b in plist] for a in plist])
        scale = np.array([[entrywise_acov_rc(mags, (a, b)) for b in plist] for a in plist])
        assert np.array_equal(e, e.T)
        assert np.all(np.abs(e - ref) <= 1e-12 * scale), n


def test_acov_matrix_hat_rc_memory_without_product_columns():
    # p=10, n=2e4: the increments take 1.5 MiB and one chunk of product rows
    # as much (3.2 MiB in all); chunks twice as wide peak at 4.7 MiB, and
    # the two q x n product-column matrices would take 17.6 MB
    data = _sync_data(np.random.default_rng(15), 10, 20_000)
    tracemalloc.start()
    try:
        acov_matrix_hat(data, "rc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# ---------------------------------------------------------------------
# Histogram estimator
# ---------------------------------------------------------------------
def test_acov_gms_hat_noise_terms_exact_zero_on_disjoint():
    rng = np.random.default_rng(10)
    data = []
    for _ in range(4):
        t = np.sort(rng.uniform(0, 1, 400))
        data.append(series(t, rng.standard_normal(400).cumsum() * 0.01))
    with_terms = acov_gms_hat(data, ((1, 2), (3, 4)), GmsAcovConfig(include_noise_terms=True))
    without = acov_gms_hat(data, ((1, 2), (3, 4)), GmsAcovConfig(include_noise_terms=False))
    assert with_terms == without


def test_acov_gms_hat_consistent_for_sync_theory():
    # synchronous data: the histogram estimator's mean tracks the closed
    # form for the multi-scale asymptotic variance
    rng = np.random.default_rng(11)
    n, R = 4000, 50
    sig = np.array([[4e-4, 1.5e-4], [1.5e-4, 3e-4]])
    chol = np.linalg.cholesky(sig)
    eta = 3e-4
    H = np.diag([eta**2, eta**2])
    t = np.linspace(0, 1, n + 1)
    M = int(round(math.sqrt(n)))
    kc = kernel_constants(cubic_weights(M))
    inputs = TheoryInputs(times=np.array([0.0, 1.0]), sigma=sig, noise=H, c=1.0, constants=kc)
    theo = acov_theory(inputs, "ms_sync", ((1, 2), (1, 2)))
    vals = np.empty(R)
    for i in range(R):
        dx = rng.standard_normal((n, 2)) @ chol.T / math.sqrt(n)
        x = np.concatenate([np.zeros((1, 2)), np.cumsum(dx, axis=0)])
        eps = rng.standard_normal((n + 1, 2)) * eta
        data = [series(t, x[:, 0] + eps[:, 0]), series(t, x[:, 1] + eps[:, 1])]
        vals[i] = acov_gms_hat(data, ((1, 2), (1, 2)), GmsAcovConfig())
    assert np.mean(vals) == pytest.approx(theo, rel=0.20)


def test_acov_gms_hat_needs_enough_refresh_times():
    rng = np.random.default_rng(12)
    data = [series(np.sort(rng.uniform(0, 1, 5)), rng.standard_normal(5)) for _ in range(4)]
    with pytest.raises(ValueError):
        acov_gms_hat(data, ((1, 2), (3, 4)))


def sliced_binned_bracket(a, b, edges, weights_for, estimate=generalized_multiscale):
    """Per-bin brackets from bins copied into new series rebased on the bin
    origin, refreshed and estimated as whole series: the reference for the
    index-window loop of ``_bracket_bins``.  ``estimate(sa, sb, w, grid)``
    replaces the bin's generalized multi-scale estimate."""

    def slice_series(s, lo, hi):
        mask = (s.scheme.times > lo) & (s.scheme.times <= hi)
        if mask.sum() < 3:
            return None
        t = s.scheme.times[mask]
        return TickSeries(SamplingScheme(t - lo, hi - lo), s.values[mask])

    out = np.zeros(edges.size - 1)
    for j in range(edges.size - 1):
        sa = slice_series(a, edges[j], edges[j + 1])
        sb = slice_series(b, edges[j], edges[j + 1])
        if sa is None or sb is None:
            continue
        try:
            grid = pairwise_refresh(sa.scheme, sb.scheme)
        except ValueError:
            continue
        N = len(grid) - 1
        if N < 1:
            continue
        w = weights_for(N)
        if w is None:
            continue
        w = end_effect_adjust(w, N)
        finite_factor = (N + 1 - float(np.sum(w.alphas * w.scales))) / N
        if finite_factor <= 0:
            continue
        out[j] = estimate(sa, sb, w, grid=grid) / finite_factor
    return out


def gms_abs_terms(a, b, w, grid):
    """:func:`abs_terms` of ``generalized_multiscale(a, b, w, grid=grid)``."""
    (na, nb), (pa, pb) = grid.next_idx, grid.prev_idx
    return abs_terms(a.values[na], a.values[pa], b.values[nb], b.values[pb], w.alphas / w.scales)


def chained_refresh_count(data, comps):
    """Refresh count of the distinct components from full pairwise grids,
    each refresh sequence wrapped as a scheme and refreshed with the next
    component: the reference for ``_union_refresh_count``."""
    uniq = sorted(set(comps))
    if len(uniq) == 1:
        return len(data[uniq[0] - 1]) - 1
    grid = pairwise_refresh(data[uniq[0] - 1].scheme, data[uniq[1] - 1].scheme)
    for v in uniq[2:]:
        s = data[v - 1].scheme
        grid = pairwise_refresh(SamplingScheme(grid.refresh_times, s.horizon), s)
    return len(grid) - 1


@st.composite
def coarse_series(draw, g, offset):
    """A series on the coarse grid ``offset + k/g`` of ``[offset, offset + 1]``
    (shared stamps with another such series are frequent), sometimes confined
    to a random sub-range so that two series' ranges can be disjoint."""
    lo, hi = 0, g
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.integers(0, g), min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    k = lo + np.flatnonzero(rng.random(hi - lo + 1) < draw(st.sampled_from([0.3, 0.6, 0.9])))
    k = k if k.size else np.array([lo])
    return series(offset + k / g, rng.standard_normal(k.size).cumsum(), T=offset + 1.0)


@st.composite
def binned_pair(draw):
    """Two coarse-grid series and bin edges.  Edges come from a grid twice as
    fine (on and between stamps), may repeat (empty bins) and may start at
    0 or at a point far below the stamps; with the 9.7e3 offset that makes
    the rebase ``t - lo`` round."""
    g = draw(st.integers(3, 40))
    offset = draw(st.sampled_from([0.0, 9.7e3]))
    a, b = draw(coarse_series(g, offset)), draw(coarse_series(g, offset))
    ke = sorted(draw(st.lists(st.integers(0, 2 * g), min_size=2, max_size=6)))
    edges = offset + np.array(ke) / (2 * g)
    edges[0] = min(edges[0], draw(st.sampled_from([0.0, 0.37, offset / 3, edges[0]])))
    return a, b, edges, draw(st.integers(2, 12)), draw(st.sampled_from(["cubic", "parzen"]))


def bin_weights(cfg, m_bin):
    """The bin weights of ``_bracket_bins`` at bin frequency ``m_bin``."""

    def weights_for(n_bin):
        return cfg.weights(max(2, min(m_bin, n_bin))) if n_bin >= 2 else None

    return weights_for


def within_rounding_of_sliced_reference(case):
    """Whether each bin of ``_bracket_bins`` is within 1e-12 times the sum
    of its absolute terms of :func:`sliced_binned_bracket`: both forms sum
    in another order than a scale loop, and a bound relative to the value
    cannot hold for a sum near zero."""
    a, b, edges, m_bin, kernel = case
    cfg = EstimatorConfig(kernel=kernel)
    got = _bracket_bins(0, 1, edges, m_bin, _AcovPlan([a, b], cfg))
    weights_for = bin_weights(cfg, m_bin)
    ref = sliced_binned_bracket(a, b, edges, weights_for)
    return np.all(np.abs(got - ref) <= 1e-12 * sliced_binned_bracket(a, b, edges, weights_for, gms_abs_terms))


@settings(max_examples=300)
@given(binned_pair())
def test_binned_bracket_by_transform_within_rounding_of_sliced_reference(case):
    with mock.patch.object(estimators_module, "_BLOCK_VALUES", 0):
        assert within_rounding_of_sliced_reference(case)


@settings(max_examples=300)
@given(binned_pair())
def test_binned_bracket_on_the_block_path_within_rounding_of_sliced_reference(case):
    assert within_rounding_of_sliced_reference(case)


@st.composite
def skeleton_bins(draw):
    """The four rows of one bracket (up a, up b, lo a, lo b) and bins as
    ``_bracket_bins`` lays them out.  The rows are levels at a drawn scale:
    four rows of their own, those of two synchronous series (up and lo rows
    alike), or any four of six rows, repeats included.  The bins are
    ascending, at least 3 slots, with gaps between them, each with its own
    M (often below the largest, sometimes far below its slots, so that the
    transform cuts it into several windows) and coefficients that are zero
    past it, sometimes also within it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts, n1, M = [], [], []
    s = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.one_of(st.integers(3, 40), st.integers(41, 300)))
        starts.append(s)
        n1.append(n)
        M.append(draw(st.one_of(st.integers(1, n - 1), st.integers(1, min(4, n - 1)))))
        s += n + draw(st.integers(0, 3))
    S = starts[-1] + n1[-1] + draw(st.integers(0, 3))
    series_pair = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda kl: [*kl, *kl])
    rows = draw(st.one_of(st.just([0, 1, 2, 3]), series_pair, st.lists(st.integers(0, 5), min_size=4, max_size=4)))
    V = rng.standard_normal((6, S)).cumsum(axis=1)[rows] * 10.0 ** rng.integers(-4, 3)
    C = rng.standard_normal((max(M), len(M))) * 10.0 ** rng.integers(-2, 2, len(M))
    C[np.arange(C.shape[0])[:, None] >= np.array(M)] = 0.0
    if draw(st.booleans()):
        C[rng.random(C.shape) < 0.2] = 0.0
    return V, np.array(starts), np.array(n1), np.array(M), C


def per_bin_loop(V, starts, n1, M, C):
    """:func:`multiscale_sum_loop` and :func:`abs_terms` of each bin."""
    win = [slice(s, s + n) for s, n in zip(starts, n1)]
    args = [(V[0, w], V[2, w], V[1, w], V[3, w], C[:m, u]) for u, (w, m) in enumerate(zip(win, M))]
    return np.array([multiscale_sum_loop(*x) for x in args]), np.array([abs_terms(*x) for x in args])


def bin_sums(V, starts, n1, C, form):
    """:func:`_lag_sums` of the bracket rows ``V``, in the lag block or by transform."""
    with mock.patch.object(estimators_module, "_BLOCK_VALUES", np.inf if form == "block" else 0):
        return _lag_sums(V, starts, n1, C)


@settings(max_examples=300, deadline=None)
@given(skeleton_bins())
def test_bin_sums_equal_the_scale_loop_per_bin_within_rounding(case):
    # both forms against the scale loop on each bin.  A relative bound
    # cannot hold for a sum near zero, so it is relative to the sum of the
    # absolute terms.  Swapping the bracket's two series keeps the bits
    V, starts, n1, M, C = case
    ref, scale = per_bin_loop(V, starts, n1, M, C)
    for form in ("block", "transform"):
        got = bin_sums(V, starts, n1, C, form)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale), form
        assert np.array_equal(got, bin_sums(V[[1, 0, 3, 2]], starts, n1, C, form)), form


def test_bin_sums_never_read_products_across_bins_or_past_a_bins_m():
    # the block path (the transform's products of levels overflow here).
    # Bin 0 sits near 1e154 and bin 1 ramps from -1e154 to 1e154: every lag
    # product that a bin reads is finite, while the products across the bin
    # edge, and those of bin 1 (M = 2) at the lags of bin 0 (M = 30),
    # overflow
    rng = np.random.default_rng(3)
    n = 40
    V = np.tile(np.concatenate((1e154 + 1e150 * rng.standard_normal(n).cumsum(), np.linspace(-1e154, 1e154, n))), (4, 1))
    V[1::2] *= 0.9
    starts, n1, M = np.array([0, n]), np.array([n, n]), np.array([30, 2])
    C = np.zeros((30, 2))
    C[:, 0] = rng.standard_normal(30)
    C[:2, 1] = 1.0
    ref, scale = per_bin_loop(V, starts, n1, M, C)
    got = bin_sums(V, starts, n1, C, "block")
    assert np.all(np.isfinite(ref)) and np.all(np.abs(got - ref) <= 1e-12 * scale)
    with np.errstate(over="ignore"):
        assert np.isinf(((V[0, n + 30 :] - V[2, n : -30]) * (V[1, n + 30 :] - V[3, n : -30])).max())


def test_fft_sums_never_mix_bins():
    # bins side by side and after gaps, whose levels sit about 1e6 apart: a
    # window that read another bin's slots, or centred a bin on another
    # one's mean, would miss by far more than the bound.  The long bins take
    # several windows each, and the M = 3 bin is far below the largest M.
    rng = np.random.default_rng(5)
    n1, M = np.array([300, 7, 120, 45, 300, 3]), np.array([30, 2, 64, 10, 3, 2])
    starts = np.concatenate(([0], np.cumsum(n1[:-1]))) + np.array([0, 0, 0, 5, 5, 6])
    S = starts[-1] + n1[-1] + 2
    offset = np.full(S, -3e6)
    for u, (s, n) in enumerate(zip(starts, n1)):
        offset[s : s + n] = (-1) ** u * (u + 1) * 1e6
    nxt = 4.6 + rng.standard_normal((2, S)).cumsum(axis=1) * 1e-3
    V = np.vstack((nxt, nxt - 1e-4 * rng.standard_normal((2, S)))) + offset
    C = rng.standard_normal((M.max(), M.size))
    C[np.arange(C.shape[0])[:, None] >= M] = 0.0
    ref, scale = per_bin_loop(V, starts, n1, M, C)
    assert np.all(np.abs(bin_sums(V, starts, n1, C, "transform") - ref) <= 1e-12 * scale)


@pytest.mark.parametrize(
    "n, M",
    [(3, 1), (3, 2), (4, 1), (5, 2), (255, 1), (256, 1), (257, 1), (4095, 1), (4096, 1), (4097, 1), (4096, 2), (1023, 40), (1025, 64), (4097, 300)],
)
def test_fft_sums_on_noiseless_volatile_bins(n, M):
    # the transform sums products of centred levels, whose size grows with a
    # window's length, while the multi-scale sum grows with the lag
    # differences: noiseless, volatile bins whose next and previous rows
    # nearly agree give the largest ratio of the two.  Lengths sit at and
    # around powers of two (the transform lengths), next to a 3-slot bin.
    rng = np.random.default_rng(n * 1000 + M)
    n1 = np.array([n, 3, n])
    starts = np.concatenate(([0], np.cumsum(n1[:-1])))
    nxt = 4.6 + rng.standard_normal((2, n1.sum())).cumsum(axis=1) * 0.05
    V = np.vstack((nxt, nxt - 0.005 * np.abs(rng.standard_normal((2, n1.sum())))))
    Mu = np.array([M, min(M, 2), M])
    C = rng.standard_normal((M, 3)) / np.arange(1, M + 1)[:, None]
    C[np.arange(M)[:, None] >= Mu] = 0.0
    ref, scale = per_bin_loop(V, starts, n1, Mu, C)
    assert np.all(np.abs(bin_sums(V, starts, n1, C, "transform") - ref) <= 1e-12 * scale)


@settings(max_examples=300)
@given(
    st.integers(3, 40).flatmap(
        lambda g: st.sampled_from([0.0, 9.7e3]).flatmap(
            lambda off: st.lists(coarse_series(g, off), min_size=3, max_size=4)
        )
    ),
    st.data(),
)
def test_union_refresh_count_equals_chained_grids(data, extra):
    comps = tuple(extra.draw(st.lists(st.integers(1, len(data)), min_size=4, max_size=4)))
    try:
        expect = chained_refresh_count(data, comps)
    except ValueError:
        with pytest.raises(ValueError, match="no refresh times"):
            _union_refresh_count(data, comps)
        return
    assert _union_refresh_count(data, comps) == expect


def assert_noise_read_off_the_union(data):
    """``noise_moments`` and the acov plan's noise moments both read each
    pair's shared stamps off its stamp union, with the bits of the
    ``np.intersect1d`` reference."""
    h = noise_moments(data).h_hat
    assert np.array_equal(h, noise_moments_oracle(data))
    assert np.array_equal(_AcovPlan(data, None).noise(range(len(data))), h)


@settings(max_examples=200)
@given(
    st.integers(3, 40).flatmap(
        lambda g: st.sampled_from([0.0, 9.7e3]).flatmap(
            lambda off: st.lists(coarse_series(g, off), min_size=2, max_size=4)
        )
    )
)
def test_noise_moments_equal_intersect_reference_on_coarse_grids(data):
    assume(all(len(s) >= 2 for s in data))
    assert_noise_read_off_the_union(data)


@pytest.mark.parametrize("shared", [0, 1, 2, 3, 4])
def test_noise_moments_equal_intersect_reference_by_shared_count(shared):
    # series 0 on k/20, series 1 on the midpoints and on ``shared`` of
    # series 0's stamps, series 2 equal to series 0 but for its last stamp
    rng = np.random.default_rng(shared)
    t0 = np.arange(21) / 20
    t1 = np.sort(np.concatenate([(np.arange(20) + 0.5) / 20, t0[[2, 7, 11, 15][:shared]]]))
    t2 = np.concatenate([t0[:-1], [0.99]])
    data = [series(t, rng.standard_normal(t.size).cumsum()) for t in (t0, t1, t2)]
    assert np.intersect1d(t0, t1).size == shared
    assert_noise_read_off_the_union(data)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("L", [*range(1, 71), 127, 128, 129, 1000, 5401])
def test_batched_dot_has_the_bits_of_ndarray_dot(L):
    # np.matmul of stacked row vectors calls BLAS ddot once per row, as
    # ndarray.dot does on one row, so row dots may be batched this way
    # without changing a bit, as estimators._lag_block does.  matmul adds the ddot
    # result to 0.0, so a -0.0 dot comes back as +0.0; a sum that starts
    # from +0.0 cannot tell the two apart.
    rng = np.random.default_rng(L)
    R = 9
    A = rng.standard_normal((R, L)) * 10.0 ** rng.integers(-6, 6, (R, 1))
    B = rng.standard_normal((R, L))
    stacked = np.matmul(A[:, None, :], B[:, :, None]).ravel()
    assert np.array_equal(_bits(stacked), _bits(np.array([A[r].dot(B[r]) for r in range(R)]) + 0.0))
    # rows gathered from overlapping windows of one array against slices
    # of that array
    v = rng.standard_normal(L + 40)
    win = np.ndarray((v.size - L + 1, L), v.dtype, v, 0, (v.itemsize, v.itemsize))
    lo, up = np.array([0, 3, 17, 40, 5]), np.array([1, 9, 40, 22, 5])
    diff = win[up] - win[lo]
    stacked = np.matmul(diff[:, None, :], diff[::-1, :, None]).ravel()
    rows = [v[u : u + L] - v[l : l + L] for u, l in zip(up, lo)]
    assert np.array_equal(_bits(stacked), _bits(np.array([x.dot(y) for x, y in zip(rows, rows[::-1])]) + 0.0))


@st.composite
def bracket_pair(draw):
    """A :func:`binned_pair` case whose second series is sometimes the first
    itself, or a series on the first one's stamps with some moved one ulp up
    (stamps that nearly, but not exactly, coincide)."""
    a, b, edges, m_bin, kernel = draw(binned_pair())
    mode = draw(st.sampled_from(["drawn", "self", "ulp"]))
    if mode == "self":
        b = a
    elif mode == "ulp":
        t, T = a.scheme.times, a.scheme.horizon
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        moved = (rng.random(t.size) < 0.5) & (t < T)
        b = series(np.where(moved, np.nextafter(t, np.inf), t), rng.standard_normal(t.size).cumsum(), T=T)
    return a, b, edges, m_bin, kernel


@settings(max_examples=300)
@given(bracket_pair(), st.sampled_from([0, estimators_module._BLOCK_VALUES]))
def test_binned_bracket_symmetric_in_its_series(case, block_values):
    # the gms bracket table keys a bracket by its unordered component pair;
    # both the block and the transform are symmetric in the two series, and
    # (1, 0) reads the pair's stamp union with its arrays swapped
    a, b, edges, m_bin, kernel = case
    plan = _AcovPlan([a, b], EstimatorConfig(kernel=kernel))
    with mock.patch.object(estimators_module, "_BLOCK_VALUES", block_values):
        assert np.array_equal(_bracket_bins(0, 1, edges, m_bin, plan), _bracket_bins(1, 0, edges, m_bin, plan))


def entrywise_acov_gms(data, config):
    """Reference: the gms acov matrix as one public ``acov_gms_hat`` call per
    entry, with its two pairs in svec order, rescaled from the entry's own
    refresh count to that of all components."""
    p = len(data)
    plist = svec_pairs(p)
    n_ref = _union_refresh_count(data, tuple(range(1, p + 1)))
    ent = np.zeros((len(plist), len(plist)))
    for a in range(len(plist)):
        for b in range(a, len(plist)):
            (k, l), (r, q) = plist[a], plist[b]
            val = acov_gms_hat(data, ((k, l), (r, q)), config)
            n_ab = _union_refresh_count(data, (k, l, r, q))
            ent[a, b] = ent[b, a] = val * (math.sqrt(n_ref) / math.sqrt(n_ab))
    return ent, n_ref


@pytest.mark.parametrize(
    "p, sampling, kernel, bins",
    [
        (2, "sync", "cubic", None),
        (3, "sync", "parzen", 3),
        (3, "repeated", "cubic", None),
        (3, "repeated", "parzen", 3),
        (4, "shared", "cubic", None),
        (4, "shared", "parzen", 3),
    ],
)
def test_acov_matrix_hat_gms_equals_entrywise_reference(p, sampling, kernel, bins):
    # "shared": Poisson stamps snapped to a grid, so two schemes share about
    # a quarter of their stamps and the noise addends are active;
    # "repeated": the same, with the first series listed again as the last
    rng = np.random.default_rng(40 + p)
    n = 240
    data = []
    for _ in range(p):
        t = np.linspace(0, 1, n + 1) if sampling == "sync" else np.unique(np.round(rng.uniform(0, 1, n) * 4 * n)) / (4 * n)
        data.append(series(t, 0.01 * rng.standard_normal(t.size).cumsum() + 5e-4 * rng.standard_normal(t.size)))
    if sampling == "repeated":
        data[-1] = data[0]
    cfg = GmsAcovConfig(kernel=kernel, bins=bins)
    am = acov_matrix_hat(data, "gms", cfg)
    ent, n_ref = entrywise_acov_gms(data, cfg)
    assert np.array_equal(am.entries, ent)
    assert am.n_ref == n_ref


@pytest.mark.parametrize("block_values", [0, estimators_module._BLOCK_VALUES])
def test_a_still_series_has_exactly_zero_gms_entries_on_asynchronous_schemes(block_values):
    # Poisson schemes, so the pair's skeleton and its brackets go through
    # _lag_sums: in the lag block, or by transform (block_values 0), whose
    # guard hands the still series' windows to the lag block.  Its lag
    # differences are all 0, so its estimates and every acov entry that
    # reads it are too
    rng = np.random.default_rng(6)
    t = [np.unique(np.round(np.sort(rng.uniform(0, 1, 2000)) * 6e4)) / 6e4 for _ in range(2)]
    data = [series(t[0], 4.6 + rng.standard_normal(t[0].size).cumsum() * 1e-3), series(t[1], np.full(t[1].size, 0.1))]
    with mock.patch.object(estimators_module, "_BLOCK_VALUES", block_values):
        est = estimate_matrix(data, "gms", EstimatorConfig())
        am = acov_matrix_hat(data, "gms")
    assert est.matrix[0, 0] > 0 and np.all(est.matrix[1] == 0.0) and np.all(est.matrix[:, 1] == 0.0)
    still = [a for a, kl in enumerate(svec_pairs(2)) if 2 in kl]  # the svec slots that read series 2 (1-based)
    assert am.entries[0, 0] > 0 and np.all(am.entries[still] == 0.0) and np.all(am.entries[:, still] == 0.0)


def test_gms_acov_builds_per_bracket_and_per_pair_work_once(monkeypatch):
    # a bracket reads its pair's stamp union: no merge, no argsort and no
    # index-map search, whatever its bin count; one acov_matrix_hat or
    # ci_test call builds each component pair's union once and reads every
    # pairwise refresh grid off it
    rng = np.random.default_rng(44)
    data = []
    for _ in range(4):  # shared stamps, as in the "shared" case above
        t = np.unique(np.round(rng.uniform(0, 1, 240) * 960)) / 960
        data.append(series(t, 0.01 * rng.standard_normal(t.size).cumsum() + 5e-4 * rng.standard_normal(t.size)))
    calls = collections.Counter()

    def counted(module, name, key=None):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[(name, key(*args)) if key else name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sampling_module, "_tick_maps")
    counted(sampling_module, "_refresh_merge")
    counted(avar_module, "_refresh_merge")
    counted(np, "argsort")
    counted(avar_module, "_StampUnion", key=lambda a, b: (id(a), id(b)))
    cfg = EstimatorConfig()
    for bins in (1, 2, 7, 30):
        plan = _AcovPlan(data, cfg)
        plan.union(0, 1)
        calls.clear()
        out = _bracket_bins(0, 1, np.linspace(0.0, 1.0, bins + 1), 4, plan)
        assert np.count_nonzero(out) > bins // 2  # most bins are estimated
        assert calls == {}

    counted(avar_module, "_pair_grid", key=lambda u, a, b: (id(a), id(b)))
    for module in (avar_module, estimators_module):
        counted(module, "pairwise_refresh")
    for run, n_pairs in ((lambda: acov_matrix_hat(data, "gms"), 10), (lambda: ci_test(*data[:3], method="gms"), 6)):
        calls.clear()
        run()
        for name in ("_StampUnion", "_pair_grid"):
            built = [v for k, v in calls.items() if k[0] == name]
            assert len(built) == n_pairs and set(built) == {1}
        assert calls["pairwise_refresh"] == 0 and calls["_tick_maps"] == 0


# ---------------------------------------------------------------------
# Matrix assembly, linear combinations, standardization
# ---------------------------------------------------------------------
def test_acov_matrix_hat_rc_shape_and_symmetry():
    rng = np.random.default_rng(13)
    data = _sync_data(rng, 2, 300)
    am = acov_matrix_hat(data, "rc")
    assert am.entries.shape == (3, 3)
    assert np.max(np.abs(am.entries - am.entries.T)) < 1e-12
    assert am.rate == "sqrt_n"
    # diagonal consistency with the pairwise estimator
    assert am.entry((1, 2), (1, 2)) == pytest.approx(acov_rc_hat(data, ((1, 2), (1, 2))))


def test_acov_matrix_hat_no_hy():
    rng = np.random.default_rng(14)
    data = _sync_data(rng, 2, 50)
    with pytest.raises(ValueError):
        acov_matrix_hat(data, "hy")


def test_lincomb_avar_single_asset_picks_diagonal():
    rng = np.random.default_rng(15)
    q = 3
    m = rng.standard_normal((q, q))
    am = AcovMatrix(entries=m @ m.T, rate="sqrt_n", n_ref=100.0, p=2)
    got = lincomb_avar(np.array([1.0, 0.0]), am)
    assert got == pytest.approx(am.entry((1, 1), (1, 1)))


def test_lincomb_avar_matches_quadruple_sum():
    rng = np.random.default_rng(16)
    p = 2
    q = 3
    m = rng.standard_normal((q, q))
    am = AcovMatrix(entries=m @ m.T, rate="sqrt_n", n_ref=100.0, p=p)
    coeffs = np.array([1.0, 1.0])
    got = lincomb_avar(coeffs, am)
    brute = 0.0
    for k in range(1, p + 1):
        for l in range(1, p + 1):
            for r in range(1, p + 1):
                for s in range(1, p + 1):
                    a = am.entry((min(k, l), max(k, l)), (min(r, s), max(r, s)))
                    brute += coeffs[k - 1] * coeffs[l - 1] * coeffs[r - 1] * coeffs[s - 1] * a
    assert got == pytest.approx(brute, rel=1e-12)


def test_lincomb_avar_quartic_scaling():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((3, 3))
    am = AcovMatrix(entries=m @ m.T, rate="n_quarter", n_ref=100.0, p=2)
    c = np.array([0.5, -1.2])
    lam = 1.7
    assert lincomb_avar(lam * c, am) == pytest.approx(lam**4 * lincomb_avar(c, am), rel=1e-12)


def test_standardize_formula_and_guard():
    z = standardize(1.2, 1.0, avar=4.0, rate="sqrt_n", n=400)
    assert z == pytest.approx(20 * 0.2 / 2.0)
    with pytest.raises(ValueError):
        standardize(1.0, 0.0, avar=0.0, rate="sqrt_n", n=100)
    with pytest.raises(ValueError):
        standardize(1.0, 0.0, avar=-1.0, rate="n_quarter", n=100)
    # a nan would come back as nan and an inf as 0.0, "not significant"
    for avar in (math.nan, math.inf):
        with pytest.raises(ValueError, match=repr(avar)):
            standardize(1.0, 0.0, avar=avar, rate="sqrt_n", n=100)


def test_lincomb_feasible_clt_coverage():
    # portfolio sum of two correlated assets: standardized errors of the
    # combined estimate are approximately standard normal
    rng = np.random.default_rng(18)
    n, R = 2000, 400
    sig = np.array([[4e-4, 1.8e-4], [1.8e-4, 3e-4]])
    chol = np.linalg.cholesky(sig)
    coeffs = np.array([1.0, 1.0])
    target = float(coeffs @ sig @ coeffs)  # quadratic variation of the sum, T = 1
    t = np.linspace(0, 1, n + 1)
    zs = np.empty(R)
    for i in range(R):
        dx = rng.standard_normal((n, 2)) @ chol.T / math.sqrt(n)
        x = np.concatenate([np.zeros((1, 2)), np.cumsum(dx, axis=0)])
        data = [series(t, x[:, 0]), series(t, x[:, 1])]
        from hficov.estimators import realized_cov

        est = sum(
            coeffs[k] * coeffs[l] * realized_cov(data[k], data[l])
            for k in range(2)
            for l in range(2)
        )
        am = acov_matrix_hat(data, "rc")
        avar = lincomb_avar(coeffs, am)
        zs[i] = standardize(est, target, avar, am.rate, am.n_ref)
    assert abs(np.mean(zs)) < 4 / math.sqrt(R)
    assert np.std(zs, ddof=1) == pytest.approx(1.0, abs=0.12)
    coverage = np.mean(np.abs(zs) <= 1.959963984540054)
    assert 0.91 <= coverage <= 0.98


def test_acov_theory_rc_piecewise_sigma_path():
    # two-block spot covariance path: hand quadrature of the closed form
    times = np.array([0.0, 0.4, 1.0])
    s1 = np.array([[1.0, 0.2], [0.2, 1.0]])
    s2 = np.array([[2.0, 0.8], [0.8, 1.5]])
    inputs = TheoryInputs(times=times, sigma=np.stack([s1, s2]))
    got = acov_theory(inputs, "rc", ((1, 2), (1, 2)))
    expect = 1.0 * (
        0.4 * (s1[0, 0] * s1[1, 1] + s1[0, 1] ** 2) + 0.6 * (s2[0, 0] * s2[1, 1] + s2[0, 1] ** 2)
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_acov_gms_hat_async_bin_alignment():
    # asynchronous histogram estimates stay near the validated closed form
    # (guards the alignment of the two series' per-bin tick windows)
    rng = np.random.default_rng(21)
    vols = np.array([0.02, 0.016, 0.018, 0.015])
    corr = np.full((4, 4), 0.65)
    np.fill_diagonal(corr, 1.0)
    sig = np.diag(vols) @ corr @ np.diag(vols)
    chol = np.linalg.cholesky(sig)
    schemes = [SamplingScheme(np.sort(rng.uniform(0, 1, 2000)), 1.0) for _ in range(4)]
    union = np.unique(np.concatenate([[0.0, 1.0]] + [s.times for s in schemes]))
    inputs, meta = gms_theory_inputs(schemes, np.array([0.0, 1.0]), sig)
    theo = acov_theory(inputs, "gms", ((1, 2), (3, 4)))
    R = 25
    vals = np.empty(R)
    for i in range(R):
        dx = rng.standard_normal((union.size - 1, 4)) @ chol.T * np.sqrt(np.diff(union))[:, None]
        x = np.concatenate([np.zeros((1, 4)), np.cumsum(dx, axis=0)])
        data = [
            TickSeries(s, x[np.searchsorted(union, s.times), k]) for k, s in enumerate(schemes)
        ]
        vals[i] = acov_gms_hat(data, ((1, 2), (3, 4)), GmsAcovConfig(include_noise_terms=False))
    se = np.std(vals, ddof=1) / np.sqrt(R)
    assert np.mean(vals) == pytest.approx(theo, abs=max(4 * se, 0.25 * abs(theo)))


def _gms_exact_cov(schemes, Q12, Q34, sig, H, N):
    def y_cov(sa, sb, s_ab, e_ab):
        S = s_ab * np.minimum(sa.times[:, None], sb.times[None, :])
        if e_ab != 0.0:
            S = S + e_ab * (sa.times[:, None] == sb.times[None, :])
        return S

    S13 = y_cov(schemes[0], schemes[2], sig[0, 2], H[0, 2])
    S24 = y_cov(schemes[1], schemes[3], sig[1, 3], H[1, 3])
    S14 = y_cov(schemes[0], schemes[3], sig[0, 3], H[0, 3])
    S23 = y_cov(schemes[1], schemes[2], sig[1, 2], H[1, 2])
    return math.sqrt(N) * (
        np.trace(Q12.T @ S13 @ Q34 @ S24.T) + np.trace(Q12 @ S23 @ Q34 @ S14.T)
    )


def test_acov_theory_gms_partial_overlap_noise_terms_conservative():
    # schemes sharing half their timestamps: the signal term stays sharp and
    # the synchronous-case noise plug-ins bound the exact noise contribution
    # from above (they are documented as conservative)
    rng = np.random.default_rng(31)
    base = np.linspace(0, 1, 501)
    schemes = [
        SamplingScheme(np.unique(np.concatenate([base, rng.uniform(0, 1, 500)])), 1.0)
        for _ in range(4)
    ]
    vols = np.array([0.02, 0.016, 0.018, 0.015])
    corr = np.full((4, 4), 0.65)
    np.fill_diagonal(corr, 1.0)
    sig = np.diag(vols) @ corr @ np.diag(vols)
    eta = 5e-4
    H = eta**2 * (np.full((4, 4), 0.5) + 0.5 * np.eye(4))
    inputs, meta = gms_theory_inputs(schemes, np.array([0.0, 1.0]), sig, noise=H, with_overlap=True)
    inputs0, _ = gms_theory_inputs(schemes, np.array([0.0, 1.0]), sig)
    theo_full = acov_theory(inputs, "gms", ((1, 2), (3, 4)))
    theo_sig = acov_theory(inputs0, "gms", ((1, 2), (3, 4)))
    g12 = pairwise_refresh(schemes[0], schemes[1])
    g34 = pairwise_refresh(schemes[2], schemes[3])
    Q12 = _gms_quadratic_form(g12, cubic_weights(meta["M12"]).alphas)
    Q34 = _gms_quadratic_form(g34, cubic_weights(meta["M34"]).alphas)
    exact_full = _gms_exact_cov(schemes, Q12, Q34, sig, H, meta["N"])
    exact_sig = _gms_exact_cov(schemes, Q12, Q34, sig, np.zeros((4, 4)), meta["N"])
    assert theo_sig == pytest.approx(exact_sig, rel=0.10)
    noise_theory = theo_full - theo_sig
    noise_exact = exact_full - exact_sig
    assert noise_exact > 0
    assert noise_exact <= noise_theory <= 3.0 * noise_exact
    assert theo_full == pytest.approx(exact_full, rel=0.10)


def test_acov_theory_ms_sync_noise_slots_match_exact_covariance():
    # equidistant synchronous bivariate case with cross-correlated noise:
    # the closed form (signal + noise^2 + cross + end slots) must match the
    # exact Gaussian covariance of the estimator's quadratic form
    n = 2000
    c = 1.0
    M = int(round(c * math.sqrt(n)))
    w = cubic_weights(M)
    t = np.linspace(0, 1, n + 1)
    sig = np.array([[4e-4, 1.5e-4], [1.5e-4, 3e-4]])
    eta = 6e-4
    H = eta**2 * np.array([[1.0, 0.5], [0.5, 1.0]])

    Q = np.zeros((n + 1, n + 1))
    for i in range(1, M + 1):
        wt = w.alphas[i - 1] / i
        j = np.arange(i, n + 1)
        np.add.at(Q, (j, j), wt)
        np.add.at(Q, (j - i, j - i), wt)
        np.add.at(Q, (j, j - i), -wt)
        np.add.at(Q, (j - i, j), -wt)
    G = np.minimum.outer(t, t)
    eye = np.eye(n + 1)
    S11 = sig[0, 0] * G + H[0, 0] * eye
    S22 = sig[1, 1] * G + H[1, 1] * eye
    S12 = sig[0, 1] * G + H[0, 1] * eye
    exact = math.sqrt(n) * (np.trace(Q.T @ S11 @ Q @ S22.T) + np.trace(Q @ S12 @ Q @ S12.T))

    from hficov.timefuncs import weighted_lasa_function

    kc = kernel_constants(w)
    lasa = weighted_lasa_function(SamplingScheme(t, 1.0), w)
    inputs = TheoryInputs(times=np.array([0.0, 1.0]), sigma=sig, noise=H, c=M / math.sqrt(n), lasa=lasa, constants=kc)
    theo = acov_theory(inputs, "ms_sync", ((1, 2), (1, 2)))
    assert theo == pytest.approx(exact, rel=0.04)


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
def test_configs_reject_c_not_finite_positive(c):
    with pytest.raises(ValueError, match="c must be finite and positive"):
        EstimatorConfig(c=c)
    with pytest.raises(ValueError, match="c must be finite and positive"):
        GmsAcovConfig(c=c)
