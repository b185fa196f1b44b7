import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hficov.kernels import cubic_weights
from hficov.sampling import SamplingScheme, global_refresh, pairwise_refresh
from hficov.timefuncs import (
    StepFunction,
    _overlap_count,
    lasa_function,
    sync_overlap,
    time_covariations,
    weighted_lasa_function,
)

from oracles import lasa_oracle, overlap_count_args, sync_counts_oracle, timecov_oracle, wlasa_oracle


def sch(times, T=1.0):
    return SamplingScheme(np.asarray(times, dtype=float), T)


def poisson(rng, n, T=1.0, endpoints=True):
    t = np.sort(rng.uniform(0, T, n))
    if endpoints:
        t = np.unique(np.concatenate([[0.0], t, [T]]))
    return SamplingScheme(t, T)


def four_scheme_grid(rng, n=25):
    schemes = [poisson(rng, n) for _ in range(4)]
    g12 = pairwise_refresh(schemes[0], schemes[1])
    g34 = pairwise_refresh(schemes[2], schemes[3])
    return schemes, g12, g34, global_refresh(g12, g34)


# ---------------------------------------------------------------------
# StepFunction
# ---------------------------------------------------------------------
def test_step_function_right_continuous():
    f = StepFunction(np.array([0.2, 0.5]), np.array([1.0, 3.0]))
    assert f(0.1) == 0.0
    assert f(0.2) == 1.0
    assert f(0.49) == 1.0
    assert f(0.5) == 3.0
    np.testing.assert_allclose(f(np.array([0.0, 0.3, 0.9])), [0.0, 1.0, 3.0])


# ---------------------------------------------------------------------
# Quadratic covariations of times
# ---------------------------------------------------------------------
def test_equidistant_synchronous_grid():
    g = sch(np.linspace(0, 1, 11))
    glob = global_refresh(pairwise_refresh(g, g), pairwise_refresh(g, g))
    tc = time_covariations(glob)
    # G equals t at every breakpoint, interpolation functions vanish
    np.testing.assert_allclose(tc.g.values, tc.g.breakpoints, atol=1e-14)
    assert tc.g(1.0) == pytest.approx(1.0)
    for st in (tc.f_24_13, tc.f_23_14, tc.h_24_13, tc.h_23_14, tc.i_24_13, tc.i_23_14):
        assert st.total == 0.0


def test_all_functions_nondecreasing_from_zero():
    rng = np.random.default_rng(1)
    _, _, _, glob = four_scheme_grid(rng, 40)
    tc = time_covariations(glob)
    for st in (tc.g, tc.f_24_13, tc.f_23_14, tc.h_24_13, tc.h_23_14, tc.i_24_13, tc.i_23_14):
        assert np.all(st.increments() >= -1e-15)
        assert st(0.0) == 0.0


def test_two_asset_embedding_reach_terms_vanish():
    rng = np.random.default_rng(2)
    a, b = poisson(rng, 60), poisson(rng, 60)
    glob = global_refresh(pairwise_refresh(a, b), pairwise_refresh(a, b))
    tc = time_covariations(glob)
    assert tc.i_24_13.total == 0.0
    assert tc.h_23_14.total == 0.0
    assert tc.h_24_13.total == 0.0


def test_time_covariations_match_oracle():
    rng = np.random.default_rng(3)
    cases = [four_scheme_grid(rng, int(rng.integers(6, 28)))[0] for _ in range(20)]
    # one pair ~30 times sparser than the other: a sparse block overlaps
    # dozens of dense blocks, far beyond any fixed block-offset window
    cases += [[poisson(rng, n) for n in sizes] for sizes in ((20, 25, 600, 700), (600, 700, 20, 25))]
    for schemes in cases:
        glob = global_refresh(pairwise_refresh(*schemes[:2]), pairwise_refresh(*schemes[2:]))
        tc = time_covariations(glob)
        ora = timecov_oracle(*[list(s.times) for s in schemes], 1.0)
        got = {
            "g": tc.g.total,
            "f_a": tc.f_24_13.total,
            "f_b": tc.f_23_14.total,
            "h_a": tc.h_24_13.total,
            "h_b": tc.h_23_14.total,
            "i_a": tc.i_24_13.total,
            "i_b": tc.i_23_14.total,
        }
        for key, val in got.items():
            assert val == pytest.approx(ora[key], rel=1e-12, abs=1e-14), key


def test_exact_gaussian_covariance_of_overlap_estimates():
    """For constant spot covariance, T * integral against g + channel sums
    must equal the exact Gaussian covariance of the two overlap estimators
    (computed independently from increment-interval overlaps)."""
    rng = np.random.default_rng(5)
    vols = np.array([0.02, 0.015, 0.018, 0.012])
    corr = np.array([[1, .6, .4, .3], [.6, 1, .5, .35], [.4, .5, 1, .45], [.3, .35, .45, 1.0]])
    sig = np.diag(vols) @ corr @ np.diag(vols)

    def overlap_matrix(sa, sb):
        lo = np.maximum(sa.times[:-1][:, None], sb.times[:-1][None, :])
        hi = np.minimum(sa.times[1:][:, None], sb.times[1:][None, :])
        return np.maximum(hi - lo, 0.0)

    def exact_cov(s1, s2, s3, s4, s13, s24, s14, s23):
        A = (overlap_matrix(s1, s2) > 0).astype(float)
        B = (overlap_matrix(s3, s4) > 0).astype(float)
        t1 = np.trace(A.T @ (s13 * overlap_matrix(s1, s3)) @ B @ (s24 * overlap_matrix(s2, s4)).T)
        t2 = np.trace(A @ (s23 * overlap_matrix(s2, s3)) @ B @ (s14 * overlap_matrix(s1, s4)).T)
        return t1 + t2

    schemes, _, _, glob = four_scheme_grid(rng, 150)
    N = len(glob) - 1
    tc = time_covariations(glob)
    prod_sum = sig[0, 2] * sig[1, 3] + sig[0, 3] * sig[1, 2]
    theory = tc.g.total * prod_sum
    for st, w in (
        (tc.f_24_13, sig[0, 2] * sig[1, 3]),
        (tc.h_24_13, sig[0, 2] * sig[1, 3]),
        (tc.i_24_13, sig[0, 2] * sig[1, 3]),
        (tc.f_23_14, sig[0, 3] * sig[1, 2]),
        (tc.h_23_14, sig[0, 3] * sig[1, 2]),
        (tc.i_23_14, sig[0, 3] * sig[1, 2]),
    ):
        theory += st.total * w
    exact = N * exact_cov(*schemes, sig[0, 2], sig[1, 3], sig[0, 3], sig[1, 2])
    assert theory == pytest.approx(exact, rel=1e-10)


def test_requires_global_grid():
    g = pairwise_refresh(sch([0, 0.5, 1.0]), sch([0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        time_covariations(g)


# ---------------------------------------------------------------------
# Local sampling autocorrelation
# ---------------------------------------------------------------------
def test_lasa_zero_at_zero():
    g = sch(np.linspace(0, 1, 51))
    assert lasa_function(g, 5)(0.0) == 0.0


def test_lasa_equidistant_slope():
    g = sch(np.linspace(0, 1, 5001))
    for r in (2, 5, 20):
        assert lasa_function(g, r)(1.0) == pytest.approx((r + 1) / r, rel=0.02)


def test_lasa_poisson_correction_factor():
    rng = np.random.default_rng(6)
    g = poisson(rng, 6000)
    r = 40
    assert lasa_function(g, r)(1.0) == pytest.approx((r + 1) / r, rel=0.05)


def test_lasa_r_bounds():
    g = sch(np.linspace(0, 1, 6))
    with pytest.raises(ValueError):
        lasa_function(g, 5)(1.0)
    with pytest.raises(ValueError):
        lasa_function(g, 0)(1.0)


def test_lasa_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = poisson(rng, int(rng.integers(6, 25)))
        r = int(rng.integers(1, len(g) - 1))
        t = float(rng.uniform(0.2, 1.0))
        got = lasa_function(g, r)(t)
        exp = lasa_oracle(list(g.times), r, t, 1.0)
        assert got == pytest.approx(exp, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------
# Weighted sampling autocorrelation
# ---------------------------------------------------------------------
def test_weighted_lasa_zero_at_zero():
    g = sch(np.linspace(0, 1, 101))
    assert weighted_lasa_function(g, cubic_weights(6))(0.0) == 0.0


def test_weighted_lasa_equidistant_limit():
    # equidistant slope converges to int_0^1 K(x)^2 dx = 13/35 for the cubic
    # kernel (twice the tabulated constant 13/70)
    g = sch(np.linspace(0, 1, 8001))
    val = weighted_lasa_function(g, cubic_weights(160))(1.0)
    assert val == pytest.approx(13 / 35, rel=0.02)
    assert val == pytest.approx(2 * 13 / 70, rel=0.02)


def test_weighted_lasa_matches_triple_sum_oracle():
    rng = np.random.default_rng(8)
    g = sch(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 6)])))  # 8-point grid
    w = cubic_weights(2)
    for t in (0.3, 0.7, 1.0):
        got = weighted_lasa_function(g, w)(t)
        exp = wlasa_oracle(list(g.times), list(w.alphas), t, 1.0, lag0_weight=0.5)
        assert got == pytest.approx(exp, rel=1e-12, abs=1e-16)
    for _ in range(20):
        g = poisson(rng, int(rng.integers(6, 24)))
        M = int(rng.integers(2, min(6, len(g) - 1)))
        w = cubic_weights(M)
        got = weighted_lasa_function(g, w)(1.0)
        exp = wlasa_oracle(list(g.times), list(w.alphas), 1.0, 1.0, lag0_weight=0.5)
        assert got == pytest.approx(exp, rel=1e-12)


def test_weighted_lasa_m_bound():
    g = sch(np.linspace(0, 1, 6))
    with pytest.raises(ValueError):
        weighted_lasa_function(g, cubic_weights(6))(1.0)


def test_weighted_lasa_lag0_variants_ordered():
    g = sch(np.linspace(0, 1, 501))
    w = cubic_weights(15)
    # the literal triple sum weighs q = 0 fully; the function halves it
    full = wlasa_oracle(list(g.times), list(w.alphas), 1.0, g.horizon)
    half = weighted_lasa_function(g, w).total
    assert half < full
    # the halved q = 0 term: 0.5 * N/(M T) * kappa_0^2 * sum dS^2
    t = g.times
    N, T = t.size - 1, g.horizon
    lag0_term = (N / (w.M * T)) * w.kappas()[0] ** 2 * np.sum(np.diff(t) ** 2)
    assert full - half == pytest.approx(0.5 * lag0_term, rel=1e-12)


def wlsa_term(scheme, i, k, r):
    """Per-(i, k, r) weighted local sampling autocovariance diagnostic.

    ``n * sum_{q=0}^{r^i^k} (1 - q/i)(1 - q/k) dt_r dt_{r-q}`` with the
    out-of-range increment treated as zero.
    """
    N = scheme.times.size - 1
    if not 1 <= r <= N:
        raise ValueError("r out of range")
    d = np.diff(scheme.times)
    q = np.arange(0, min(r, i, k) + 1)
    dr_q = np.where(r - q >= 1, d[np.maximum(r - q, 1) - 1], 0.0)
    w = (1 - q / i) * (1 - q / k)
    return float(N * d[r - 1] * np.sum(w * dr_q))


def test_wlsa_term_manual():
    g = sch([0.0, 0.2, 0.5, 1.0])
    # i = k = 2, r = 2: N * d_2 * [d_2 + (1 - 1/2)^2 d_1]
    expect = 3 * 0.3 * (0.3 + 0.25 * 0.2)
    assert wlsa_term(g, 2, 2, 2) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------
# Synchronous overlap
# ---------------------------------------------------------------------
def test_sync_overlap_disjoint_all_zero():
    rng = np.random.default_rng(9)
    schemes = [SamplingScheme(np.sort(rng.uniform(0, 1, 30)), 1.0) for _ in range(4)]
    g12 = pairwise_refresh(schemes[0], schemes[1])
    g34 = pairwise_refresh(schemes[2], schemes[3])
    ov = sync_overlap(global_refresh(g12, g34), 4, 4)
    assert ov.all_zero()


def test_sync_overlap_identical_schemes():
    g = sch(np.linspace(0, 1, 41))
    schemes = (g, g, g, g)
    g12 = pairwise_refresh(g, g)
    ov = sync_overlap(global_refresh(g12, pairwise_refresh(g, g)), 6, 6)
    assert ov.s_13(1.0) == pytest.approx(1.0, rel=0.05)
    assert ov.s_hat_13_24 == pytest.approx(1.0, rel=0.2)
    assert ov.s_hat_14_23 == pytest.approx(1.0, rel=0.2)
    assert ov.s_tilde_13_24 == 1.0
    assert ov.s_tilde_14_23 == 1.0


def test_sync_overlap_counts_match_oracle():
    rng = np.random.default_rng(10)
    base = np.sort(rng.uniform(0, 1, 10))
    # half-overlapping 10-point schemes: shared timestamps by construction
    t1 = np.unique(np.concatenate([base, [0.0, 1.0]]))
    t2 = np.unique(np.concatenate([base[::2], rng.uniform(0, 1, 5), [0.0, 1.0]]))
    t3 = np.unique(np.concatenate([base[1::2], rng.uniform(0, 1, 5), [0.0, 1.0]]))
    t4 = np.unique(np.concatenate([base, rng.uniform(0, 1, 3), [0.0, 1.0]]))
    schemes = tuple(SamplingScheme(t, 1.0) for t in (t1, t2, t3, t4))
    g12 = pairwise_refresh(schemes[0], schemes[1])
    g34 = pairwise_refresh(schemes[2], schemes[3])
    ov = sync_overlap(global_refresh(g12, g34), 3, 4)
    h1, h2, t1_, t2_ = sync_counts_oracle([list(s.times) for s in schemes], 3, 4)
    assert ov.s_hat_13_24 == pytest.approx(h1, rel=1e-12, abs=1e-15)
    assert ov.s_hat_14_23 == pytest.approx(h2, rel=1e-12, abs=1e-15)
    assert ov.s_tilde_13_24 == pytest.approx(t1_, rel=1e-12, abs=1e-15)
    assert ov.s_tilde_14_23 == pytest.approx(t2_, rel=1e-12, abs=1e-15)


def test_sync_overlap_step_functions_nondecreasing():
    g = sch(np.linspace(0, 1, 21))
    ov = sync_overlap(global_refresh(pairwise_refresh(g, g), pairwise_refresh(g, g)), 4, 4)
    for st in (ov.s_13, ov.s_14, ov.s_23, ov.s_24):
        assert np.all(st.increments() >= 0)


def test_sync_overlap_needs_global_grid():
    g = sch(np.linspace(0, 1, 11))
    with pytest.raises(ValueError, match="global refresh grid"):
        sync_overlap(pairwise_refresh(g, g), 2, 2)


def dense_overlap_count(a_plus, b_plus, a_minus, b_minus, m_12, m_34):
    """Quadruple indicator count from dense (N12+1) x (N34+1) match matrices
    and a loop over the plus-matches: the reference for the prefix-sum count
    of ``sync_overlap``."""
    minus_match = a_minus[:, None] == b_minus[None, :]
    total = 0
    for j, k in zip(*np.nonzero(a_plus[:, None] == b_plus[None, :])):
        total += int(minus_match[j - min(j, m_12) : j, k - min(k, m_34) : k].sum())
    return total


@st.composite
def coarse_quad(draw, jitter=False):
    """Four schemes on a coarse grid k/g of [0, 1] (shared stamps are
    frequent), optionally with some stamps moved by 1e-3 of the grid step,
    and the multi-scale frequencies; ``None`` when a grid is empty."""
    g = draw(st.integers(3, 30))
    schemes = []
    for _ in range(4):
        k = np.array(sorted(draw(st.lists(st.integers(0, g), min_size=2, max_size=20, unique=True))))
        t = k / g
        if jitter:
            shift = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=k.size, max_size=k.size)))
            t = np.clip(t + shift * 1e-3 / g, 0.0, 1.0)
        schemes.append(sch(t))
    try:
        glob = global_refresh(pairwise_refresh(*schemes[:2]), pairwise_refresh(*schemes[2:]))
    except ValueError:
        return None
    return glob, draw(st.integers(1, 6)), draw(st.integers(1, 6))


@st.composite
def long_quad(draw):
    """Four schemes of 10 to 120 ticks on a grid k/g of [0, 1], g from 40 to
    150, drawn by numpy from a drawn seed, and the multi-scale frequencies:
    long enough that many minus-matches lie below a column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = int(rng.integers(40, 151))
    schemes = [sch(np.sort(rng.choice(g + 1, rng.integers(10, min(120, g + 1) + 1), replace=False)) / g) for _ in range(4)]
    glob = global_refresh(pairwise_refresh(*schemes[:2]), pairwise_refresh(*schemes[2:]))
    return glob, draw(st.integers(1, 10)), draw(st.integers(1, 10))


@given(st.one_of(st.booleans().flatmap(lambda jitter: coarse_quad(jitter)), long_quad()))
def test_overlap_count_equals_dense_reference(case):
    assume(case is not None)
    glob, m12, m34 = case
    for args in overlap_count_args(glob):
        assert _overlap_count(*args, m12, m34) == dense_overlap_count(*args, m12, m34)


def test_overlap_count_of_a_rectangle_that_holds_no_minus_match():
    # the plus-match (1, 2) has row window [0, 1) and column window [1, 2);
    # the one minus-match (row 1, column 0) lies past the rows and before
    # the columns, so its rank ranges cross and the count must clamp to 0
    args = np.array([0, 5]), np.array([0, 3, 5]), np.array([0, 2]), np.array([2, 3, 4])
    assert _overlap_count(*args, 1, 1) == dense_overlap_count(*args, 1, 1) == 0


@given(coarse_quad())
def test_sync_overlap_equals_counts_oracle_on_coarse_grids(case):
    assume(case is not None and len(case[0]) > 1)
    glob, m12, m34 = case
    ov = sync_overlap(glob, m12, m34)
    expect = sync_counts_oracle([list(s.times) for s in glob.source_schemes], m12, m34)
    got = (ov.s_hat_13_24, ov.s_hat_14_23, ov.s_tilde_13_24, ov.s_tilde_14_23)
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_sync_overlap_memory_linear_in_ticks():
    # synchronous n = 16000: dense match matrices would take about 0.5 GB
    g = sch(np.linspace(0, 1, 16001))
    glob = global_refresh(pairwise_refresh(g, g), pairwise_refresh(g, g))
    m = int(round(np.sqrt(16000)))
    tracemalloc.start()
    try:
        ov = sync_overlap(glob, m, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert ov.s_tilde_13_24 == 1.0
