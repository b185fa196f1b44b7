import numpy as np
import pytest

from hficov.estimators import (
    EstimatorConfig,
    TickSeries,
    estimate_matrix,
    generalized_multiscale,
    hayashi_yoshida,
    kernel_estimator,
    multiscale,
    multiscale_adjusted,
    noise_moments,
    realized_cov,
)
from hficov.kernels import builtin_kernel, cubic_weights
from hficov.sampling import SamplingScheme, pairwise_refresh

from oracles import gms_oracle, hy_oracle, kernel_oracle, ms_oracle, sync_matrix_oracle


def series(times, values, T=1.0):
    return TickSeries(SamplingScheme(np.asarray(times, float), T), np.asarray(values, float))


def random_series(rng, n, T=1.0, endpoints=True):
    t = np.sort(rng.uniform(0, T, n))
    if endpoints:
        t = np.unique(np.concatenate([[0.0], t, [T]]))
    return series(t, rng.standard_normal(t.size).cumsum() * 0.1, T)


SYNC = SamplingScheme(np.array([0.0, 0.5, 1.0]), 1.0)
A = TickSeries(SYNC, np.array([0.0, 1.0, 3.0]))
B = TickSeries(SYNC, np.array([0.0, 2.0, 2.0]))


# ---------------------------------------------------------------------
# Realized covariance
# ---------------------------------------------------------------------
def test_realized_variance_by_hand():
    assert realized_cov(A, A) == 5.0


def test_realized_covariance_by_hand():
    assert realized_cov(A, B) == 2.0


def test_realized_cov_constant_series():
    c = TickSeries(SYNC, np.array([0.7, 0.7, 0.7]))
    assert realized_cov(c, c) == 0.0


def test_realized_cov_rejects_async_with_pointer():
    other = series([0.0, 0.4, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="hayashi_yoshida"):
        realized_cov(A, other)


# ---------------------------------------------------------------------
# Multi-scale
# ---------------------------------------------------------------------
def test_multiscale_single_scale_is_realized_cov():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 1, 51)
    a = series(t, rng.standard_normal(51).cumsum())
    b = series(t, rng.standard_normal(51).cumsum())
    from hficov.kernels import WeightScheme

    w1 = WeightScheme(np.array([1.0]), 1)
    assert multiscale(a, b, w1) == pytest.approx(realized_cov(a, b), rel=1e-14)


def test_multiscale_hand_example():
    assert multiscale(A, B, cubic_weights(2)) == pytest.approx(4.0, abs=1e-12)


def test_multiscale_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(6, 30))
        t = np.linspace(0, 1, n + 1)
        a = series(t, rng.standard_normal(n + 1).cumsum())
        b = series(t, rng.standard_normal(n + 1).cumsum())
        M = int(rng.integers(2, n))
        w = cubic_weights(M)
        got = multiscale(a, b, w)
        exp = ms_oracle(list(a.values), list(b.values), list(w.alphas))
        assert got == pytest.approx(exp, rel=1e-12)


def test_multiscale_frequency_bound():
    with pytest.raises(ValueError):
        multiscale(A, B, cubic_weights(3))


def test_multiscale_symmetric_and_affine_invariant():
    rng = np.random.default_rng(2)
    t = np.linspace(0, 1, 41)
    a = series(t, rng.standard_normal(41).cumsum())
    b = series(t, rng.standard_normal(41).cumsum())
    w = cubic_weights(5)
    assert multiscale(a, b, w) == multiscale(b, a, w)
    lam = 3.7
    a2 = series(t, lam * a.values)
    b2 = series(t, lam * b.values)
    assert multiscale(a2, b2, w) == pytest.approx(lam**2 * multiscale(a, b, w), rel=1e-12)
    shifted = series(t, a.values + 5.0)
    assert multiscale(shifted, b, w) == pytest.approx(multiscale(a, b, w), rel=1e-12)


def test_multiscale_raw_noise_bias_and_adjustment():
    # pure noise with cross covariance eta12: raw bias is exactly -2 eta12,
    # the adjusted estimator is unbiased up to 2 eta12 / n
    rng = np.random.default_rng(3)
    n, R = 400, 600
    eta12 = 0.5 * 1e-4
    chol = np.linalg.cholesky(np.array([[1e-4, eta12], [eta12, 1e-4]]))
    t = np.linspace(0, 1, n + 1)
    w = cubic_weights(20)
    raw = np.empty(R)
    adj = np.empty(R)
    for i in range(R):
        eps = rng.standard_normal((n + 1, 2)) @ chol.T
        a = series(t, eps[:, 0])
        b = series(t, eps[:, 1])
        raw[i] = multiscale(a, b, w)
        adj[i] = multiscale_adjusted(a, b, w)
    se = raw.std(ddof=1) / np.sqrt(R)
    assert np.mean(raw) == pytest.approx(-2 * eta12, abs=4 * se)
    assert np.mean(adj) == pytest.approx(0.0, abs=4 * se)


# ---------------------------------------------------------------------
# Kernel estimator
# ---------------------------------------------------------------------
def test_kernel_estimator_h1_is_realized_cov():
    rng = np.random.default_rng(4)
    t = np.linspace(0, 1, 11)
    a = series(t, rng.standard_normal(11).cumsum())
    b = series(t, rng.standard_normal(11).cumsum())
    kern = builtin_kernel("cubic")
    assert kernel_estimator(a, b, kern, 1) == pytest.approx(realized_cov(a, b), rel=1e-14)


def test_kernel_estimator_small_fixture_oracle():
    kern = builtin_kernel("cubic")
    t = np.linspace(0, 1, 5)
    a = series(t, [0.0, 0.3, -0.1, 0.4, 0.2])
    b = series(t, [0.0, -0.2, 0.5, 0.1, 0.6])
    got = kernel_estimator(a, b, kern, 2)
    exp = kernel_oracle(list(a.values), list(b.values), kern, 2)
    assert got == pytest.approx(exp, rel=1e-12)


def test_kernel_estimator_variants_match_oracle():
    rng = np.random.default_rng(5)
    kern = builtin_kernel("parzen")
    for adjusted in (False, True):
        n = int(rng.integers(8, 30))
        t = np.linspace(0, 1, n + 1)
        a = series(t, rng.standard_normal(n + 1).cumsum())
        b = series(t, rng.standard_normal(n + 1).cumsum())
        H = int(rng.integers(2, n))
        got = kernel_estimator(a, b, kern, H, adjusted=adjusted)
        exp = kernel_oracle(list(a.values), list(b.values), kern, H, adjusted)
        assert got == pytest.approx(exp, rel=1e-12)


def test_kernel_estimator_bandwidth_bound():
    with pytest.raises(ValueError):
        kernel_estimator(A, B, builtin_kernel("cubic"), 2)


def test_kernel_raw_noise_bias():
    # on pure noise the plain-lag kernel bias is 2 eta12 [n (1 - K(1/H)) + K(1/H)]
    rng = np.random.default_rng(6)
    n, R, H = 400, 600, 20
    eta12 = 0.5 * 1e-4
    chol = np.linalg.cholesky(np.array([[1e-4, eta12], [eta12, 1e-4]]))
    t = np.linspace(0, 1, n + 1)
    kern = builtin_kernel("cubic")
    raw = np.empty(R)
    for i in range(R):
        eps = rng.standard_normal((n + 1, 2)) @ chol.T
        a = series(t, eps[:, 0])
        b = series(t, eps[:, 1])
        raw[i] = kernel_estimator(a, b, kern, H)
    se = raw.std(ddof=1) / np.sqrt(R)
    k1h = kern.k(1 / H)
    expected_raw = 2 * eta12 * (n * (1 - k1h) + k1h)
    assert np.mean(raw) == pytest.approx(expected_raw, abs=4 * se)


# ---------------------------------------------------------------------
# Overlap (Hayashi-Yoshida) estimator
# ---------------------------------------------------------------------
def test_hy_synchronous_equals_realized_cov():
    assert hayashi_yoshida(A, B) == pytest.approx(realized_cov(A, B), rel=1e-14)


def test_hy_hand_example():
    a = series([0.0, 1.0], [0.0, 2.0])
    b = series([0.0, 0.5, 1.0], [0.0, 1.0, -2.0])
    assert hayashi_yoshida(a, b) == pytest.approx(-4.0)


def test_hy_disjoint_supports():
    a = series([0.0, 0.25, 0.5], [0.0, 1.0, 2.0])
    b = series([0.6, 0.8, 1.0], [0.0, 1.0, 2.0])
    assert hayashi_yoshida(a, b) == 0.0


def test_hy_exactly_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_series(rng, int(rng.integers(3, 40)))
        b = random_series(rng, int(rng.integers(3, 40)))
        assert hayashi_yoshida(a, b) == hayashi_yoshida(b, a)


def test_hy_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_series(rng, int(rng.integers(3, 28)))
        b = random_series(rng, int(rng.integers(3, 28)))
        got = hayashi_yoshida(a, b)
        exp = hy_oracle(list(a.scheme.times), list(a.values), list(b.scheme.times), list(b.values))
        assert got == pytest.approx(exp, rel=1e-12, abs=1e-15)


def hayashi_yoshida_refresh(a, b):
    """Refresh-time evaluation of the overlap estimator (cross-check path).

    ``sum_i (a(t_a^+(tau_i)) - a(t_a^-(tau_{i-1}))) * (b(...) - b(...))``
    over the pairwise refresh times; agrees with :func:`hayashi_yoshida`
    exactly.  When the tick ranges are disjoint no refresh time exists and
    no increment intervals overlap, so the estimator is 0.
    """
    try:
        grid = pairwise_refresh(a.scheme, b.scheme)
    except ValueError:
        return 0.0
    va = a.values[grid.next_idx[0]]
    vb = b.values[grid.next_idx[1]]
    pa = a.values[grid.prev_idx[0]]
    pb = b.values[grid.prev_idx[1]]
    return float(np.sum((va[1:] - pa[:-1]) * (vb[1:] - pb[:-1])))


def test_hy_refresh_path_agrees():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_series(rng, int(rng.integers(5, 60)))
        b = random_series(rng, int(rng.integers(5, 60)))
        sweep = hayashi_yoshida(a, b)
        refresh = hayashi_yoshida_refresh(a, b)
        assert refresh == pytest.approx(sweep, rel=1e-12, abs=1e-15)


def test_hy_needs_two_observations():
    single = series([0.5], [1.0])
    with pytest.raises(ValueError):
        hayashi_yoshida(single, A)


# ---------------------------------------------------------------------
# Generalized multi-scale
# ---------------------------------------------------------------------
def test_gms_synchronous_equals_multiscale():
    rng = np.random.default_rng(10)
    t = np.linspace(0, 1, 101)
    a = series(t, rng.standard_normal(101).cumsum())
    b = series(t, rng.standard_normal(101).cumsum())
    w = cubic_weights(8)
    assert generalized_multiscale(a, b, w) == pytest.approx(multiscale(a, b, w), rel=1e-12)
    # n < c^2: both methods clamp M = round(c sqrt(n)) = 6 to n = 4, while the
    # kernel estimator still needs H < n
    t = np.linspace(0, 1, 5)
    data = [series(t, rng.standard_normal(5).cumsum()) for _ in range(2)]
    cfg = EstimatorConfig(c=3.0)
    ms, gms = estimate_matrix(data, "ms", cfg), estimate_matrix(data, "gms", cfg)
    assert ms.per_pair[(0, 1)]["M"] == gms.per_pair[(0, 1)]["M"] == 4
    np.testing.assert_array_equal(ms.matrix, gms.matrix)
    with pytest.raises(ValueError, match="H < n"):
        estimate_matrix(data, "kernel", cfg)


def test_gms_six_point_fixture_oracle():
    a = series([0.0, 0.15, 0.4, 0.55, 0.8, 1.0], [0.0, 0.2, -0.1, 0.4, 0.3, 0.7])
    b = series([0.05, 0.3, 0.5, 0.7, 0.9, 0.97], [0.1, -0.3, 0.2, 0.5, 0.1, 0.4])
    w = cubic_weights(2)
    got = generalized_multiscale(a, b, w)
    exp = gms_oracle(list(a.scheme.times), list(a.values), list(b.scheme.times), list(b.values), list(w.alphas))
    assert got == pytest.approx(exp, rel=1e-12)


def test_gms_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_series(rng, int(rng.integers(6, 28)), endpoints=False)
        b = random_series(rng, int(rng.integers(6, 28)), endpoints=False)
        N = len(pairwise_refresh(a.scheme, b.scheme)) - 1
        if N < 3:
            continue
        w = cubic_weights(int(rng.integers(2, min(5, N + 1))))
        got = generalized_multiscale(a, b, w)
        exp = gms_oracle(list(a.scheme.times), list(a.values), list(b.scheme.times), list(b.values), list(w.alphas))
        assert got == pytest.approx(exp, rel=1e-12)


def test_gms_frequency_bound():
    a = series([0.0, 0.4, 1.0], [0.0, 1.0, 2.0])
    b = series([0.1, 0.5, 0.9], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        generalized_multiscale(a, b, cubic_weights(5))


# ---------------------------------------------------------------------
# Noise moments
# ---------------------------------------------------------------------
def test_noise_moment_diagonal_formula():
    a = series([0.0, 0.5, 1.0], [0.0, 1.0, 3.0])
    nm = noise_moments([a])
    assert nm.h_hat[0, 0] == pytest.approx(5.0 / 4.0)


def test_noise_moments_disjoint_offdiag_zero():
    rng = np.random.default_rng(12)
    a = TickSeries(SamplingScheme(np.sort(rng.uniform(0, 1, 50)), 1.0), rng.standard_normal(50))
    b = TickSeries(SamplingScheme(np.sort(rng.uniform(0, 1, 50)), 1.0), rng.standard_normal(50))
    nm = noise_moments([a, b])
    assert nm.h_hat[0, 1] == 0.0


def test_noise_moments_recover_known_noise():
    rng = np.random.default_rng(13)
    n = 100_000
    eta2 = 1e-6
    t = np.linspace(0, 1, n + 1)
    x = rng.standard_normal(n + 1).cumsum() * 1e-2 / np.sqrt(n)
    ests = []
    for _ in range(8):
        y = x + rng.standard_normal(n + 1) * np.sqrt(eta2)
        ests.append(noise_moments([series(t, y)]).h_hat[0, 0])
    assert np.mean(ests) == pytest.approx(eta2, rel=0.05)


def test_noise_moments_cross_on_shared_grid():
    rng = np.random.default_rng(14)
    n = 60_000
    eta2, rho = 1e-6, 0.6
    chol = np.linalg.cholesky(eta2 * np.array([[1, rho], [rho, 1]]))
    t = np.linspace(0, 1, n + 1)
    eps = rng.standard_normal((n + 1, 2)) @ chol.T
    a = series(t, eps[:, 0])
    b = series(t, eps[:, 1])
    nm = noise_moments([a, b])
    assert nm.h_hat[0, 1] == pytest.approx(rho * eta2, rel=0.15)


def test_noise_moments_vanish_for_smooth_path():
    n = 10_000
    t = np.linspace(0, 1, n + 1)
    a = series(t, np.sin(2 * np.pi * t) * 0.01)
    nm = noise_moments([a])
    assert abs(nm.h_hat[0, 0]) < 1e-6  # O(1/n) of an O(1) realized variance


# ---------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------
def test_estimate_matrix_p1():
    est = estimate_matrix([A], "rc")
    assert est.matrix.shape == (1, 1)
    assert est.matrix[0, 0] == realized_cov(A, A)


def test_estimate_matrix_rc_matches_pairwise():
    rng = np.random.default_rng(15)
    t = np.linspace(0, 1, 201)
    data = [series(t, rng.standard_normal(201).cumsum()) for _ in range(4)]
    est = estimate_matrix(data, "rc")
    for k in range(4):
        for l in range(4):
            assert est.matrix[k, l] == realized_cov(data[k], data[l])
    assert np.array_equal(est.matrix, est.matrix.T)


def test_estimate_matrix_svec_length_p5():
    rng = np.random.default_rng(16)
    t = np.linspace(0, 1, 101)
    data = [series(t, rng.standard_normal(101).cumsum()) for _ in range(5)]
    est = estimate_matrix(data, "rc")
    assert est.svec.size == 15


def test_estimate_matrix_method_scheme_mismatch():
    rng = np.random.default_rng(17)
    a = random_series(rng, 20)
    b = random_series(rng, 20)
    with pytest.raises(ValueError):
        estimate_matrix([a, b], "ms")


def test_estimate_matrix_gms_records_frequencies():
    rng = np.random.default_rng(18)
    data = [random_series(rng, 120, endpoints=False) for _ in range(2)]
    est = estimate_matrix(data, "gms", EstimatorConfig(c=0.8))
    info = est.per_pair[(0, 1)]
    assert info["M"] == max(2, round(0.8 * np.sqrt(info["refresh_count"])))
    assert np.isfinite(est.min_eigenvalue)


def test_scaling_and_shift_invariance_all_estimators():
    rng = np.random.default_rng(19)
    a = random_series(rng, 40)
    b = random_series(rng, 35)
    t = np.linspace(0, 1, 41)
    sa = series(t, rng.standard_normal(41).cumsum())
    sb = series(t, rng.standard_normal(41).cumsum())
    w = cubic_weights(5)
    kern = builtin_kernel("cubic")
    lam = 2.5

    def scaled(s):
        return series(s.scheme.times, lam * s.values, s.scheme.horizon)

    def shifted(s):
        return series(s.scheme.times, s.values + 3.0, s.scheme.horizon)

    cases = [
        (lambda x, y: realized_cov(x, y), sa, sb),
        (lambda x, y: multiscale(x, y, w), sa, sb),
        (lambda x, y: kernel_estimator(x, y, kern, 5), sa, sb),
        (lambda x, y: hayashi_yoshida(x, y), a, b),
        (lambda x, y: generalized_multiscale(x, y, cubic_weights(2)), a, b),
    ]
    for fn, x, y in cases:
        base = fn(x, y)
        assert fn(scaled(x), scaled(y)) == pytest.approx(lam**2 * base, rel=1e-12)
        assert fn(shifted(x), y) == pytest.approx(base, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("method", ["ms", "kernel"])
@pytest.mark.parametrize("kernel", ["cubic", "parzen"])
@pytest.mark.parametrize("adjusted", [True, False])
def test_estimate_matrix_sync_equals_pairwise_loop(p, method, kernel, adjusted):
    rng = np.random.default_rng(21)
    t = np.linspace(0, 1, 301)
    data = [series(t, rng.standard_normal(301).cumsum() * 0.01 + 1e-3 * rng.standard_normal(301)) for _ in range(p)]
    cfg = EstimatorConfig(kernel=kernel, adjusted=adjusted)
    est = estimate_matrix(data, method, cfg)
    mat, per_pair = sync_matrix_oracle(data, method, cfg)
    np.testing.assert_array_equal(est.matrix, mat)
    assert est.per_pair == per_pair


@pytest.mark.parametrize("adjusted", [True, False])
def test_estimate_matrix_sync_clamp_equals_pairwise_loop(adjusted):
    # c^2 > n: ms runs at M = n = 4, and the kernel estimator needs H < n
    rng = np.random.default_rng(22)
    t = np.linspace(0, 1, 5)
    data = [series(t, rng.standard_normal(5).cumsum()) for _ in range(3)]
    cfg = EstimatorConfig(c=3.0, adjusted=adjusted)
    est = estimate_matrix(data, "ms", cfg)
    mat, per_pair = sync_matrix_oracle(data, "ms", cfg)
    np.testing.assert_array_equal(est.matrix, mat)
    assert est.per_pair == per_pair and per_pair[(0, 1)]["M"] == 4
    with pytest.raises(ValueError) as want:
        sync_matrix_oracle(data, "kernel", cfg)
    with pytest.raises(ValueError) as got:
        estimate_matrix(data, "kernel", cfg)
    assert str(got.value) == str(want.value) == "need 1 <= H < n, got H=4, n=4"


def test_estimate_matrix_kernel_method():
    rng = np.random.default_rng(20)
    t = np.linspace(0, 1, 201)
    data = [series(t, rng.standard_normal(201).cumsum() * 0.01) for _ in range(2)]
    est = estimate_matrix(data, "kernel", EstimatorConfig(kernel="parzen", adjusted=True))
    assert est.matrix.shape == (2, 2)
    assert est.per_pair[(0, 1)]["kernel"] == "parzen"


def test_hy_refresh_path_disjoint_supports():
    a = series([0.0, 0.25, 0.5], [0.0, 1.0, 2.0])
    b = series([0.6, 0.8, 1.0], [0.0, 1.0, 2.0])
    assert hayashi_yoshida_refresh(a, b) == 0.0 == hayashi_yoshida(a, b)


# ---------------------------------------------------------------------
# Asset permutation
# ---------------------------------------------------------------------
def _permutation_input(shape, seed, p=4, n=200, fine=6000):
    """Correlated noisy paths on a fine grid, observed on one equidistant
    scheme (``sync``) or on Poisson arrivals snapped to the grid, so some
    stamps coincide across assets (``poisson``, the ``gms_async`` shape)."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, fine + 1)
    corr = np.full((p, p), 0.5) + 0.5 * np.eye(p)
    dw = rng.standard_normal((fine, p)) @ np.linalg.cholesky(corr).T * (0.015 / np.sqrt(fine))
    x = np.vstack([np.zeros(p), np.cumsum(dw, axis=0)])
    if shape == "sync":
        idx = [np.arange(0, fine + 1, fine // n)] * p
    else:
        idx = [np.unique(np.rint(rng.uniform(0.0, 1.0, n) * fine).astype(int)) for _ in range(p)]
    return [series(grid[i], x[i, l] + 1e-3 * rng.standard_normal(i.size)) for l, i in enumerate(idx)]


def test_estimate_matrix_permutation_equivariant():
    cases = [("sync", m) for m in ("rc", "ms", "kernel", "hy", "gms")] + [("poisson", m) for m in ("hy", "gms")]
    differ = []
    for shape, method in cases:
        for seed in range(4):
            data = _permutation_input(shape, seed)
            perms = np.random.default_rng(seed).permuted(np.tile(np.arange(len(data)), (3, 1)), axis=1)
            for kernel in ("cubic", "parzen"):
                cfg = EstimatorConfig(kernel=kernel)
                est = estimate_matrix(data, method, cfg).matrix
                for perm in perms:
                    got = estimate_matrix([data[i] for i in perm], method, cfg).matrix
                    if not np.array_equal(got, est[np.ix_(perm, perm)]):
                        differ.append((shape, method, seed, kernel, tuple(perm)))
    assert differ == []
