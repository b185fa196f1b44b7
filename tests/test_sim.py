import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hficov.estimators import realized_cov
from hficov.sampling import SamplingScheme
from hficov.sim import (
    _snap_scheme,
    ItoModelConfig,
    NoiseConfig,
    SamplingConfig,
    mc_validate,
    observe,
    sample_scheme,
    simulate_paths,
)

from oracles import default_test_model, sv_paths_oracle


CONST2 = ItoModelConfig(p=2, sigma_const=np.linalg.cholesky(np.array([[4e-4, 1e-4], [1e-4, 2e-4]])))


# ---------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------
def test_simulate_paths_deterministic():
    a = simulate_paths(CONST2, 42, times=np.linspace(0.0, 1.0, 501))
    b = simulate_paths(CONST2, 42, times=np.linspace(0.0, 1.0, 501))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.integrated_cov, b.integrated_cov)


def test_simulate_paths_constant_truth():
    p = simulate_paths(CONST2, 0, times=np.linspace(0.0, 1.0, 101))
    np.testing.assert_allclose(p.integrated_cov, CONST2.sigma_const @ CONST2.sigma_const.T, rtol=1e-12)


def test_increment_scaling_regression():
    # E[(dX)^2] = O(dt): the log-log regression slope of mean squared
    # increments on the step size is 1
    model = ItoModelConfig(p=1, sigma_const=np.array([[0.02]]))
    rng = np.random.default_rng(1)
    slopes = []
    sizes = np.array([200, 800, 3200, 12800])
    ms = []
    for m in sizes:
        paths = simulate_paths(model, rng, times=np.linspace(0.0, 1.0, int(m) + 1))
        ms.append(np.mean(np.diff(paths.x[0]) ** 2))
    slope = np.polyfit(np.log(1.0 / sizes), np.log(ms), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_simulate_paths_explicit_times():
    times = np.array([0.0, 0.2, 0.5, 1.0])
    p = simulate_paths(CONST2, 3, times=times)
    assert p.x.shape == (2, 4)
    with pytest.raises(ValueError):
        simulate_paths(CONST2, 3, times=np.array([0.1, 0.5, 1.0]))
    # a step back would take the square root of a negative step: NaN paths
    for bad in ([0.0, 0.5, 0.3, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_paths(CONST2, 3, times=np.array(bad))


@pytest.mark.parametrize(
    "field, value",
    [("p", 0), ("sv_kappa", 0.0), ("sv_kappa", -5.0), ("sv_vbar", -1e-4), ("sv_xi", -0.1),
     ("sv_rho_lev", 1.5), ("sv_rho_lev", -1.01), ("sv_v0", -1e-6)],
)
def test_ito_model_rejects_bad_parameters(field, value):
    # unchecked, a negative vbar simulates a zero variance path, a negative
    # kappa a mean-repelling one, and |rho| > 1 fails later as a math domain error
    with pytest.raises(ValueError, match=rf"^ItoModelConfig\.{field} must be"):
        ItoModelConfig(**{"p": 2, field: value})


def test_simulate_paths_memory_linear_in_p():
    # paths keep O(m p) floats: no (m, p, p) volatility tensor
    import tracemalloc

    p, m = 10, 50_000
    times = np.linspace(0.0, 1.0, m + 1)
    # bounds in floats per (step, component): 6 for constant volatility, 12 for SV
    for model, floats in [(ItoModelConfig(p=p, sigma_const=0.01 * np.eye(p)), 6), (ItoModelConfig(p=p), 12)]:
        tracemalloc.start()
        try:
            simulate_paths(model, 0, times=times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= floats * p * m * 8, (model.stochastic_vol, peak)


def test_stochastic_vol_paths():
    model = default_test_model()
    paths = simulate_paths(model, 7, times=np.linspace(0.0, 1.0, 2001))
    # integrated covariance is random across seeds
    other = simulate_paths(model, 8, times=np.linspace(0.0, 1.0, 2001))
    assert not np.allclose(paths.integrated_cov, other.integrated_cov)


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("xi", [5e-3, 0.05])
def test_sv_recursion_equals_array_loop(p, xi):
    model = ItoModelConfig(p=p, sv_xi=xi, sv_vbar=1e-4)
    times = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(p).uniform(0, 1, 1500)]))
    truncated = False
    for seed in range(3):
        paths = simulate_paths(model, seed, times=times)
        x, sigma, icov = sv_paths_oracle(model, seed, times)
        np.testing.assert_array_equal(paths.x, x)
        np.testing.assert_array_equal(paths.integrated_cov, icov)
        truncated |= bool(np.any(np.diagonal(sigma, axis1=1, axis2=2) == 0.0))
    # at xi = 0.05 the variance hits zero, so the truncation branch runs
    assert truncated == (xi == 0.05)


def test_fine_grid_realized_cov_near_truth():
    rng = np.random.default_rng(2)
    sig = CONST2.sigma_const
    truth = (sig @ sig.T)[0, 1]
    vals = []
    for _ in range(60):
        paths = simulate_paths(CONST2, rng, times=np.linspace(0.0, 1.0, 2001))
        sch = SamplingScheme(paths.times, 1.0)
        data = observe(paths, [sch, sch], None, rng)
        vals.append(realized_cov(data[0], data[1]))
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert np.mean(vals) == pytest.approx(truth, abs=3.5 * se)


# ---------------------------------------------------------------------
# Sampling schemes
# ---------------------------------------------------------------------
def test_equidistant_scheme():
    s = sample_scheme(SamplingConfig("equidistant", 4), 1.0, 0)
    np.testing.assert_allclose(s.times, [0, 0.25, 0.5, 0.75, 1.0])


def test_poisson_scheme_count_concentrates():
    inside = 0
    for seed in range(40):
        s = sample_scheme(SamplingConfig("poisson", 1000), 1.0, seed)
        if 900 <= len(s) <= 1100:
            inside += 1
    assert inside >= 36  # ~95% of seeds


def test_poisson_scheme_augmented_endpoints():
    s = sample_scheme(SamplingConfig("poisson", 50), 1.0, 1)
    assert s.times[0] == 0.0 and s.times[-1] == 1.0
    s2 = sample_scheme(SamplingConfig("poisson", 50, augmented=False), 1.0, 1)
    assert s2.times[0] > 0.0


def test_poisson_scheme_needs_mass():
    with pytest.raises(ValueError):
        sample_scheme(SamplingConfig("poisson", 5), 1.0, 0)


def test_two_poisson_schemes_share_no_timestamps():
    rng = np.random.default_rng(3)
    a = sample_scheme(SamplingConfig("poisson", 500, augmented=False), 1.0, rng)
    b = sample_scheme(SamplingConfig("poisson", 500, augmented=False), 1.0, rng)
    assert np.intersect1d(a.times, b.times).size == 0


# ---------------------------------------------------------------------
# Observation / noise
# ---------------------------------------------------------------------
def test_observe_noiseless_hits_path_values():
    paths = simulate_paths(CONST2, 5, times=np.linspace(0.0, 1.0, 401))
    sch = SamplingScheme(paths.times[::4], 1.0)
    data = observe(paths, [sch, sch], None, 5)
    np.testing.assert_array_equal(data[0].values, paths.x[0][::4])


def test_observe_snaps_to_grid():
    paths = simulate_paths(CONST2, 6, times=np.linspace(0.0, 1.0, 101))
    sch = SamplingScheme(np.array([0.0, 0.1234, 0.5031, 1.0]), 1.0)
    data = observe(paths, [sch, sch], None, 6)
    for t in data[0].scheme.times:
        assert np.min(np.abs(paths.times - t)) == 0.0


def unique_snap_reference(scheme, grid):
    """Reference: snap to the nearest grid point and drop collisions with ``np.unique``."""
    idx = np.searchsorted(grid, scheme.times)
    idx = np.clip(idx, 0, grid.size - 1)
    left_ok = idx > 0
    use_left = left_ok & (
        np.abs(grid[np.maximum(idx - 1, 0)] - scheme.times) <= np.abs(grid[idx] - scheme.times)
    )
    idx = np.unique(np.where(use_left, idx - 1, idx))
    return SamplingScheme(grid[idx], scheme.horizon), idx


@st.composite
def coarse_snap_case(draw):
    # times on a 4x finer lattice than the grid: many collisions, and exact
    # midpoint ties whenever g is a power of two; a grid shorter than the
    # horizon snaps every later time to its last point
    g = draw(st.one_of(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 40)))
    top = draw(st.sampled_from([1.0, 0.5, 0.3]))
    ks = draw(st.lists(st.integers(0, 4 * g), min_size=1, max_size=60, unique=True))
    times = np.sort(np.asarray(ks, float)) / (4 * g)
    if draw(st.booleans()):
        times = np.unique(np.clip(times + draw(st.floats(-1e-3, 1e-3)), 0.0, 1.0))
    return SamplingScheme(times, 1.0), np.linspace(0.0, top, g + 1)


@settings(max_examples=300)
@given(coarse_snap_case())
def test_snap_scheme_equals_unique_reference(case):
    scheme, grid = case
    got, idx = _snap_scheme(scheme, grid)
    ref, ref_idx = unique_snap_reference(scheme, grid)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(got.times, ref.times)


def test_observe_synchronous_noise_cross_covariance():
    rng = np.random.default_rng(7)
    eta2, rho = 1e-6, 0.5
    H = eta2 * np.array([[1, rho], [rho, 1]])
    paths = simulate_paths(ItoModelConfig(p=2, sigma_const=np.zeros((2, 2))), rng, times=np.linspace(0.0, 1.0, 50_001))
    sch = SamplingScheme(paths.times, 1.0)
    data = observe(paths, [sch, sch], NoiseConfig(H), rng)
    emp = np.mean(data[0].values * data[1].values)
    se = np.sqrt(eta2 * eta2 * (1 + rho**2) / len(sch))
    assert emp == pytest.approx(rho * eta2, abs=4 * se)
    assert abs(np.mean(data[0].values)) < 4 * np.sqrt(eta2 / len(sch))


def test_observe_async_noise_independent():
    rng = np.random.default_rng(8)
    H = 1e-6 * np.array([[1, 0.9], [0.9, 1]])
    paths = simulate_paths(ItoModelConfig(p=2, sigma_const=np.zeros((2, 2))), rng, times=np.linspace(0.0, 1.0, 200_001))
    s1 = sample_scheme(SamplingConfig("poisson", 5000, augmented=False), 1.0, rng)
    s2 = sample_scheme(SamplingConfig("poisson", 5000, augmented=False), 1.0, rng)
    data = observe(paths, [s1, s2], NoiseConfig(H), rng)
    # disjoint timestamps: draws independent despite eta12 != 0
    a = data[0].values[: min(len(data[0]), len(data[1]))]
    b = data[1].values[: min(len(data[0]), len(data[1]))]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_observe_partially_shared_noise_correlated_only_at_shared():
    rng = np.random.default_rng(9)
    eta2, rho = 1e-4, 0.8
    H = eta2 * np.array([[1, rho], [rho, 1]])
    m = 4000
    grid = np.linspace(0, 1, m + 1)
    shared = grid[::2]
    only1 = grid[1::4]
    only2 = grid[3::4]
    s1 = SamplingScheme(np.union1d(shared, only1), 1.0)
    s2 = SamplingScheme(np.union1d(shared, only2), 1.0)
    paths = simulate_paths(ItoModelConfig(p=2, sigma_const=np.zeros((2, 2))), rng, times=grid)
    data = observe(paths, [s1, s2], NoiseConfig(H), rng)
    i1 = np.isin(data[0].scheme.times, shared)
    i2 = np.isin(data[1].scheme.times, shared)
    shared_corr = np.corrcoef(data[0].values[i1], data[1].values[i2])[0, 1]
    off_corr = np.corrcoef(data[0].values[~i1][:900], data[1].values[~i2][:900])[0, 1]
    assert shared_corr == pytest.approx(rho, abs=0.08)
    assert abs(off_corr) < 0.12


@pytest.mark.parametrize("shared", [True, False], ids=["shared-grid", "distinct-grids"])
def test_observe_rejects_noise_of_wrong_dimension(shared):
    # unchecked, a 1x1 H broadcasts to two perfectly correlated noise series
    # on a shared grid and raises a bare IndexError on distinct grids
    paths = simulate_paths(CONST2, 4, times=np.linspace(0.0, 1.0, 401))
    s1 = SamplingScheme(paths.times[::4], 1.0)
    s2 = s1 if shared else SamplingScheme(paths.times[1::4], 1.0)
    with pytest.raises(ValueError, match=r"\(1, 1\).*\(2, 2\)"):
        observe(paths, [s1, s2], NoiseConfig(np.array([[1e-6]])), 4)


# ---------------------------------------------------------------------
# Monte Carlo harness plumbing
# ---------------------------------------------------------------------
def test_mc_validate_unknown_scenario():
    with pytest.raises(ValueError):
        mc_validate("nope")


def test_mc_validate_minimum_replicates():
    with pytest.raises(ValueError):
        mc_validate("ci_size", replicates=10)


def test_mc_validate_reproducible_report():
    a = mc_validate("hy_acov", replicates=120, seed=5, n=200)
    b = mc_validate("hy_acov", replicates=120, seed=5, n=200)
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_covest_threads_reproduces_serial(monkeypatch):
    runs = [("hy_acov", 150, {"n": 250}), ("ci_size", 100, {})]
    serial = [mc_validate(name, replicates=r, seed=9, **kw) for name, r, kw in runs]
    monkeypatch.setenv("COVEST_THREADS", "3")
    threaded = [mc_validate(name, replicates=r, seed=9, **kw) for name, r, kw in runs]
    for report in serial + threaded:
        report.pop("elapsed_s")
    assert serial == threaded
