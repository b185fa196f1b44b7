from unittest import mock

import numpy as np
import pytest

from hficov import estimators
from hficov.avar import GmsAcovConfig, acov_matrix_hat
from hficov.citest import ci_avar, ci_statistic, ci_test
from hficov.estimators import EstimatorConfig, TickSeries
from hficov.sampling import SamplingScheme

from oracles import ci_avar_gradient_oracle


def series(times, values, T=1.0):
    return TickSeries(SamplingScheme(np.asarray(times, float), T), np.asarray(values, float))


# ---------------------------------------------------------------------
# Statistic
# ---------------------------------------------------------------------
def test_statistic_zero_under_proportional_construction():
    rho1, rho2, bz = 0.5, 2.0, 3.0
    assert ci_statistic(rho1 * bz, rho2 * bz, rho1 * rho2 * bz, bz) == 0.0


def test_statistic_negative_when_only_direct_covariation():
    assert ci_statistic(0.0, 0.0, 1.0, 1.0) == -1.0


def test_statistic_swap_invariant():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b1, b2, b12, bz = rng.standard_normal(4)
        assert ci_statistic(b1, b2, b12, bz) == ci_statistic(b2, b1, b12, bz)


def test_statistic_under_alternative_expansion():
    # X1 = r1 Z + Zp, X2 = r2 Z + Zd with [Zp, Zd] = kappa:
    # the statistic of the true brackets is -kappa [Z]
    r1, r2, bz, kappa = 0.7, 1.3, 2.0, 0.4
    b_x1z = r1 * bz
    b_x2z = r2 * bz
    b_x1x2 = r1 * r2 * bz + kappa
    assert ci_statistic(b_x1z, b_x2z, b_x1x2, bz) == pytest.approx(-kappa * bz)


# ---------------------------------------------------------------------
# Delta-method variance
# ---------------------------------------------------------------------
def test_ci_avar_single_surviving_term():
    C = np.zeros((4, 4))
    C[2, 2] = 7.0  # AVAR of the [X1, X2] bracket
    assert ci_avar((0.0, 0.0, 0.0, 1.0), C) == 7.0


def test_ci_avar_zero_brackets():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4))
    assert ci_avar((0.0, 0.0, 0.0, 0.0), m @ m.T) == 0.0


def test_ci_avar_matches_gradient_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b = tuple(rng.standard_normal(4))
        m = rng.standard_normal((4, 4))
        C = m @ m.T
        got = ci_avar(b, C)
        exp = ci_avar_gradient_oracle(b, C.tolist())
        assert got == pytest.approx(exp, rel=1e-12)


def test_ci_avar_nonnegative_on_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        assert ci_avar(tuple(rng.standard_normal(4)), m @ m.T) >= -1e-12


# ---------------------------------------------------------------------
# End-to-end test
# ---------------------------------------------------------------------
def _triple(rng, n=1500, alt=0.0):
    t = np.linspace(0, 1, n + 1)
    dt = 1.0 / n
    rho1, rho2 = 0.7, 0.9
    corr = np.array([[1.0, alt], [alt, 1.0]])
    chol = np.linalg.cholesky(corr)
    z = np.concatenate([[0.0], np.cumsum(0.015 * rng.standard_normal(n) * np.sqrt(dt))])
    base = rng.standard_normal((n, 2)) @ chol.T * np.sqrt(dt)
    zp = np.concatenate([[0.0], np.cumsum(0.012 * base[:, 0])])
    zd = np.concatenate([[0.0], np.cumsum(0.012 * base[:, 1])])
    sch = SamplingScheme(t, 1.0)
    return (
        TickSeries(sch, rho1 * z + zp),
        TickSeries(sch, rho2 * z + zd),
        TickSeries(sch, z),
    )


def test_ci_test_null_gives_sane_p_value():
    rng = np.random.default_rng(4)
    res = ci_test(*_triple(rng), method="rc")
    assert not res.inconclusive
    assert 0.0 <= res.p_value <= 1.0
    assert res.avar_hat > 0
    assert res.rate == "sqrt_n"


def test_ci_test_sign_convention_under_positive_dependence():
    # positively covarying orthogonal parts push the statistic negative
    rng = np.random.default_rng(5)
    zs = [ci_test(*_triple(rng, alt=0.9), method="rc").z for _ in range(5)]
    assert np.mean(zs) < -2


def test_ci_test_statistic_matches_bracket_identity():
    rng = np.random.default_rng(6)
    x1, x2, z = _triple(rng)
    res = ci_test(x1, x2, z, method="rc")
    b1, b2, b12, bz = res.brackets
    assert res.statistic == pytest.approx(b1 * b2 - b12 * bz, rel=1e-12)


def test_ci_test_gms_method_runs():
    rng = np.random.default_rng(7)
    x1, x2, z = _triple(rng, n=800)
    res = ci_test(x1, x2, z, method="gms")
    assert res.rate == "n_quarter"
    assert res.p_value is None or 0 <= res.p_value <= 1


def test_ci_test_acov_uses_estimator_kernel_and_c():
    rng = np.random.default_rng(8)
    x1, x2, z = (TickSeries(s.scheme, s.values + 5e-4 * rng.standard_normal(len(s))) for s in _triple(rng, n=300))
    res = ci_test(x1, x2, z, method="gms", config=EstimatorConfig(kernel="parzen", c=0.5))
    raw = acov_matrix_hat([x1, x2, z], "gms", GmsAcovConfig(kernel="parzen", c=0.5)).raw()
    idx = [2, 4, 1, 5]  # svec positions of (1,3), (2,3), (1,2), (3,3) for p = 3
    np.testing.assert_array_equal(res.acov_entries, raw[np.ix_(idx, idx)])


def test_ci_test_rc_acov_entries_equal_full_matrix_gather():
    rng = np.random.default_rng(10)
    x1, x2, z = _triple(rng, n=300)
    res = ci_test(x1, x2, z, method="rc")
    raw = acov_matrix_hat([x1, x2, z], "rc").raw()
    idx = [2, 4, 1, 5]  # svec positions of (1,3), (2,3), (1,2), (3,3) for p = 3
    np.testing.assert_array_equal(res.acov_entries, raw[np.ix_(idx, idx)])


def test_ci_test_hy_has_no_acov_estimator():
    # noiseless Poisson triple: hy brackets exist, a data-driven hy acov does not
    rng = np.random.default_rng(9)
    data = []
    for _ in range(3):
        t = np.unique(np.concatenate([[0.0], rng.uniform(0, 1, 200), [1.0]]))
        data.append(series(t, np.cumsum(0.01 * rng.standard_normal(t.size))))
    with pytest.raises(ValueError, match="'hy'"):
        ci_test(*data, method="hy")


def test_ci_test_rc_checks_and_differences_each_series_once():
    rng = np.random.default_rng(11)
    x1, x2, z = _triple(rng, n=300)
    expected = ci_test(x1, x2, z, method="rc")
    with (
        mock.patch.object(TickSeries, "increments", autospec=True, side_effect=TickSeries.increments) as incs,
        mock.patch.object(estimators, "_same_times", side_effect=estimators._same_times) as same,
    ):
        res = ci_test(x1, x2, z, method="rc")
    assert incs.call_count <= 3
    assert same.call_count == 1
    assert (res.statistic, res.avar_hat, res.brackets) == (expected.statistic, expected.avar_hat, expected.brackets)
    np.testing.assert_array_equal(res.acov_entries, expected.acov_entries)


def test_ci_test_rc_on_async_schemes_names_only_gms():
    rng = np.random.default_rng(12)
    data = []
    for _ in range(3):
        t = np.unique(np.concatenate([[0.0], rng.uniform(0, 1, 100), [1.0]]))
        data.append(series(t, np.cumsum(0.01 * rng.standard_normal(t.size))))
    with pytest.raises(ValueError) as err:
        ci_test(*data, method="rc")
    assert str(err.value) == "method 'rc' requires synchronous schemes; use 'gms'"


@pytest.mark.parametrize("method", ["ms", "kernel"])
def test_ci_test_sync_methods_on_async_schemes_name_only_gms(method):
    # ci_test rejects 'hy', so it must not advise it; estimate_matrix keeps its advice
    rng = np.random.default_rng(12)
    data = []
    for _ in range(3):
        t = np.unique(np.concatenate([[0.0], rng.uniform(0, 1, 100), [1.0]]))
        data.append(series(t, np.cumsum(0.01 * rng.standard_normal(t.size))))
    with pytest.raises(ValueError) as err:
        ci_test(*data, method=method)
    assert str(err.value) == f"method {method!r} requires synchronous schemes; use 'gms'"
    with pytest.raises(ValueError) as err:
        estimators.estimate_matrix(data, method)
    assert str(err.value) == f"method {method!r} requires synchronous schemes; use 'hy' or 'gms'"


@pytest.mark.parametrize("method", ["rc", "gms"])
@pytest.mark.parametrize("slots", [(0, 1), (0, 2), (1, 2)])
def test_ci_test_rejects_one_series_in_two_slots(method, slots):
    rng = np.random.default_rng(13)
    args = list(_triple(rng, n=300))
    args[slots[1]] = args[slots[0]]
    names = ("x1", "x2", "z")
    with pytest.raises(ValueError, match=f"{names[slots[0]]} and {names[slots[1]]} are the same series"):
        ci_test(*args, method=method)
