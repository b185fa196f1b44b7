import math

import numpy as np
import pytest

from hficov import kernels
from hficov.kernels import (
    KernelFunction,
    WeightScheme,
    builtin_kernel,
    cubic_weights,
    end_effect_adjust,
    kernel_constants,
    weights_from_kernel,
)


# ---------------------------------------------------------------------
# Built-in kernels
# ---------------------------------------------------------------------
def test_cubic_boundary_and_midpoint():
    k = builtin_kernel("cubic")
    assert k.k(0.0) == 1.0
    assert k.k(1.0) == 0.0
    assert k.k(0.5) == pytest.approx(0.5)


def test_parzen_continuous_at_half():
    k = builtin_kernel("parzen")
    left = 1 - 6 * 0.5**2 + 6 * 0.5**3
    right = 2 * (1 - 0.5) ** 3
    assert left == right == pytest.approx(0.25)
    assert k.k(0.5) == pytest.approx(0.25)


def test_tukey_hanning_boundary():
    k = builtin_kernel("tukey_hanning", 1)
    assert k.k(0.0) == pytest.approx(math.sin(math.pi / 2) ** 2) == 1.0
    assert builtin_kernel("th3").k(0.0) == pytest.approx(1.0)


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        builtin_kernel("triangle")


def test_kernel_boundary_conditions_enforced():
    with pytest.raises(ValueError):
        KernelFunction("linear", k=lambda x: 1 - x)  # K'(0) != 0


def test_user_kernel_with_finite_differences():
    k = KernelFunction("quartic", k=lambda x: (1 - x**2) ** 2)
    w = weights_from_kernel(k, 200)
    i = np.arange(1, 201)
    assert abs(w.alphas.sum() - 1) < 1e-12
    assert abs((w.alphas / i).sum()) < 1e-12


def test_builtin_derivatives_match_finite_differences():
    for name in ("cubic", "parzen", "th1", "th2"):
        k = builtin_kernel(name)
        for x in (0.1, 0.3, 0.7, 0.9):
            fd1 = (k.k(x + 1e-6) - k.k(x - 1e-6)) / 2e-6
            assert k.k1(x) == pytest.approx(fd1, abs=1e-5)
            fd2 = (k.k1(x + 1e-6) - k.k1(x - 1e-6)) / 2e-6
            assert k.k2(x) == pytest.approx(fd2, abs=1e-4)


# ---------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------
def test_cubic_weights_hand_values():
    np.testing.assert_allclose(cubic_weights(2).alphas, [-1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(cubic_weights(3).alphas, [-0.5, 0.0, 1.5], atol=1e-14)


@pytest.mark.parametrize("M", [2, 5, 37, 400])
def test_weight_identities_exact(M):
    w = cubic_weights(M)
    i = np.arange(1, M + 1)
    assert abs(w.alphas.sum() - 1) < 1e-12
    assert abs((w.alphas / i).sum()) < 1e-12


@pytest.mark.parametrize("name", ["cubic", "parzen", "tukey_hanning"])
def test_generated_weights_satisfy_identities(name):
    w = weights_from_kernel(builtin_kernel(name), 300)
    i = np.arange(1, 301)
    assert abs(w.alphas.sum() - 1) < 1e-12
    assert abs((w.alphas / i).sum()) < 1e-12


def test_weights_from_kernel_matches_exact_cubic():
    for M in (100, 1000):
        got = weights_from_kernel(builtin_kernel("cubic"), M).alphas
        exact = cubic_weights(M).alphas
        rel = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
        assert rel < 5.0 / M


def test_first_order_weights_match_tabulated_forms():
    M = 500
    i = np.arange(1, M + 1, dtype=float)
    cub = weights_from_kernel(builtin_kernel("cubic"), M).alphas
    first = 12 * i**2 / M**3 - 6 * i / M**2
    assert np.max(np.abs(cub - first)) < 10.0 / M**2
    par = weights_from_kernel(builtin_kernel("parzen"), M).alphas
    x = i / M
    first_p = np.where(x <= 0.5, (i / M**2) * (36 * x - 12), (i / M**2) * (12 - 12 * x))
    assert np.max(np.abs(par - first_p)) < 30.0 / M**2


def test_rejects_kernel_failing_side_conditions():
    # violates int_0^1 x K''(x) dx = 1 via a scaled kernel; boundary check
    # triggers first for the scale, so construct one with flat boundaries.
    k = KernelFunction("flat", k=lambda x: (1 - x**2) ** 2, k1=lambda x: -4 * x * (1 - x**2), k2=lambda x: 12 * x**2 - 4)
    bad = KernelFunction("halfscale", k=k.k, k1=k.k1, k2=lambda x: 0.5 * k.k2(x))
    # the verdict is kept per kernel, and every call still raises
    for M in (50, 60):
        with pytest.raises(ValueError, match="side conditions"):
            weights_from_kernel(bad, M)


def test_side_condition_check_runs_once_per_builtin_kernel(monkeypatch):
    calls = []
    simpson = kernels._simpson
    monkeypatch.setattr(kernels, "_simpson", lambda y, x: calls.append(1) or simpson(y, x))
    fresh = kernels._parzen()
    first = weights_from_kernel(fresh, 95).alphas
    assert len(calls) == 2
    for M in (95, 40, 95):
        weights_from_kernel(fresh, M)
    assert len(calls) == 2
    # one instance per built-in kernel, so its check is not rerun per lookup
    assert builtin_kernel("parzen") is builtin_kernel(" Parzen ")
    assert builtin_kernel("th2") is builtin_kernel("tukey_hanning", 2)
    np.testing.assert_array_equal(weights_from_kernel(builtin_kernel("parzen"), 95).alphas, first)


def test_transform_identity_kappa_approximates_kernel():
    M = 800
    w = cubic_weights(M)
    kern = builtin_kernel("cubic")
    kappa = w.kappas()
    grid = np.arange(0, M + 1) / M
    assert np.max(np.abs(kappa - [kern.k(x) for x in grid])) < 2.0 / M


# ---------------------------------------------------------------------
# End-effect adjustment
# ---------------------------------------------------------------------
def test_end_effect_adjust_literal():
    w = end_effect_adjust(cubic_weights(2), 100)
    np.testing.assert_allclose(w.alphas, [-0.98, 1.98])
    assert w.end_adjusted


def test_end_effect_preserves_sum():
    w = cubic_weights(40)
    adj = end_effect_adjust(w, 1234)
    assert adj.alphas.sum() == pytest.approx(1.0, abs=1e-12)


def test_end_effect_needs_two_scales():
    with pytest.raises(ValueError):
        end_effect_adjust(WeightScheme(np.array([1.0]), 1), 10)


# ---------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------
def test_cubic_constants_near_reference():
    kc = kernel_constants(cubic_weights(2000))
    assert kc.n1 == pytest.approx(12.0, rel=0.02)
    assert kc.d == pytest.approx(13 / 70, rel=0.02)
    assert kc.mconst == pytest.approx(6 / 5, rel=0.02)
    assert kc.n2 == pytest.approx(6 / 5, rel=0.02)


def test_constants_converge_with_m():
    prev = None
    for M in (250, 500, 1000, 2000):
        kc = kernel_constants(cubic_weights(M))
        vals = np.array([kc.n1, kc.n2, kc.d, kc.mconst])
        if prev is not None:
            gaps = np.abs(vals - prev["vals"])
            assert np.all(gaps <= prev["gaps"] + 1e-12)
            prev["gaps"] = gaps
        else:
            prev = {"gaps": np.full(4, np.inf)}
        prev["vals"] = vals


def test_mconst_equals_min_weighted_double_sum():
    # mconst is defined through M * sum_{i,r} (a_i a_r / (i r)) min(i, r);
    # check the closed evaluation against the literal double sum.
    w = cubic_weights(60)
    i = np.arange(1, 61, dtype=float)
    lit = 60 * sum(
        w.alphas[a - 1] * w.alphas[b - 1] / (a * b) * min(a, b)
        for a in range(1, 61)
        for b in range(1, 61)
    )
    assert kernel_constants(w).mconst == pytest.approx(lit, rel=1e-12)
