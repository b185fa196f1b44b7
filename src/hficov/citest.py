"""Conditional-independence test for a pair of assets given a common factor.

For processes decomposed as ``X1 = rho1 Z + Zperp`` and ``X2 = rho2 Z +
Zdag`` with ``[Z, Zperp] = [Z, Zdag] = 0``, the statistic

    ``T = [X1, Z] [X2, Z] - [X1, X2] [Z]``

is identically zero exactly when the Z-orthogonal parts have zero
covariation over the window, so testing ``T = 0`` tests whether the
dependence of X1 and X2 is fully channelled through Z.  The asymptotic
variance of the estimated statistic follows from the delta method applied
to ``g(x, y, u, v) = x y - u v`` and the asymptotic covariance matrix of
the four bracket estimates; standardizing by its square root gives an
asymptotically standard normal, distribution-free test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .avar import _AcovPlan, _acov_entries, _rate_sq
from .estimators import EstimatorConfig, TickSeries, _estimate_matrix, _same_times, _sync_increments

__all__ = ["CiTestResult", "ci_statistic", "ci_avar", "ci_test"]


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def ci_statistic(b_x1z: float, b_x2z: float, b_x1x2: float, b_z: float) -> float:
    """``[X1,Z][X2,Z] - [X1,X2][Z]`` from the four bracket estimates."""
    return b_x1z * b_x2z - b_x1x2 * b_z


def ci_avar(brackets: tuple[float, float, float, float], acov: np.ndarray) -> float:
    """Delta-method asymptotic variance of the estimated statistic.

    ``brackets`` is ``([X1,Z], [X2,Z], [X1,X2], [Z])`` and ``acov`` their
    4 x 4 asymptotic covariance matrix (ten free entries).  The expansion is
    the quadratic form ``grad g' C grad g`` with
    ``grad g = (b2, b1, -b4, -b3)``, written out:

    * ``+ b2^2 C11 + b1^2 C22 + b4^2 C33 + b3^2 C44``
    * ``+ 2 b1 b2 C12 + 2 b3 b4 C34``
    * ``- 2 b2 b4 C13 - 2 b2 b3 C14 - 2 b1 b4 C23 - 2 b1 b3 C24``
    """
    b1, b2, b3, b4 = brackets
    C = np.asarray(acov, dtype=float)
    if C.shape != (4, 4):
        raise ValueError("acov must be 4 x 4")
    return float(
        b2**2 * C[0, 0]
        + b1**2 * C[1, 1]
        + b4**2 * C[2, 2]
        + b3**2 * C[3, 3]
        + 2 * b1 * b2 * C[0, 1]
        + 2 * b3 * b4 * C[2, 3]
        - 2 * b2 * b4 * C[0, 2]
        - 2 * b2 * b3 * C[0, 3]
        - 2 * b1 * b4 * C[1, 2]
        - 2 * b1 * b3 * C[1, 3]
    )


@dataclass(frozen=True)
class CiTestResult:
    """Outcome of the conditional-independence test.

    ``z`` and ``p_value`` are ``None`` when the estimated asymptotic
    variance is nonpositive (the test is then reported inconclusive rather
    than fabricating a p-value).
    """

    statistic: float
    avar_hat: float
    z: float | None
    p_value: float | None
    brackets: tuple[float, float, float, float]
    acov_entries: np.ndarray
    rate: str
    n_ref: float

    @property
    def inconclusive(self) -> bool:
        return self.z is None


def ci_test(
    x1: TickSeries,
    x2: TickSeries,
    z: TickSeries,
    method: str = "rc",
    config: EstimatorConfig | None = None,
) -> CiTestResult:
    """Run the conditional-independence test on three tick series.

    Estimates the four brackets with ``method`` (``rc`` or ``gms``; ``ms``
    and ``kernel`` are accepted on synchronous schemes), computes only the
    ten asymptotic covariance entries of those brackets, as
    :func:`hficov.avar.acov_matrix_hat` would for the 3-asset system with
    the same method, kernel and ``c``, standardizes on the raw covariance
    scale (the rate factors cancel between numerator and denominator), and
    reports a two-sided normal p-value.  ``hy`` raises ``ValueError``: there
    is no data-driven asymptotic covariance estimator for the overlap
    estimator.  So does passing one series object as two of the arguments,
    which makes the statistic meaningless.
    """
    cfg = config or EstimatorConfig()
    data = [x1, x2, z]
    for (na, a), (nb, b) in itertools.combinations(zip(("x1", "x2", "z"), data), 2):
        if a is b:
            raise ValueError(f"{na} and {nb} are the same series; the test needs three distinct series")
    # the estimates and acov entries share one plan's pairwise grids (gms)
    # or one increment matrix (rc)
    plan = _AcovPlan(data, cfg) if method == "gms" else None
    sync_error = f"method {method!r} requires synchronous schemes; use 'gms'"
    incs = _sync_increments(data, sync_error) if method == "rc" else None
    if method in ("ms", "kernel") and not _same_times([s.scheme for s in data]):
        raise ValueError(sync_error)
    m = _estimate_matrix(data, method, cfg, plan.grid if plan else None, incs).matrix
    # bracket order: b1 = [X1,Z], b2 = [X2,Z], b3 = [X1,X2], b4 = [Z]
    brackets = (m[0, 2], m[1, 2], m[0, 1], m[2, 2])

    entries, rate, n_ref = _acov_entries(data, method, [(1, 3), (2, 3), (1, 2), (3, 3)], cfg, plan, incs)
    C = entries / _rate_sq(rate, n_ref)

    t_hat = ci_statistic(*brackets)
    avar_raw = ci_avar(brackets, C)
    if avar_raw <= 0.0 or not np.isfinite(avar_raw):
        return CiTestResult(t_hat, avar_raw, None, None, brackets, C, rate, n_ref)
    z_val = t_hat / math.sqrt(avar_raw)
    p_val = 2.0 * (1.0 - _phi(abs(z_val)))
    return CiTestResult(t_hat, avar_raw, float(z_val), float(p_val), brackets, C, rate, n_ref)
