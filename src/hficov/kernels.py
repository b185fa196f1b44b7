"""Smoothing kernels, multi-scale weight generation, and asymptotic constants.

A weight vector ``a_1..a_M`` with ``sum a_i = 1`` and ``sum a_i / i = 0``
turns a family of subsampled realized covariances into a noise-cancelling
multi-scale estimator.  Weights can be generated from a smoothing kernel
``K`` (through ``h = K''``), in which case the multi-scale estimator and the
autocovariance-kernel estimator built from the same ``K`` share their
asymptotic distribution.

The constants reported by :func:`kernel_constants` follow the tabulation
convention of the published literature on these estimators (the cubic row
reads ``(12, 13/70, 6/5, 6/5)``).  The coefficient combinations that
actually enter asymptotic covariances are exposed as properties on
:class:`KernelConstants`; see the notes there, since published tables mix
conventions across kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "KernelFunction",
    "builtin_kernel",
    "WeightScheme",
    "weights_from_kernel",
    "cubic_weights",
    "end_effect_adjust",
    "KernelConstants",
    "kernel_constants",
]

_BOUNDARY_TOL = 1e-10
_FD_STEP = 1e-5


@dataclass(frozen=True)
class KernelFunction:
    """A smoothing kernel on [0, 1] with its first two derivatives.

    Built-in kernels carry closed-form derivatives; user kernels may pass
    ``None`` for ``k1``/``k2`` to fall back on central differences.  The
    boundary conditions K(0)=1, K(1)=0, K'(0)=0, K'(1)=0 are checked to
    1e-10 at construction.
    """

    name: str
    k: Callable[[float], float]
    k1: Callable[[float], float] | None = None
    k2: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        fd_based = self.k1 is None
        if self.k1 is None:
            object.__setattr__(self, "k1", _fd1(self.k))
        if self.k2 is None:
            object.__setattr__(self, "k2", _fd1(self.k1))
        # finite-difference derivatives carry O(step^2) truncation error at
        # the boundary, so the derivative checks get a matching tolerance
        tol_d = 1e-6 if fd_based else _BOUNDARY_TOL
        checks = (
            ("K(0)=1", self.k(0.0) - 1.0, _BOUNDARY_TOL),
            ("K(1)=0", self.k(1.0), _BOUNDARY_TOL),
            ("K'(0)=0", self.k1(0.0), tol_d),
            ("K'(1)=0", self.k1(1.0), tol_d),
        )
        for label, err, tol in checks:
            if abs(err) > tol:
                raise ValueError(f"kernel {self.name!r} violates {label} (off by {err:.2e})")

    @functools.cached_property
    def _meets_side_conditions(self) -> bool:
        """Whether ``h = K''`` satisfies ``int_0^1 x h(x) dx = 1`` and
        ``int_0^1 h(x) dx = 0`` to 1e-6 (Simpson on 2001 points); evaluated
        once per instance."""
        x = np.linspace(0.0, 1.0, 2001)
        hx = np.array([self.k2(v) for v in x])
        return not (abs(_simpson(x * hx, x) - 1.0) > 1e-6 or abs(_simpson(hx, x)) > 1e-6)


def _fd1(f: Callable[[float], float], h: float = _FD_STEP) -> Callable[[float], float]:
    """Central-difference derivative, one-sided at the interval ends."""

    def d(x: float) -> float:
        if x - h < 0.0:
            return (-3 * f(x) + 4 * f(x + h) - f(x + 2 * h)) / (2 * h)
        if x + h > 1.0:
            return (3 * f(x) - 4 * f(x - h) + f(x - 2 * h)) / (2 * h)
        return (f(x + h) - f(x - h)) / (2 * h)

    return d


def _cubic() -> KernelFunction:
    return KernelFunction(
        "cubic",
        k=lambda x: 1 - 3 * x**2 + 2 * x**3,
        k1=lambda x: -6 * x + 6 * x**2,
        k2=lambda x: -6 + 12 * x,
    )


def _parzen() -> KernelFunction:
    def k(x: float) -> float:
        return 1 - 6 * x**2 + 6 * x**3 if x <= 0.5 else 2 * (1 - x) ** 3

    def k1(x: float) -> float:
        return -12 * x + 18 * x**2 if x <= 0.5 else -6 * (1 - x) ** 2

    def k2(x: float) -> float:
        return -12 + 36 * x if x <= 0.5 else 12 * (1 - x)

    return KernelFunction("parzen", k=k, k1=k1, k2=k2)


def _tukey_hanning(r: int) -> KernelFunction:
    if r < 1:
        raise ValueError("Tukey-Hanning order must be >= 1")

    def k(x: float) -> float:
        return math.sin(0.5 * math.pi * (1 - x) ** r) ** 2

    def k1(x: float) -> float:
        v = 1 - x
        return -0.5 * math.pi * r * v ** (r - 1) * math.sin(math.pi * v**r)

    def k2(x: float) -> float:
        v = 1 - x
        if r == 1:
            # general branch hits 0 * v**(-1) at v = 0; closed form instead
            return 0.5 * math.pi**2 * math.cos(math.pi * v)
        return 0.5 * math.pi * r * (
            (r - 1) * v ** (r - 2) * math.sin(math.pi * v**r)
            + math.pi * r * v ** (2 * r - 2) * math.cos(math.pi * v**r)
        )

    return KernelFunction(f"tukey_hanning({r})", k=k, k1=k1, k2=k2)


def builtin_kernel(name: str, r: int = 1) -> KernelFunction:
    """Return a built-in kernel: ``cubic``, ``parzen`` or ``tukey_hanning``.

    ``tukey_hanning`` takes the order ``r`` (also parsed from names like
    ``"th2"`` or ``"tukey_hanning(2)"``).  Each kernel is one instance, so
    its side-condition check in :func:`weights_from_kernel` runs once.
    """
    key = name.strip().lower()
    if key.startswith("tukey_hanning") or key.startswith("th"):
        inner = key.removeprefix("tukey_hanning").removeprefix("th").strip("()_ ")
        return _builtin_instance("tukey_hanning", int(inner) if inner else r)
    if key not in ("cubic", "parzen"):
        raise ValueError(f"unknown kernel {name!r}")
    return _builtin_instance(key, 0)


@functools.cache
def _builtin_instance(key: str, r: int) -> KernelFunction:
    if key == "tukey_hanning":
        return _tukey_hanning(r)
    return _cubic() if key == "cubic" else _parzen()


@dataclass(frozen=True)
class WeightScheme:
    """Multi-scale weight vector.

    ``alphas[i-1]`` is the weight of subsampling scale ``i``; the identities
    ``sum a_i = 1`` and ``sum a_i / i = 0`` hold to 1e-12 for generated
    schemes (the second is intentionally broken by the end-effect
    adjustment, which trades it for an O(1/n) one).
    """

    alphas: np.ndarray
    M: int
    end_adjusted: bool = False

    def __post_init__(self) -> None:
        a = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "alphas", a)
        if a.size != self.M or self.M < 1:
            raise ValueError("alphas length must equal M >= 1")
        if abs(a.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        # both identities are unsatisfiable at M = 1 (the degenerate
        # single-scale estimator, which is plain realized covariance)
        if not self.end_adjusted and self.M > 1:
            i = np.arange(1, self.M + 1)
            if abs((a / i).sum()) > 1e-9:
                raise ValueError("weights must satisfy sum(a_i / i) = 0")

    @property
    def scales(self) -> np.ndarray:
        return np.arange(1, self.M + 1)

    def kappas(self) -> np.ndarray:
        """Transform ``kappa_q = sum_{i >= q} a_i (1 - q/i)`` for q = 0..M.

        For kernel-generated weights ``kappa_q`` approximates ``K(q/M)``; it
        is the lag-q autocovariance weight of the estimator in kernel form.
        """
        i = self.scales.astype(float)
        a = self.alphas
        # kappa_q = sum_{i>=q} a_i - q * sum_{i>=q} a_i / i, tail sums via cumsum
        tail_a = np.concatenate([np.cumsum(a[::-1])[::-1], [0.0]])
        tail_ai = np.concatenate([np.cumsum((a / i)[::-1])[::-1], [0.0]])
        q = np.arange(0, self.M + 1, dtype=float)
        idx = np.maximum(q.astype(int), 1) - 1  # tail starting at scale max(q,1)
        return tail_a[idx] - q * tail_ai[idx]

    def tail_ratios(self) -> np.ndarray:
        """``sum_{i > j} a_i / i`` for j = 0..M-1 (end-effect weight tails)."""
        i = self.scales.astype(float)
        t = np.cumsum((self.alphas / i)[::-1])[::-1]
        return np.concatenate([t[1:], [0.0]])


def cubic_weights(M: int) -> WeightScheme:
    """Exact rational weights of the cubic kernel.

    ``a_i = 12 i^2/(M^3 - M) - 6 i/(M^2 - 1) - 6 i/(M^3 - M)``; the
    identities ``sum a_i = 1`` and ``sum a_i / i = 0`` hold exactly.
    """
    if M < 2:
        raise ValueError("cubic weights need M >= 2")
    i = np.arange(1, M + 1, dtype=float)
    a = 12 * i**2 / (M**3 - M) - 6 * i / (M**2 - 1) - 6 * i / (M**3 - M)
    return WeightScheme(a, M)


def weights_from_kernel(kernel: KernelFunction, M: int) -> WeightScheme:
    """Weights generated from a kernel through ``h = K''``.

    The four-term expansion

    ``a_i = (i/M^2) h(i/M) - (i/(2 M^3)) h'(i/M)
            + (i/(6 M^4))(h'(1) - h'(0)) - (i/(24 M^5))(h''(1) - h''(0))``

    satisfies the weight identities only asymptotically; the result is
    re-projected exactly onto ``{sum a = 1, sum a/i = 0}`` by the
    minimal-norm correction in the span of ``{i/M^2, 1/i}``.  The side
    conditions ``int_0^1 x h(x) dx = 1`` and ``int_0^1 h(x) dx = 0`` are
    checked numerically to 1e-6, once per kernel instance.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    if not kernel._meets_side_conditions:
        raise ValueError(f"kernel {kernel.name!r} fails the weight side conditions")
    h = kernel.k2
    h1 = _fd1(h)
    h2 = _fd1(h1)
    i = np.arange(1, M + 1, dtype=float)
    xi = i / M
    a = (
        (i / M**2) * np.array([h(v) for v in xi])
        - (i / (2 * M**3)) * np.array([h1(v) for v in xi])
        + (i / (6 * M**4)) * (h1(1.0) - h1(0.0))
        - (i / (24 * M**5)) * (h2(1.0) - h2(0.0))
    )
    a = _project(a, M)
    return WeightScheme(a, M)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an odd-length equidistant grid."""
    n = y.size - 1
    h = x[1] - x[0]
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, y))


def _project(a: np.ndarray, M: int) -> np.ndarray:
    """Exact minimal-norm correction onto {sum a = 1, sum a/i = 0}."""
    i = np.arange(1, M + 1, dtype=float)
    u = i / M**2
    v = 1.0 / i
    A = np.array([[u.sum(), v.sum()], [(u / i).sum(), (v / i).sum()]])
    rhs = np.array([1.0 - a.sum(), -(a / i).sum()])
    coef = np.linalg.solve(A, rhs)
    return a + coef[0] * u + coef[1] * v


def end_effect_adjust(w: WeightScheme, n: int) -> WeightScheme:
    """End-effect correction ``a_1 -> a_1 + 2/n``, ``a_2 -> a_2 - 2/n``.

    Removes the additive noise bias of the multi-scale estimator while
    leaving ``sum a_i`` unchanged.
    """
    if w.M < 2:
        raise ValueError("end-effect adjustment needs M >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return replace(w, alphas=_end_adjusted(w.alphas, n), end_adjusted=True)


def _end_adjusted(alphas: np.ndarray, n: int) -> np.ndarray:
    """A copy of ``alphas`` with ``a_1 + 2/n`` and ``a_2 - 2/n``; the weights
    of :func:`end_effect_adjust`, without its checks."""
    a = alphas.copy()
    a[0] += 2.0 / n
    a[1] -= 2.0 / n
    return a


@dataclass(frozen=True)
class KernelConstants:
    """Finite-M evaluations of the four tabulated weight-limit constants.

    ``n1 = M^3 sum a_i^2 / i^2`` (-> int K''^2), ``n2`` is the squared-tail
    sum (-> int K'^2), ``d`` is half the equidistant slope of the weighted
    sampling autocorrelation (-> int K^2 / 2) and ``mconst`` is
    ``M sum_{i,r} (a_i a_r / (i r)) min(i, r)``, normalized so the cubic
    weights give 6/5.

    Notes
    -----
    ``mconst`` coincides with ``n2`` by the exact summation identity
    ``sum_{i,r} (a_i a_r/(i r)) min(i,r) = sum_j (sum_{i>j} a_i/i)^2``; the
    published tables for these constants are not mutually consistent across
    kernels, and these definitions reproduce the cubic row
    ``(12, 13/70, 6/5, 6/5)``.  The combinations entering asymptotic
    covariances are the properties below, which were validated against
    exact finite-sample covariances of the estimator's quadratic form.
    """

    n1: float
    n2: float
    d: float
    mconst: float

    @property
    def lasa_slope(self) -> float:
        """Equidistant slope of the weighted sampling autocorrelation (= 2 d)."""
        return 2.0 * self.d

    @property
    def noise_coeff(self) -> float:
        """Pure-noise slot coefficient (multiplies c^-3 eta eta)."""
        return 2.0 * self.n1

    @property
    def cross_coeff(self) -> float:
        """Signal-noise slot coefficient (multiplies c^-1 eta int sigma)."""
        return 2.0 * self.n2

    @property
    def end_coeff(self) -> float:
        """End-effect noise slot coefficient (multiplies c^-1 eta eta)."""
        return 2.0 * self.n2


def kernel_constants(w: WeightScheme) -> KernelConstants:
    """Evaluate the four asymptotic constants of a weight scheme at finite M."""
    M = w.M
    i = w.scales.astype(float)
    a = w.alphas
    n1 = M**3 * np.sum(a**2 / i**2)
    tails = w.tail_ratios()  # sum_{i>j} a_i/i for j = 0..M-1
    n2 = M * np.sum(tails[1:] ** 2)
    mconst = M * np.sum(tails**2)
    kap = w.kappas()
    d = np.sum(kap**2) / (2.0 * M)
    return KernelConstants(n1=float(n1), n2=float(n2), d=float(d), mconst=float(mconst))
