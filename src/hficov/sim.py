"""Simulation harness: ground-truth paths, sampling schemes, noise, MC checks.

The generator covers constant-volatility and square-root stochastic-variance
models with leverage, Euler-discretized on a caller-given grid (exact for
constant volatility).  The variance recursion has one home,
:func:`_sv_recursion`, which steps many independent paths as the columns of
one buffer: the components of one :func:`simulate_paths` call, or a chunk
of Monte Carlo replicates of the CI-test scenarios.  Observation schemes
are equidistant or Poisson; microstructure noise is added i.i.d. per
scheme and correlated across components only at exactly shared
timestamps.

:func:`mc_validate` runs named Monte Carlo scenarios that compare empirical
estimator moments, rates, coverage and test levels against the closed-form
asymptotics, with per-replicate seeds derived deterministically from the
scenario seed so every report is exactly reproducible.
"""

from __future__ import annotations

import math
import os
import time as _time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .avar import (
    GmsAcovConfig,
    TheoryInputs,
    _acov_entries,
    acov_gms_hat,
    acov_theory,
    gms_theory_inputs,
    hy_theory_inputs,
)
from .citest import ci_test
from .estimators import (
    EstimatorConfig,
    TickSeries,
    _estimate_matrix,
    _hy_pairs,
    _ms_frequency,
    _same_times,
    _sync_increments,
    end_effect_adjust,
    generalized_multiscale,
    kernel_estimator,
    multiscale,
    multiscale_adjusted,
    noise_moments,
    svec_index,
    svec_pack,
    svec_pairs,
)
from .kernels import builtin_kernel, cubic_weights
from .sampling import SamplingScheme, pairwise_refresh

__all__ = [
    "ItoModelConfig",
    "NoiseConfig",
    "SamplingConfig",
    "SimulatedPaths",
    "simulate_paths",
    "sample_scheme",
    "observe",
    "mc_validate",
    "SCENARIOS",
]


# ---------------------------------------------------------------------------
# Model, noise, and sampling configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItoModelConfig:
    """Continuous Ito-process model for the latent log prices (no drift).

    Constant-volatility mode: supply ``sigma_const`` (a p x p volatility
    factor; the spot covariance is ``sigma sigma'``).  Stochastic-variance
    mode: supply ``sv`` parameters; each component carries a square-root
    variance process ``dv = kappa (vbar - v) dt + xi sqrt(v) dB`` with
    leverage correlation ``rho_lev`` against its own price driver; the
    components are independent of each other.
    """

    p: int
    T: float = 1.0
    sigma_const: np.ndarray | None = None
    sv_kappa: float = 5.0
    sv_vbar: float | None = None
    sv_xi: float = 0.5
    sv_rho_lev: float = -0.5
    sv_v0: float | None = None

    def __post_init__(self) -> None:
        checks = (
            ("p", self.p >= 1, "at least 1"),
            ("sv_kappa", self.sv_kappa > 0, "positive"),
            ("sv_vbar", self.sv_vbar is None or self.sv_vbar > 0, "positive"),
            ("sv_xi", self.sv_xi >= 0, "nonnegative"),
            ("sv_rho_lev", abs(self.sv_rho_lev) <= 1, "in [-1, 1]"),
            ("sv_v0", self.sv_v0 is None or self.sv_v0 >= 0, "nonnegative"),
        )
        for name, ok, need in checks:
            if not ok:
                raise ValueError(f"ItoModelConfig.{name} must be {need}, got {getattr(self, name)!r}")
        if self.sigma_const is not None:
            s = np.asarray(self.sigma_const, dtype=float)
            object.__setattr__(self, "sigma_const", s)
            if s.shape != (self.p, self.p):
                raise ValueError("sigma_const must be p x p")
            if np.linalg.eigvalsh(s @ s.T).min() < -1e-12:
                raise ValueError("implied spot covariance must be PSD")

    @property
    def stochastic_vol(self) -> bool:
        return self.sigma_const is None


@dataclass(frozen=True)
class NoiseConfig:
    """Additive Gaussian microstructure noise.

    ``H`` is the noise covariance matrix across components (PSD); draws are
    correlated across components only at exactly shared timestamps.
    """

    H: np.ndarray

    def __post_init__(self) -> None:
        h = np.atleast_2d(np.asarray(self.H, dtype=float))
        object.__setattr__(self, "H", h)
        if h.shape[0] != h.shape[1] or not np.allclose(h, h.T):
            raise ValueError("H must be symmetric")
        if np.linalg.eigvalsh(h).min() < -1e-12:
            raise ValueError("H must be PSD")

    @property
    def silent(self) -> bool:
        return bool(np.all(self.H == 0.0))


@dataclass(frozen=True)
class SamplingConfig:
    """Observation-scheme generator: ``equidistant`` or ``poisson``.  ``n``
    is the number of increments for the equidistant kind and the expected
    number of arrivals for the Poisson kind; Poisson schemes are augmented
    with endpoints 0 and T so the mesh conditions stay well posed (recorded
    in ``augmented``)."""

    kind: str = "equidistant"
    n: int = 100
    augmented: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("equidistant", "poisson"):
            raise ValueError(f"unknown sampling kind {self.kind!r}")


def sample_scheme(cfg: SamplingConfig, T: float, rng: np.random.Generator | int) -> SamplingScheme:
    """Draw one observation scheme on [0, T] (independent of the process)."""
    rng = np.random.default_rng(rng)
    if cfg.kind == "equidistant":
        return SamplingScheme(np.linspace(0.0, T, cfg.n + 1), T)
    lam = cfg.n / T
    if lam * T < 10:
        raise ValueError("Poisson sampling needs an expected count of at least 10")
    count = rng.poisson(lam * T)
    arrivals = np.sort(rng.uniform(0.0, T, size=count))
    if cfg.augmented:
        arrivals = np.unique(np.concatenate([[0.0], arrivals, [T]]))
    if arrivals.size < 2:
        raise ValueError("degenerate Poisson scheme")
    return SamplingScheme(arrivals, T)


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulatedPaths:
    """Latent paths on the simulation grid plus the ground truth.

    ``times`` has m+1 points; ``x`` is (p, m+1); ``integrated_cov`` is the
    grid-exact integral of the spot covariance.
    """

    times: np.ndarray
    x: np.ndarray
    integrated_cov: np.ndarray

    @property
    def p(self) -> int:
        return self.x.shape[0]

    @property
    def T(self) -> float:
        return float(self.times[-1])


def simulate_paths(model: ItoModelConfig, rng: np.random.Generator | int, times: np.ndarray) -> SimulatedPaths:
    """Euler-Maruyama simulation of the latent process on the grid ``times``.

    ``times`` must be strictly increasing, start at 0 and end at T.  For
    constant volatility the Euler scheme is exact in distribution on any
    grid.  Variance processes are full-truncated at zero and stepped all
    p components at once by :func:`_sv_recursion`, one numpy row per step
    (about 3 us a step whatever p is: some 9 ms for a lone 3000-step
    path).  Memory is O(m p) for m grid steps.  It is :func:`_simulate`
    of the grid's :func:`_grid_steps`.
    """
    rng = np.random.default_rng(rng)
    times = np.asarray(times, dtype=float)
    return _simulate(model, rng, times, *_grid_steps(model, times))


def _grid_steps(model: ItoModelConfig, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steps ``dt`` of the float simulation grid ``times``, after
    checking that it spans ``[0, T]`` and strictly increases, and
    ``sqrt(dt)[:, None]``."""
    if times[0] != 0.0 or abs(times[-1] - model.T) > 1e-12:
        raise ValueError("simulation times must span [0, T]")
    dt = np.diff(times)
    if not np.all(dt > 0.0):
        raise ValueError("simulation times must be strictly increasing")
    return dt, np.sqrt(dt)[:, None]


def _simulate(model: ItoModelConfig, rng: np.random.Generator, times: np.ndarray, dt: np.ndarray, sqdt: np.ndarray) -> SimulatedPaths:
    """:func:`simulate_paths` on the grid ``times`` whose
    :func:`_grid_steps` are ``dt`` and ``sqdt``.  Scenarios whose grid is
    fixed form the steps once and call it for every replicate; threads may
    share them, since nothing here writes to them."""
    T, p = model.T, model.p
    m = dt.size
    if not model.stochastic_vol:
        sig = model.sigma_const
        dw = rng.standard_normal((m, p)) * sqdt
        dx = dw @ sig.T
        x = np.concatenate([np.zeros((1, p)), np.cumsum(dx, axis=0)]).T
        return SimulatedPaths(times, x, (sig @ sig.T) * T)

    v = np.empty((m + 1, p))
    z_price = _sv_normals(model, rng, v[1:])
    _sv_recursion(model, dt, v)
    vols, x = _sv_prices(v, z_price, sqdt)
    icov = np.diag(np.einsum("mi,m->i", vols**2, dt))
    return SimulatedPaths(times, x.T, icov)


def _sv_normals(model: ItoModelConfig, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Draw the price normals of ``out``'s shape, then a second block, and
    write the leverage-correlated variance normals ``rho z_price +
    sqrt(1 - rho^2) z2`` into ``out``; returns the price normals."""
    rho = model.sv_rho_lev
    z_price = rng.standard_normal(out.shape)
    np.multiply(rho, z_price, out=out)
    out += math.sqrt(1.0 - rho**2) * rng.standard_normal(out.shape)
    return z_price


def _sv_recursion(model: ItoModelConfig, dt: np.ndarray, v: np.ndarray) -> None:
    """Step the square-root variance of ``model`` down the columns of the
    (m + 1, k) array ``v`` in place, one independent path per column.

    Row i + 1 holds the variance normal of step i on entry and the variance
    after it on return; row 0 is set to v0.  A step is ``vp = max(v, 0)``,
    then ``v + ((kappa (vbar - vp)) dt_i) + (((xi sqrt(vp)) sqrt(dt_i)) z_i)``
    in that order, one row per numpy call into four scratch rows; no call
    writes over its own input, which costs numpy twice the time on a single
    column.  ``np.maximum`` keeps NaN, as ``0 if v < 0 else v`` does, and
    may turn -0.0 into 0.0, which moves no bit of the next row.
    """
    vbar = model.sv_vbar if model.sv_vbar is not None else 1e-4
    kappa, xi = model.sv_kappa, model.sv_xi
    v[0] = model.sv_v0 if model.sv_v0 is not None else vbar
    vp, drift, a, b = np.empty((4,) + v.shape[1:])
    for row, z, dt_i, sqdt_i in zip(v[:-1], v[1:], dt.tolist(), np.sqrt(dt).tolist()):
        np.maximum(row, 0.0, out=vp)
        np.subtract(vbar, vp, out=a)
        np.multiply(kappa, a, out=b)
        np.multiply(b, dt_i, out=a)
        np.add(row, a, out=drift)
        np.sqrt(vp, out=a)
        np.multiply(xi, a, out=b)
        np.multiply(b, sqdt_i, out=a)
        np.multiply(a, z, out=b)
        np.add(drift, b, out=z)


def _sv_prices(v: np.ndarray, z_price: np.ndarray, sqdt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The left-endpoint volatilities of the variance rows ``v`` (m + 1 of
    them) and the price path that they and the price normals drive from 0,
    with time along axis 0."""
    vols = np.sqrt(np.maximum(v[:-1], 0.0))
    dx = vols * (z_price * sqdt)
    return vols, np.concatenate([np.zeros((1,) + dx.shape[1:]), np.cumsum(dx, axis=0)])


def _snap_scheme(scheme: SamplingScheme, grid: np.ndarray) -> tuple[SamplingScheme, np.ndarray]:
    """Snap scheme times to the nearest grid points, dropping collisions."""
    idx = np.searchsorted(grid, scheme.times)
    idx = np.clip(idx, 0, grid.size - 1)
    left_ok = idx > 0
    use_left = left_ok & (
        np.abs(grid[np.maximum(idx - 1, 0)] - scheme.times) <= np.abs(grid[idx] - scheme.times)
    )
    idx = np.where(use_left, idx - 1, idx)
    idx = idx[np.diff(idx, prepend=-1) > 0]  # nondecreasing: collisions are runs
    return SamplingScheme(grid[idx], scheme.horizon), idx


def observe(
    paths: SimulatedPaths,
    schemes: Sequence[SamplingScheme],
    noise: NoiseConfig | None,
    rng: np.random.Generator | int,
) -> list[TickSeries]:
    """Sample the latent paths at the schemes' times and add noise.

    Times are snapped to the simulation grid (collisions dropped).  Noise
    draws are i.i.d. over time per component and correlated across
    components only at exactly shared timestamps.
    """
    rng = np.random.default_rng(rng)
    p = paths.p
    if len(schemes) != p:
        raise ValueError(f"need one scheme per component ({p})")
    if noise is not None and noise.H.shape != (p, p):
        raise ValueError(f"noise H has shape {noise.H.shape}, but the paths need ({p}, {p})")
    return _observe_snapped(paths, [_snap_scheme(sch, paths.times) for sch in schemes], noise, rng)


def _observe_snapped(
    paths: SimulatedPaths,
    snapped: Sequence[tuple[SamplingScheme, np.ndarray]],
    noise: NoiseConfig | None,
    rng: np.random.Generator,
) -> list[TickSeries]:
    """:func:`observe` of schemes that :func:`_snap_scheme` snapped onto
    ``paths.times``.  Scenarios whose schemes and grid are fixed snap them
    once and observe every replicate through here."""
    schemes = [sch for sch, _ in snapped]
    values = [x[idx] for x, (_, idx) in zip(paths.x, snapped)]
    if noise is not None and not noise.silent:
        values = [v + e for v, e in zip(values, _draw_noise(schemes, noise, rng))]
    return [TickSeries(sch, v) for sch, v in zip(schemes, values)]


def _draw_noise(schemes: Sequence[SamplingScheme], noise: NoiseConfig, rng: np.random.Generator) -> list[np.ndarray]:
    p = len(schemes)
    H = noise.H
    sd = np.sqrt(np.diag(H))
    if _same_times(schemes):
        chol = np.linalg.cholesky(H + 1e-18 * np.eye(p))
        z = rng.standard_normal((len(schemes[0]), p)) @ chol.T
        return [z[:, l] for l in range(p)]
    off = H - np.diag(np.diag(H))
    shared_any = np.any(off) and any(
        np.intersect1d(schemes[k].times, schemes[l].times).size > 0
        for k in range(p)
        for l in range(k + 1, p)
    )
    if not shared_any:
        return [sd[l] * rng.standard_normal(len(schemes[l])) for l in range(p)]
    # general case: the stamps of the union grouped by the set of components
    # observed there, one Cholesky factor and one product per group
    all_t = np.unique(np.concatenate([s.times for s in schemes]))
    pos = [np.searchsorted(all_t, s.times) for s in schemes]
    present = np.zeros((all_t.size, p), dtype=bool)
    for l in range(p):
        present[pos[l], l] = True
    sets, group = np.unique(present, axis=0, return_inverse=True)
    group = group.reshape(-1)  # numpy 2.0 gives the inverse an axis of its own
    z = rng.standard_normal((all_t.size, p))
    eps = [np.empty(len(s)) for s in schemes]
    for g, members in enumerate(sets):
        comps = np.flatnonzero(members)
        rows = group == g
        if len(comps) == 1:
            vals = sd[comps[0]] * z[rows, comps[0]][:, None]
        else:
            chol = np.linalg.cholesky(H[np.ix_(comps, comps)] + 1e-18 * np.eye(len(comps)))
            vals = z[np.ix_(rows, comps)] @ chol.T
        for j, l in enumerate(comps):
            eps[l][rows[pos[l]]] = vals[:, j]
    return eps


# ---------------------------------------------------------------------------
# Monte Carlo validation scenarios
# ---------------------------------------------------------------------------


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _worker_count() -> int:
    raw = os.environ.get("COVEST_THREADS", "1")
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValueError(f"COVEST_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _replicate_map(fn, rngs) -> None:
    """Run ``fn(i, rng)`` over the replicate RNGs, threaded when
    COVEST_THREADS > 1.  Each call writes to its own output slots, and the
    per-replicate generators are independent, so results are identical to
    the serial run."""
    workers = _worker_count()
    if workers <= 1:
        for i, rng in enumerate(rngs):
            fn(i, rng)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda args: fn(*args), enumerate(rngs)))


def _check(name: str, value: float, target: float, tol: float, relative: bool = True, required: bool = True) -> dict:
    err = abs(value - target) / (abs(target) if relative and target != 0 else 1.0)
    return {
        "name": name,
        "value": float(value),
        "target": float(target),
        "tolerance": float(tol),
        "relative": relative,
        "error": float(err),
        "passed": bool(err <= tol),
        "required": required,
    }


def _interval_check(name: str, value: float, lo: float, hi: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "interval": [float(lo), float(hi)],
        "passed": bool(lo <= value <= hi),
    }


def _corr_sigma(vols: Sequence[float], corr: np.ndarray) -> np.ndarray:
    d = np.diag(vols)
    cov = d @ corr @ d
    return np.linalg.cholesky(cov)


_RC_SIGMA_VOLS = (0.020, 0.015, 0.018, 0.012)
_RC_CORR = np.array(
    [
        [1.00, 0.60, 0.40, 0.30],
        [0.60, 1.00, 0.50, 0.35],
        [0.40, 0.50, 1.00, 0.45],
        [0.30, 0.35, 0.45, 1.00],
    ]
)

_RC_PATTERNS = [
    ((1, 2), (3, 4)),
    ((1, 3), (2, 4)),
    ((1, 4), (2, 3)),
    ((1, 1), (1, 1)),
    ((1, 1), (2, 2)),
    ((1, 1), (1, 2)),
    ((1, 1), (2, 3)),
    ((1, 2), (1, 2)),
    ((1, 2), (1, 3)),
    ((1, 2), (2, 3)),
]


def scenario_rc_clt(replicates: int = 2000, seed: int = 20260808, n: int = 5000) -> dict:
    """Realized-covariance CLT: empirical n-scaled covariances of estimate
    errors against the closed form, and feasible CI coverage."""
    p, T = 4, 1.0
    sig = _corr_sigma(_RC_SIGMA_VOLS, _RC_CORR)
    model = ItoModelConfig(p=p, T=T, sigma_const=sig)
    truth = svec_pack((sig @ sig.T) * T)
    q = truth.size
    rngs = _spawn_rngs(seed, replicates)
    times = np.linspace(0.0, T, n + 1)
    est = np.empty((replicates, q))
    hit = np.zeros((replicates, q), dtype=bool)
    zcrit = 1.959963984540054
    steps = _grid_steps(model, times)
    snapped = [_snap_scheme(SamplingScheme(times, T), times)] * p  # one scheme object for all series
    pairs = svec_pairs(p)
    def one(i, rng):
        paths = _simulate(model, rng, times, *steps)
        data = _observe_snapped(paths, snapped, None, rng)
        # the estimate and its acov share one increment matrix
        incs = _sync_increments(data, "rc_clt observes on one grid")
        est[i] = _estimate_matrix(data, "rc", EstimatorConfig(), None, incs).svec
        av = np.diag(_acov_entries(data, "rc", pairs, None, incs=incs)[0])
        hit[i] = np.abs(est[i] - truth) <= zcrit * np.sqrt(np.maximum(av, 0.0) / n)

    _replicate_map(one, rngs)
    errors = est - truth
    inputs = TheoryInputs(times=np.array([0.0, T]), sigma=sig @ sig.T)
    checks = []
    n_ok = 0
    for (a, b) in _RC_PATTERNS:
        ia, ib = svec_index(p, *a), svec_index(p, *b)
        emp = n * float(np.cov(errors[:, ia], errors[:, ib])[0, 1])
        theo = acov_theory(inputs, "rc", (a, b))
        c = _check(f"n*cov{a}{b}", emp, theo, 0.10, required=False)
        checks.append(c)
        n_ok += c["passed"]
    checks.append(_interval_check("patterns_within_10pct", n_ok, 8, len(_RC_PATTERNS)))
    coverage = float(hit.mean())
    checks.append(_interval_check("ci_coverage_95", coverage, 0.92, 0.97))
    return _report("rc_clt", replicates, seed, checks, {"n": n, "p": p})


def scenario_ms_kernel_equivalence(replicates: int = 200, seed: int = 20260808, n: int = 10000) -> dict:
    """Multi-scale vs kernel estimator: adjusted versions agree to within a
    fraction of the sampling noise; raw versions differ by the end-effect
    bias 4 eta_12."""
    T = 1.0
    vols = (0.020, 0.020)
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    sig = _corr_sigma(vols, corr)
    eta = 5e-4
    H = np.array([[eta**2, 0.5 * eta**2], [0.5 * eta**2, eta**2]])
    model = ItoModelConfig(p=2, T=T, sigma_const=sig)
    noise = NoiseConfig(H)
    times = np.linspace(0.0, T, n + 1)
    steps = _grid_steps(model, times)
    snapped = [_snap_scheme(SamplingScheme(times, T), times)] * 2
    M = _ms_frequency(1.0, n)
    w = cubic_weights(M)
    kern = builtin_kernel("cubic")
    rngs = _spawn_rngs(seed, replicates)
    ms_adj = np.empty(replicates)
    k_adj = np.empty(replicates)
    raw_gap = np.empty(replicates)
    def one(i, rng):
        paths = _simulate(model, rng, times, *steps)
        data = _observe_snapped(paths, snapped, noise, rng)
        a, b = data
        ms_raw = multiscale(a, b, w)
        k_raw = kernel_estimator(a, b, kern, M)
        ms_adj[i] = multiscale_adjusted(a, b, w)
        k_adj[i] = kernel_estimator(a, b, kern, M, adjusted=True)
        eta12_hat = noise_moments(data).h_hat[0, 1]
        raw_gap[i] = ms_raw - k_raw + 4.0 * eta12_hat

    _replicate_map(one, rngs)
    std = float(np.std(ms_adj, ddof=1))
    checks = [
        _check("mean_abs_adjusted_gap", float(np.mean(np.abs(ms_adj - k_adj))), 0.0, 0.10 * std, relative=False),
        _check("mean_raw_gap_plus_4eta", abs(float(np.mean(raw_gap))), 0.0, 0.10 * std, relative=False),
    ]
    return _report("ms_kernel_equivalence", replicates, seed, checks, {"n": n, "eta": eta, "M": M})


def _rate_study(kind: str, replicates: int, seed: int, ns: Sequence[int]) -> dict:
    T = 1.0
    vols = (0.015, 0.012)
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    sig = _corr_sigma(vols, corr)
    truth = (sig @ sig.T)[0, 1] * T
    model = ItoModelConfig(p=2, T=T, sigma_const=sig)
    eta = 5e-4
    noise = NoiseConfig(np.diag([eta**2, eta**2])) if kind == "gms" else None
    rmse = []
    master = np.random.SeedSequence(seed)
    for n, ss in zip(ns, master.spawn(len(ns))):
        scheme_rng = np.random.default_rng(ss)
        schemes = [
            sample_scheme(SamplingConfig("poisson", n), T, scheme_rng),
            sample_scheme(SamplingConfig("poisson", n), T, scheme_rng),
        ]
        union = np.unique(np.concatenate([[0.0, T], schemes[0].times, schemes[1].times]))
        errs = np.empty(replicates)
        grid = pairwise_refresh(schemes[0], schemes[1])
        N = len(grid) - 1
        w = end_effect_adjust(cubic_weights(_ms_frequency(1.0, N)), N)
        snapped = [_snap_scheme(sch, union) for sch in schemes]
        steps = _grid_steps(model, union)
        windows: dict = {}  # the overlap windows of this n's two schemes
        def one(i, rng):
            paths = _simulate(model, rng, union, *steps)
            data = _observe_snapped(paths, snapped, noise, rng)
            if kind == "hy":
                v = _hy_pairs(data, [(0, 1)], windows)[0]
            else:
                v = generalized_multiscale(data[0], data[1], w, grid=grid)
            errs[i] = v - truth

        _replicate_map(one, _spawn_rngs(int(ss.generate_state(1)[0]), replicates))
        rmse.append(math.sqrt(float(np.mean(errs**2))))
    slope = float(np.polyfit(np.log(ns), np.log(rmse), 1)[0])
    target, tol = (-0.5, 0.10) if kind == "hy" else (-0.25, 0.08)
    checks = [_check(f"loglog_rmse_slope_{kind}", slope, target, tol, relative=False)]
    return _report(f"rate_{kind}", replicates, seed, checks, {"ns": list(ns), "rmse": rmse})


def scenario_rate_hy(replicates: int = 250, seed: int = 20260808, ns: Sequence[int] = (500, 2000, 8000, 32000)) -> dict:
    """Convergence-rate study for the overlap estimator (noiseless Poisson)."""
    return _rate_study("hy", replicates, seed, ns)


def scenario_rate_gms(replicates: int = 250, seed: int = 20260808, ns: Sequence[int] = (500, 2000, 8000, 32000)) -> dict:
    """Convergence-rate study for the generalized multi-scale estimator
    (noisy Poisson)."""
    return _rate_study("gms", replicates, seed, ns)


# correlations chosen to keep the two estimates well correlated, so the
# sample covariance over 1000 replicates resolves the target within a few
# percent; the closed form itself is exact for constant spot covariance.
_HY_CORR = np.array(
    [
        [1.00, 0.50, 0.85, 0.60],
        [0.50, 1.00, 0.60, 0.85],
        [0.85, 0.60, 1.00, 0.50],
        [0.60, 0.85, 0.50, 1.00],
    ]
)


def scenario_hy_acov(replicates: int = 1000, seed: int = 20260808, n: int = 1200) -> dict:
    """Empirical covariance of two overlap estimates against the closed form
    built from the realized quadratic covariations of times."""
    p, T = 4, 1.0
    sig = _corr_sigma((0.020, 0.016, 0.018, 0.015), _HY_CORR)
    cov = sig @ sig.T
    model = ItoModelConfig(p=p, T=T, sigma_const=sig)
    srng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    schemes = [sample_scheme(SamplingConfig("poisson", n), T, srng) for _ in range(p)]
    union = np.unique(np.concatenate([s.times for s in schemes]))
    inputs, meta = hy_theory_inputs(schemes, np.array([0.0, T]), cov)
    N = meta["N"]
    theo = acov_theory(inputs, "hy", ((1, 2), (3, 4)))
    est12 = np.empty(replicates)
    est34 = np.empty(replicates)
    snapped = [_snap_scheme(sch, union) for sch in schemes]
    steps = _grid_steps(model, union)
    windows: dict = {}  # the overlap windows of the fixed schemes, for every replicate
    def one(i, rng):
        paths = _simulate(model, rng, union, *steps)
        data = _observe_snapped(paths, snapped, None, rng)
        est12[i], est34[i] = _hy_pairs(data, [(0, 1), (2, 3)], windows)

    _replicate_map(one, _spawn_rngs(seed, replicates))
    emp = N * float(np.cov(est12, est34)[0, 1])
    checks = [_check("N*cov(hy12,hy34)_vs_theory", emp, theo, 0.15)]
    return _report("hy_acov", replicates, seed, checks, {"n": n, "N": N, "theory": theo})


def scenario_gms_acov_async(replicates: int = 2000, seed: int = 20260808, n: int = 2000) -> dict:
    """Fully asynchronous generalized multi-scale: empirical covariance of
    two estimates against the single discretization term, and exact zero of
    the histogram estimator's noise addends."""
    p, T = 4, 1.0
    corr = np.full((p, p), 0.65)
    np.fill_diagonal(corr, 1.0)
    sig = _corr_sigma((0.020, 0.016, 0.018, 0.015), corr)
    cov = sig @ sig.T
    model = ItoModelConfig(p=p, T=T, sigma_const=sig)
    eta = 2e-4
    noise = NoiseConfig(np.diag([eta**2] * p))
    srng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    schemes = [sample_scheme(SamplingConfig("poisson", n, augmented=False), T, srng) for _ in range(p)]
    union = np.unique(np.concatenate([[0.0, T]] + [s.times for s in schemes]))
    g12 = pairwise_refresh(schemes[0], schemes[1])
    g34 = pairwise_refresh(schemes[2], schemes[3])
    inputs, meta = gms_theory_inputs(schemes, np.array([0.0, T]), cov, with_overlap=True)
    N = meta["N"]
    theo = acov_theory(inputs, "gms", ((1, 2), (3, 4)))
    w12 = end_effect_adjust(cubic_weights(meta["M12"]), meta["N12"])
    w34 = end_effect_adjust(cubic_weights(meta["M34"]), meta["N34"])
    est12 = np.empty(replicates)
    est34 = np.empty(replicates)
    data_first: dict = {}
    snapped = [_snap_scheme(sch, union) for sch in schemes]
    steps = _grid_steps(model, union)

    def one(i, rng):
        paths = _simulate(model, rng, union, *steps)
        data = _observe_snapped(paths, snapped, noise, rng)
        if i == 0:
            data_first[0] = data
        est12[i] = generalized_multiscale(data[0], data[1], w12, grid=g12)
        est34[i] = generalized_multiscale(data[2], data[3], w34, grid=g34)

    _replicate_map(one, _spawn_rngs(seed, replicates))
    data0 = data_first[0]
    emp = math.sqrt(N) * float(np.cov(est12, est34)[0, 1])
    ov = inputs.overlap
    with_noise = acov_gms_hat(data0, ((1, 2), (3, 4)), GmsAcovConfig(include_noise_terms=True))
    without = acov_gms_hat(data0, ((1, 2), (3, 4)), GmsAcovConfig(include_noise_terms=False))
    checks = [
        _check("sqrtN*cov(gms12,gms34)_vs_theory", emp, theo, 0.15),
        {"name": "overlap_counts_all_zero", "value": ov.all_zero(), "passed": bool(ov.all_zero())},
        {
            "name": "noise_addends_exactly_zero",
            "value": with_noise - without,
            "passed": bool(with_noise == without),
        },
    ]
    return _report("gms_acov_async", replicates, seed, checks, {"n": n, "N": N, "theory": theo})


_CI_VBAR_Z = 2.25e-4  # long-run spot variance of the factor process
_CI_VOL_ORTH = 0.012  # constant volatility of the orthogonal parts
# the most bytes of the variance buffer of one chunk of CI-test replicates
# (174 replicates at 3000 steps).  A recursion step costs the same for 1 to
# 200 columns, so each chunk adds one recursion's time: `mc` (100
# replicates, 2-CPU x86) took 0.26-0.27 s in one chunk (4 MiB), 0.29-0.30 s
# in two (2 MiB) and 0.30-0.32 s in three (1 MiB), against 0.32-0.33 s one
# replicate at a time, for a peak RSS 1.5, 0.2 and -0.2 MB above it
_SV_BUFFER_BYTES = 1 << 22


def _ci_study(alt_corr: float, replicates: int, seed: int, n: int) -> tuple[float, dict]:
    """Proportional construction X1 = rho1 Z + Zperp, X2 = rho2 Z + Zdag.

    Z is a square-root stochastic-variance process with leverage (so the
    asymptotic variances are genuinely random); the orthogonal parts are
    constant-volatility Brownian paths, correlated with each other by
    ``alt_corr`` (0 under the null).

    Replicates run in the fewest chunks of even size whose (n + 1, chunk)
    variance buffer fits ``_SV_BUFFER_BYTES``: each draws its variance
    normals into its column, one :func:`_sv_recursion` steps them all, then
    each draws its price normals again from its saved generator state and
    goes on.  Every generator keeps the draw order of a replicate run alone.
    """
    T = 1.0
    rho1, rho2 = 0.7, 0.9
    sp = sd = _CI_VOL_ORTH
    zmodel = ItoModelConfig(
        p=1, T=T, sv_kappa=5.0, sv_vbar=_CI_VBAR_Z, sv_xi=2e-3, sv_rho_lev=-0.5, sv_v0=_CI_VBAR_Z
    )
    corr_pd = np.array([[1.0, alt_corr], [alt_corr, 1.0]])
    chol = np.linalg.cholesky(corr_pd)
    times = np.linspace(0.0, T, n + 1)
    steps = np.diff(times)
    sqdt = np.sqrt(steps)
    sch = SamplingScheme(times, T)
    dt = T / n
    outcome = np.zeros(replicates, dtype=np.int8)  # 0 keep, 1 reject, 2 inconclusive

    def run_chunk(lo: int, rngs: list[np.random.Generator]) -> None:
        v = np.empty((n + 1, len(rngs)))
        states = [None] * len(rngs)

        def draw(j, rng):
            before = rng.bit_generator.state
            _sv_normals(zmodel, rng, v[1:, j])
            states[j] = before, rng.bit_generator.state

        def rest(j, rng):
            before, after = states[j]
            rng.bit_generator.state = before
            z_price = rng.standard_normal(n)
            rng.bit_generator.state = after
            z_path = _sv_prices(v[:, j], z_price, sqdt)[1]
            base = rng.standard_normal((n, 2)) @ chol.T * math.sqrt(dt)
            zperp = np.concatenate([[0.0], np.cumsum(sp * base[:, 0])])
            zdag = np.concatenate([[0.0], np.cumsum(sd * base[:, 1])])
            x1 = rho1 * z_path + zperp
            x2 = rho2 * z_path + zdag
            res = ci_test(TickSeries(sch, x1), TickSeries(sch, x2), TickSeries(sch, z_path), method="rc")
            if res.inconclusive:
                outcome[lo + j] = 2
            elif res.p_value < 0.05:
                outcome[lo + j] = 1

        _replicate_map(draw, rngs)
        _sv_recursion(zmodel, steps, v)
        _replicate_map(rest, rngs)

    # one chunk's buffer is freed before the next one's is taken
    rngs = _spawn_rngs(seed, replicates)
    chunks = -(-replicates // max(1, _SV_BUFFER_BYTES // (8 * (n + 1))))
    chunk = -(-replicates // chunks)
    for lo in range(0, replicates, chunk):
        run_chunk(lo, rngs[lo : lo + chunk])
    inconclusive = int(np.sum(outcome == 2))
    rate = int(np.sum(outcome == 1)) / max(replicates - inconclusive, 1)
    return rate, {"inconclusive": inconclusive}


def scenario_ci_size(replicates: int = 500, seed: int = 20260808, n: int = 3000) -> dict:
    """Empirical size of the conditional-independence test at the 5% level
    under the proportional (null) construction."""
    rate, extra = _ci_study(0.0, replicates, seed, n)
    checks = [_interval_check("rejection_rate_5pct", rate, 0.03, 0.08)]
    return _report("ci_size", replicates, seed, checks, {"n": n, **extra})


def scenario_ci_power(replicates: int = 500, seed: int = 20260808, n: int = 3000) -> dict:
    """Empirical power under an alternative whose orthogonal-part
    covariation equals 50% of the expected [Z]_T in magnitude."""
    alt_corr = 0.5 * _CI_VBAR_Z / _CI_VOL_ORTH**2
    rate, extra = _ci_study(alt_corr, replicates, seed, n)
    checks = [{"name": "power_at_least_50pct", "value": rate, "passed": bool(rate >= 0.50)}]
    return _report("ci_power", replicates, seed, checks, {"n": n, "alt_corr": alt_corr, **extra})


def _report(name: str, replicates: int, seed: int, checks: list[dict], config: dict) -> dict:
    return {
        "scenario": name,
        "replicates": replicates,
        "seed": seed,
        "passed": all(c["passed"] for c in checks if c.get("required", True)),
        "checks": checks,
        "config": config,
    }


SCENARIOS: dict[str, Callable[..., dict]] = {
    "rc_clt": scenario_rc_clt,
    "ms_kernel_equivalence": scenario_ms_kernel_equivalence,
    "rate_hy": scenario_rate_hy,
    "rate_gms": scenario_rate_gms,
    "hy_acov": scenario_hy_acov,
    "gms_acov_async": scenario_gms_acov_async,
    "ci_size": scenario_ci_size,
    "ci_power": scenario_ci_power,
}


def mc_validate(scenario: str, replicates: int | None = None, seed: int = 20260808, **overrides) -> dict:
    """Run a named Monte Carlo validation scenario and return its report.

    Reports carry every check with value, target and pass flag, the seed,
    and the wall-clock ``elapsed_s``; without that one field (the CLI writes
    it to stderr) they rerun byte-identically for the same arguments.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; available: {sorted(SCENARIOS)}")
    if replicates is not None and replicates < 100:
        raise ValueError("use at least 100 replicates")
    fn = SCENARIOS[scenario]
    kwargs = dict(overrides)
    if replicates is not None:
        kwargs["replicates"] = replicates
    kwargs["seed"] = seed
    t0 = _time.perf_counter()
    report = fn(**kwargs)
    report["elapsed_s"] = round(_time.perf_counter() - t0, 3)
    return report
