"""Seeded tick inputs for the benchmark, written with plain numpy.

The program under test receives only the CSV this module writes; nothing
here calls ``hficov``.  Paths are correlated constant-volatility Brownian
motions (equicorrelated through one common factor) on a fine grid of
``fine`` steps over [0, 1].  Each asset is observed either on an
equidistant scheme (every asset on the same stamps) or on a Poisson scheme with a fixed count, i.e. sorted uniform arrivals,
snapped to the nearest fine-grid point with collisions dropped, the way
``hficov.sim.observe`` snaps.  Snapping makes some stamps coincide across
assets; the fraction of such shared stamps is what the synchronous-overlap
path of the gms asymptotic covariance depends on, so it is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER = "asset_id,timestamp,log_price\n"


@dataclass(frozen=True)
class TickSpec:
    """Input shape of one workload."""

    p: int
    n: int  # ticks per asset before snapping (equidistant: increments)
    sampling: str  # "poisson" or "equidistant"
    fine: int  # fine-grid steps on [0, 1]
    noise_sd: float
    corr: float = 0.5


@dataclass(frozen=True)
class Ticks:
    ids: list
    times: list  # one float64 array per asset
    values: list

    def facts(self) -> dict:
        """Realized tick counts and the shared-stamp fraction."""
        counts = [int(t.size) for t in self.times]
        allt = np.concatenate(self.times)
        _, inv, mult = np.unique(allt, return_inverse=True, return_counts=True)
        shared = float(np.mean(mult[inv] > 1))
        return {"ticks_per_asset": counts, "rows": int(sum(counts)), "shared_stamp_fraction": shared}


def generate(spec: TickSpec, seed: int) -> Ticks:
    """Draw one input set; the same ``(spec, seed)`` gives identical arrays."""
    rng = np.random.default_rng([seed, spec.p, spec.n, spec.fine])
    grid = np.linspace(0.0, 1.0, spec.fine + 1)
    vols = rng.uniform(0.012, 0.02, size=spec.p)
    # one common factor gives every pair the correlation spec.corr; plain
    # elementwise arithmetic (no BLAS) keeps the inputs bit-identical across CPUs
    z = rng.standard_normal((spec.fine, spec.p + 1))
    dw = (np.sqrt(spec.corr) * z[:, :1] + np.sqrt(1.0 - spec.corr) * z[:, 1:]) * (vols * np.sqrt(1.0 / spec.fine))
    paths = np.vstack([np.zeros(spec.p), np.cumsum(dw, axis=0)]) + np.log(100.0)
    if spec.sampling == "equidistant":
        if spec.fine % spec.n:
            raise ValueError("fine must be a multiple of n for equidistant sampling")
        idx = [np.arange(0, spec.fine + 1, spec.fine // spec.n)] * spec.p
    elif spec.sampling == "poisson":
        idx = [_snap(np.sort(rng.uniform(0.0, 1.0, size=spec.n)), grid) for _ in range(spec.p)]
    else:
        raise ValueError(f"unknown sampling {spec.sampling!r}")
    times = [grid[i] for i in idx]
    values = [paths[i, l] + spec.noise_sd * rng.standard_normal(i.size) for l, i in enumerate(idx)]
    return Ticks([f"A{l}" for l in range(spec.p)], times, values)


def _snap(t: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Nearest grid index per time, ties to the left, collisions dropped."""
    idx = np.clip(np.searchsorted(grid, t), 0, grid.size - 1)
    left = np.maximum(idx - 1, 0)
    use_left = (idx > 0) & (np.abs(grid[left] - t) <= np.abs(grid[idx] - t))
    return np.unique(np.where(use_left, left, idx))


def write_csv(path, ticks: Ticks) -> None:
    """Long ``asset_id,timestamp,log_price`` CSV; ``repr`` round-trips floats."""
    with open(path, "w") as fh:
        fh.write(HEADER)
        for aid, t, v in zip(ticks.ids, ticks.times, ticks.values):
            fh.writelines(f"{aid},{ti!r},{vi!r}\n" for ti, vi in zip(t.tolist(), v.tolist()))
