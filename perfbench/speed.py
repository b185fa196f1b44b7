"""Reference-speed timing: a fixed CPU probe run around every timed step.

The CPU speed of the machine the baseline was recorded on (a shared 2-vCPU
VM) drifts by up to 2.4x over tens of seconds, and averaging over a longer
run does not remove drift that slow.  So each timed step is bracketed by a
probe, a fixed mix of interpreter work and small numpy calls that touches
no ``hficov`` code, and its wall time is rescaled to the speed at which
the probe takes ``REF_S`` seconds:

    ref_s = wall_s * REF_S / mean(probe before, probe after)

A change to ``hficov`` cannot change the probe, so a slower program still
reads slower; a slower machine reads the same.  Raw wall times are reported
next to every rescaled one.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time on the machine the committed baseline was recorded on
REF_S = 0.085

_rng = np.random.default_rng(20261017)
_ARR = _rng.standard_normal(20_000)
_GRID = np.sort(_rng.uniform(size=20_000))
_Q = _rng.uniform(size=300)


def probe() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls."""
    t0 = time.perf_counter()
    for _ in range(60):
        s = 0.0
        for i in range(20_000):
            s += i * 0.5
        np.sort(_ARR)
        for x in _Q:
            _GRID.searchsorted(x)
    return time.perf_counter() - t0


class Probed:
    """Step hook for ``run_pass``: probe around each step, rescale its time.

    Consecutive steps share the probe between them.  ``take()`` returns the
    reference seconds per step accumulated since the last call.
    """

    def __init__(self) -> None:
        self._last: float | None = None
        self._ref: dict[str, float] = {}

    def __call__(self, step: str) -> "Probed":
        self._step = step
        return self

    def __enter__(self) -> None:
        if self._last is None:
            self._last = probe()
        self._t0 = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        wall = time.perf_counter() - self._t0
        after = probe()
        scaled = wall * REF_S / ((self._last + after) / 2)
        self._ref[self._step] = self._ref.get(self._step, 0.0) + scaled
        self._last = after
        return False

    def take(self) -> dict[str, float]:
        ref, self._ref = self._ref, {}
        return ref
