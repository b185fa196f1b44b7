"""The four benchmark workloads and one timed pass over each.

A pass runs the public library calls that the CLI commands wrap
(``load_ticks``, ``estimate_matrix``, ``acov_matrix_hat``, ``ci_test``,
``mc_validate``) and returns the wall time of every call together with
the outputs the correctness checks compare.  Calls go through the module
attribute at call time, so the tracer's wrappers, when installed, see
them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

from gen import TickSpec

STEPS = ("load", "estimate", "acov", "citest", "mc")

# scenarios of the mc workload: the SV Euler loop (ci_size), re-snapping
# of fixed schemes (rc_clt) and the time covariations (hy_acov)
MC_SCENARIOS = ("ci_size", "rc_clt", "hy_acov")
MC_REPLICATES = 100  # the smallest count mc_validate accepts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: TickSpec | None  # None: the workload reads no tick file


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gms_async",
            "noisy asynchronous p=4 gms: refresh recursion and per-entry acov rebuilds dominate",
            # fine grid chosen so that about 10% of stamps are shared
            TickSpec(p=4, n=300, sampling="poisson", fine=9_000, noise_sd=5e-4),
        ),
        Workload(
            "gms_sync",
            "synchronous p=2 gms with parzen weights: dense sync_overlap matrices dominate",
            TickSpec(p=2, n=2000, sampling="equidistant", fine=2000, noise_sd=5e-4),
        ),
        Workload(
            "rc_wide",
            "synchronous p=10 rc/ms/kernel/hy: CSV parsing and the q^2 rc acov loop, no refresh",
            TickSpec(p=10, n=20_000, sampling="equidistant", fine=20_000, noise_sd=1e-5),
        ),
        Workload(
            "mc",
            "mc_validate on ci_size, rc_clt and hy_acov: the only workload for the sim layer",
            None,
        ),
    )
}


class Pass:
    """Wall time per call and outputs of one pass."""

    def __init__(self) -> None:
        self.timed: list[tuple[str, str, float]] = []  # (step, op, seconds) per completed call
        self.outputs: dict[str, object] = {}
        self.attempted = 0  # public calls started

    @property
    def total_s(self) -> float:
        """Wall time of all calls of the pass; time spent in step hooks is excluded."""
        return sum(dt for _, _, dt in self.timed)

    def call(self, step: str, op: str, fn):
        self.attempted += 1
        t0 = time.perf_counter()
        out = fn()
        self.timed.append((step, op, time.perf_counter() - t0))
        return out


def run_pass(hf, workload: Workload, csv_path: str, seed: int, hook=None) -> Pass:
    """One pass of ``workload``; ``hf`` is the imported ``hficov`` package.

    ``hook(step)``, if given, is entered as a context manager around each
    step (around each scenario of ``mc``); the speed probe and the
    allocation pass use it.  An exception propagates with the
    partial pass in ``exc.bench_pass``.
    """
    ps = Pass()
    try:
        _STEPS_OF[workload.name](hf, ps, csv_path, seed, hook or _no_hook)
    except Exception as exc:
        exc.bench_pass = ps
        raise
    return ps


def _no_hook(step):
    return contextlib.nullcontext()


def _load(hf, ps, csv_path, hook):
    with hook("load"):
        ids, series = ps.call("load", "load", lambda: hf.tickio.load_ticks(csv_path))
    ps.outputs["load"] = (ids, series)
    return series


def _gms_async(hf, ps, csv_path, seed, hook):
    series = _load(hf, ps, csv_path, hook)
    cfg = hf.estimators.EstimatorConfig(kernel="cubic")
    with hook("estimate"):
        est = ps.call("estimate", "estimate.gms", lambda: hf.estimators.estimate_matrix(series, "gms", cfg))
    with hook("acov"):
        am = ps.call("acov", "acov.gms", lambda: hf.avar.acov_matrix_hat(series, "gms", hf.avar.GmsAcovConfig(kernel="cubic")))
    with hook("citest"):
        ci = ps.call("citest", "citest.gms", lambda: hf.citest.ci_test(series[0], series[1], series[2], method="gms", config=cfg))
    ps.outputs.update(
        {
            "estimate.gms": est,
            "acov.gms": am,
            "citest.gms": [((0, 1, 2), ci)],
        }
    )


def _gms_sync(hf, ps, csv_path, seed, hook):
    series = _load(hf, ps, csv_path, hook)
    cfg = hf.estimators.EstimatorConfig(kernel="parzen")
    with hook("estimate"):
        est = ps.call("estimate", "estimate.gms", lambda: hf.estimators.estimate_matrix(series, "gms", cfg))
    with hook("acov"):
        am = ps.call("acov", "acov.gms", lambda: hf.avar.acov_matrix_hat(series, "gms", hf.avar.GmsAcovConfig(kernel="parzen")))
    ps.outputs.update({"estimate.gms": est, "acov.gms": am})


def _rc_wide(hf, ps, csv_path, seed, hook):
    series = _load(hf, ps, csv_path, hook)
    cfg = hf.estimators.EstimatorConfig(kernel="cubic")
    with hook("estimate"):
        for method in ("rc", "ms", "kernel", "hy"):
            ps.outputs[f"estimate.{method}"] = ps.call(
                "estimate", f"estimate.{method}", lambda: hf.estimators.estimate_matrix(series, method, cfg)
            )
    with hook("acov"):
        ps.outputs["acov.rc"] = ps.call("acov", "acov.rc", lambda: hf.avar.acov_matrix_hat(series, "rc", cfg))
    triples = []
    with hook("citest"):
        for tri in itertools.combinations(range(len(series)), 3):
            x1, x2, z = (series[i] for i in tri)
            triples.append((tri, ps.call("citest", "citest.rc", lambda: hf.citest.ci_test(x1, x2, z, method="rc", config=cfg))))
    ps.outputs["citest.rc"] = triples


def _mc(hf, ps, csv_path, seed, hook):
    for sc in MC_SCENARIOS:
        with hook("mc"):
            report = ps.call("mc", f"mc.{sc}", lambda: hf.sim.mc_validate(sc, replicates=MC_REPLICATES, seed=seed))
            # wall-clock timing is the one field that may differ between runs
            report.pop("elapsed_s", None)
            ps.outputs[f"mc.{sc}"] = json.dumps(report, indent=2, sort_keys=True, default=_jsonable).encode()


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


_STEPS_OF = {"gms_async": _gms_async, "gms_sync": _gms_sync, "rc_wide": _rc_wide, "mc": _mc}


def flat_outputs(ps: Pass) -> dict[str, np.ndarray | bytes]:
    """The compared outputs of a pass as named float arrays (mc: bytes).

    Estimates give their svec, acov matrices their upper triangle, CI tests
    the statistic, z and p per triple (NaN where inconclusive).
    """
    out: dict = {}
    for key, val in ps.outputs.items():
        if key == "load":
            continue
        if key.startswith("estimate."):
            out[key] = np.asarray(val.svec, dtype=float)
        elif key.startswith("acov."):
            out[key] = val.entries[np.triu_indices(val.entries.shape[0])]
        elif key.startswith("citest."):
            out[key] = np.array(
                [[r.statistic, _nan(r.z), _nan(r.p_value)] for _, r in val], dtype=float
            )
        else:
            out[key] = val
    return out


def _nan(x):
    return np.nan if x is None else float(x)
