"""Correctness checks on the outputs of a pass.

Three kinds, each reporting the failed items as ``(output, row)`` pairs
(row ``None`` for an output made by a single call):

* oracles that hold for every seed: the loaded ticks equal the generated
  arrays bit for bit; rc equals the realized covariance and hy on a common
  grid equals it too; the rc acov equals its closed form; each CI test
  agrees with the full-width estimate and acov of the same pass and with
  its own delta-method algebra; estimates and acov matrices are finite and
  symmetric;
* references recorded for some seeds (``refs/<workload>.npz``): arrays
  within the 1e-12 relative oracle bound with an absolute floor of 1e-12
  times the largest magnitude of the array (of the column, for CI tests),
  mc reports (``elapsed_s`` stripped) by SHA-256 digest;
* determinism: every later pass of a run gives bit-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"
RTOL = 1e-12


def _close(a, b, scale=None) -> np.ndarray:
    """Elementwise ``|a - b| <= RTOL * (|b| + scale)``; NaN matches NaN.

    ``scale`` defaults to the largest finite magnitude of ``b``, per column
    when ``b`` is 2-D (one row per call, columns of different units).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.zeros(b.shape, dtype=bool)
    if scale is None:
        finite = np.where(np.isfinite(b), np.abs(b), 0.0)
        scale = finite.max(axis=0, initial=0.0) if b.ndim == 2 else finite.max(initial=0.0)
    with np.errstate(invalid="ignore"):
        ok = np.abs(a - b) <= RTOL * (np.abs(b) + scale)
    return ok | (np.isnan(a) & np.isnan(b))


def _rows_failed(ok: np.ndarray) -> list:
    """Failed rows of a 2-D check (one row per call), else ``[None]`` or ``[]``."""
    ok = np.asarray(ok)
    if ok.all():
        return []
    if ok.ndim == 2:
        return [int(i) for i in np.flatnonzero(~ok.all(axis=1))]
    return [None]


def _svec(m: np.ndarray) -> np.ndarray:
    return m[np.triu_indices(m.shape[0])]


def load_failures(out: dict, ticks) -> list[tuple[str, int | None, str]]:
    """The loaded ticks must equal the generated ones bit for bit."""
    if ticks is None:
        return []
    ids, series = out["load"]
    horizon = max(t[-1] for t in ticks.times)
    same = ids == ticks.ids and len(series) == len(ticks.times) and all(
        np.array_equal(s.scheme.times, t) and np.array_equal(s.values, v) and s.scheme.horizon == horizon
        for s, t, v in zip(series, ticks.times, ticks.values)
    )
    return [] if same else [("load", None, "loaded ticks differ from the generated ones")]


def oracle_failures(out: dict, ticks) -> list[tuple[str, int | None, str]]:
    """Seed-independent checks of a pass's outputs other than the load."""
    fails: list = []
    for key, est in out.items():
        if key.startswith("estimate."):
            m = est.matrix
            if not (np.all(np.isfinite(m)) and np.array_equal(m, m.T) and np.array_equal(est.svec, _svec(m))):
                fails.append((key, None, "estimate not finite, not symmetric or svec not its upper triangle"))
        elif key.startswith("acov."):
            e = est.entries
            if not (np.all(np.isfinite(e)) and np.array_equal(e, e.T)):
                fails.append((key, None, "acov not finite or not symmetric"))
    if "estimate.rc" in out:
        d = np.vstack([np.diff(v) for v in ticks.values])
        rc = _svec(d @ d.T)
        if not _close(out["estimate.rc"].svec, rc).all():
            fails.append(("estimate.rc", None, "rc differs from the realized covariance"))
        if "estimate.hy" in out and not _close(out["estimate.hy"].svec, rc).all():
            fails.append(("estimate.hy", None, "hy on a common grid differs from the realized covariance"))
        if "acov.rc" in out and not _close(_svec(out["acov.rc"].entries), _svec(_rc_acov(d))).all():
            fails.append(("acov.rc", None, "rc acov differs from its closed form"))
    for key in [k for k in out if k.startswith("citest.")]:
        method = key.split(".", 1)[1]
        est, am = out[f"estimate.{method}"], out[f"acov.{method}"]
        for row, (tri, res) in enumerate(out[key]):
            msg = _citest_mismatch(tri, res, est.matrix, am)
            if msg:
                fails.append((key, row, msg))
    for key in [k for k in out if k.startswith("mc.")]:
        rep = json.loads(out[key])
        sc = key.split(".", 1)[1]
        if rep.get("scenario") != sc or not isinstance(rep.get("passed"), bool) or not rep.get("checks"):
            fails.append((key, None, "mc report lacks scenario, passed flag or checks"))
    return fails


def _rc_acov(d: np.ndarray) -> np.ndarray:
    """Closed form of the adjacent-increment rc acov for all svec pairs."""
    p, n = d.shape
    pairs = [(k, l) for k in range(p) for l in range(k, p)]
    x = np.array([d[k, :-1] * d[l, 1:] for k, l in pairs])
    y = np.array([d[k, 1:] * d[l, :-1] for k, l in pairs])
    return n * (x @ x.T + 0.5 * (y @ x.T + x @ y.T))


def _citest_mismatch(tri, res, m: np.ndarray, am) -> str | None:
    i, j, k = tri
    b = np.array([m[i, k], m[j, k], m[i, j], m[k, k]])
    if not _close(res.brackets, b).all():
        return f"{tri}: brackets differ from the full estimate"
    order = [(i, k), (j, k), (i, j), (k, k)]
    p = am.p
    idx = [a * p - a * (a - 1) // 2 + (c - a) for a, c in (sorted(x) for x in order)]
    c = am.raw()[np.ix_(idx, idx)]
    if not _close(res.acov_entries, c).all():
        return f"{tri}: acov entries differ from the full acov"
    stat = b[0] * b[1] - b[2] * b[3]
    if not _close(res.statistic, stat, abs(b[0] * b[1]) + abs(b[2] * b[3])):
        return f"{tri}: statistic is not [X1,Z][X2,Z] - [X1,X2][Z]"
    g = np.array([b[1], b[0], -b[3], -b[2]])
    avar = float(g @ c @ g)
    if not _close(res.avar_hat, avar, float(np.abs(g) @ np.abs(c) @ np.abs(g))):
        return f"{tri}: avar differs from the delta method"
    if res.avar_hat <= 0 or not math.isfinite(res.avar_hat):
        return None if res.z is None and res.p_value is None else f"{tri}: z reported for a nonpositive avar"
    z = res.statistic / math.sqrt(res.avar_hat)
    if res.z is None or not _close(res.z, z) or abs(res.p_value - math.erfc(abs(z) / math.sqrt(2.0))) > 1e-12:
        return f"{tri}: z or p inconsistent with the statistic and avar"
    return None


def reference_failures(workload: str, seed: int, flat: dict) -> tuple[str, list]:
    """Compare with the recorded reference: ("matched"|"mismatch"|"unchecked", fails)."""
    ref = load_reference(workload, seed)
    if ref is None:
        return "unchecked", []
    fails = []
    for key, want in ref.items():
        got = flat.get(key)
        if got is None:
            fails.append((key, None, "output missing"))
        elif isinstance(want, str):
            if hashlib.sha256(got).hexdigest() != want:
                fails.append((key, None, "mc report digest differs from the reference"))
        else:
            fails += [(key, r, "differs from the reference") for r in _rows_failed(_close(got, want))]
    return ("mismatch" if fails else "matched"), fails


def determinism_failures(first: dict, later: dict) -> list:
    fails = []
    for key, a in first.items():
        b = later.get(key)
        if isinstance(a, bytes):
            if a != b:
                fails.append((key, None, "mc report changed between passes"))
            continue
        if b is None or a.shape != b.shape:
            fails.append((key, None, "output changed shape between passes"))
            continue
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        fails += [(key, r, "output changed between passes") for r in _rows_failed(same)]
    return fails


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference outputs of ``seed``: float arrays, and digests as ``str``."""
    path = REFS / f"{workload}.npz"
    if not path.exists():
        return None
    prefix = f"{seed}:"
    with np.load(path, allow_pickle=False) as z:
        ref = {k[len(prefix):]: (str(z[k]) if z[k].dtype.kind == "U" else z[k]) for k in z.files if k.startswith(prefix)}
    return ref or None


def record_reference(workload: str, seed: int, flat: dict) -> None:
    """Store ``flat`` (arrays, or mc report bytes as SHA-256) for ``seed``."""
    path = REFS / f"{workload}.npz"
    entries = {}
    if path.exists():
        with np.load(path, allow_pickle=False) as z:
            entries = {k: z[k] for k in z.files if not k.startswith(f"{seed}:")}
    for k, v in flat.items():
        entries[f"{seed}:{k}"] = np.array(hashlib.sha256(v).hexdigest()) if isinstance(v, bytes) else np.asarray(v)
    REFS.mkdir(exist_ok=True)
    np.savez_compressed(path, **entries)
