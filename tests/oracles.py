"""Independent literal-transcription oracles.

Most of what is here is written as plain loops from the defining formulas,
on purpose sharing no code with the package implementations (no prefix
sums, no convolutions, no vectorization).  The test suite pins the fast
implementations against these to 1e-12 relative error.  Two oracles are
simpler forms of the same computation instead, pinned bit for bit: the
one-pair-at-a-time synchronous estimator loop and the row-by-row tick-file
loader.  The shared stochastic-variance test model lives here too.
"""

from __future__ import annotations

import bisect


def ms_oracle(values_a, values_b, alphas) -> float:
    """Multi-scale estimator as the literal double sum."""
    n = len(values_a) - 1
    total = 0.0
    for i in range(1, len(alphas) + 1):
        inner = 0.0
        for j in range(i, n + 1):
            inner += (values_a[j] - values_a[j - i]) * (values_b[j] - values_b[j - i])
        total += alphas[i - 1] / i * inner
    return total


def kernel_oracle(values_a, values_b, kern, H, adjusted=False) -> float:
    """Autocovariance-kernel estimator as literal lag sums."""
    n = len(values_a) - 1
    da = [values_a[j] - values_a[j - 1] for j in range(1, n + 1)]
    db = [values_b[j] - values_b[j - 1] for j in range(1, n + 1)]
    total = sum(da[j] * db[j] for j in range(n)) * ((n - 1) / n if adjusted else 1.0)
    for h in range(1, H + 1):
        w = kern.k(h / H)
        acc = 0.0
        for j in range(h, n):
            acc += da[j] * db[j - h] + db[j] * da[j - h]
        total += w * acc
    return total


def hy_oracle(times_a, values_a, times_b, values_b) -> float:
    """Overlap estimator as the literal double sum with indicator."""
    total = 0.0
    for i in range(1, len(times_a)):
        for j in range(1, len(times_b)):
            if min(times_a[i], times_b[j]) > max(times_a[i - 1], times_b[j - 1]):
                total += (values_a[i] - values_a[i - 1]) * (values_b[j] - values_b[j - 1])
    return total


def _next_tick(times, s):
    i = bisect.bisect_left(times, s)
    if i >= len(times):
        raise ValueError("no next tick")
    return times[i]


def _prev_tick(times, s):
    i = bisect.bisect_right(times, s) - 1
    if i < 0:
        raise ValueError("no previous tick")
    return times[i]


def refresh_oracle(times_a, times_b):
    """Refresh-time recursion by explicit scanning."""
    out = []
    tau = max(times_a[0], times_b[0])
    if tau > min(times_a[-1], times_b[-1]):
        return out
    out.append(tau)
    while True:
        nxt = []
        for t in (times_a, times_b):
            i = bisect.bisect_right(t, tau)
            if i >= len(t):
                return out
            nxt.append(t[i])
        cand = max(nxt)
        if cand > min(times_a[-1], times_b[-1]):
            return out
        out.append(cand)
        tau = cand


def gms_oracle(times_a, values_a, times_b, values_b, alphas) -> float:
    """Generalized multi-scale estimator transcribed literally.

    Refresh times by the recursion; next/previous tick values looked up per
    term; the inner sum runs over j = i..N on the refresh sequence.
    """
    taus = refresh_oracle(times_a, times_b)
    N = len(taus) - 1
    val_a = dict(zip(times_a, values_a))
    val_b = dict(zip(times_b, values_b))

    def a_plus(s):
        return val_a[_next_tick(times_a, s)]

    def a_minus(s):
        return val_a[_prev_tick(times_a, s)]

    def b_plus(s):
        return val_b[_next_tick(times_b, s)]

    def b_minus(s):
        return val_b[_prev_tick(times_b, s)]

    total = 0.0
    for i in range(1, len(alphas) + 1):
        inner = 0.0
        for j in range(i, N + 1):
            inner += (a_plus(taus[j]) - a_minus(taus[j - i])) * (b_plus(taus[j]) - b_minus(taus[j - i]))
        total += alphas[i - 1] / i * inner
    return total


def acov_rc_oracle(incs, k, l, r, q) -> float:
    """Adjacent-increment asymptotic covariance estimator, literal loops.

    ``incs`` is a list of per-component increment lists; components 1-based.
    """
    dk, dl, dr, dq = incs[k - 1], incs[l - 1], incs[r - 1], incs[q - 1]
    n = len(dk)
    t1 = sum((dk[i] * dl[i + 1]) * (dr[i] * dq[i + 1]) for i in range(n - 1))
    t2a = sum((dk[i + 1] * dl[i]) * (dr[i] * dq[i + 1]) for i in range(n - 1))
    t2b = sum((dr[i + 1] * dq[i]) * (dk[i] * dl[i + 1]) for i in range(n - 1))
    return n * (t1 + 0.5 * (t2a + t2b))


def lasa_oracle(times, r, t, horizon) -> float:
    """Local sampling autocorrelation, literal double sum (out-of-range
    increments are zero)."""
    N = len(times) - 1
    total = 0.0
    for j in range(1, N + 1):
        if times[j] > t:
            break
        inner = 0.0
        for qq in range(0, min(r, j) + 1):
            idx = j - qq
            if idx >= 1:
                inner += times[idx] - times[idx - 1]
        total += (times[j] - times[j - 1]) * inner
    return N / (r * horizon) * total


def wlasa_oracle(times, alphas, t, horizon, lag0_weight=1.0) -> float:
    """Weighted sampling autocorrelation, literal triple sum, with the
    ``q = 0`` self term weighted by ``lag0_weight`` (1 is the literal sum,
    1/2 the trapezoidal edge weight of ``weighted_lasa_function``)."""
    N = len(times) - 1
    M = len(alphas)
    total = 0.0
    for rr in range(1, N + 1):
        if times[rr] > t:
            break
        d_r = times[rr] - times[rr - 1]
        inner = 0.0
        for i in range(1, M + 1):
            for kk in range(1, M + 1):
                acc = 0.0
                for qq in range(0, min(rr, i, kk) + 1):
                    idx = rr - qq
                    if idx >= 1:
                        q_weight = lag0_weight if qq == 0 else 1.0
                        acc += q_weight * (1 - qq / i) * (1 - qq / kk) * (times[idx] - times[idx - 1])
                inner += alphas[i - 1] * alphas[kk - 1] * acc
        total += d_r * inner
    return N / (M * horizon) * total


def sync_counts_oracle(schemes, m_12, m_34):
    """Synchronous-overlap counts as literal quadruple indicator sums.

    Returns (s_hat_13_24, s_hat_14_23, s_tilde_13_24, s_tilde_14_23) with
    the same normalization as the implementation (each bracket pair divided
    by 2 N min(m_12, m_34) resp. 2 min(m_12, m_34)).
    """
    t1, t2, t3, t4 = [list(s) for s in schemes]
    tau = refresh_oracle(t1, t2)
    ttau = refresh_oracle(t3, t4)
    glob = refresh_oracle(tau, ttau)
    N = len(glob) - 1
    M = min(m_12, m_34)

    def plus(times, s):
        return _next_tick(times, s)

    def minus(times, s):
        return _prev_tick(times, s)

    def s_hat(a, b, am, bm):
        total = 0
        for j in range(len(tau)):
            for k in range(len(ttau)):
                if plus(a, tau[j]) != plus(b, ttau[k]):
                    continue
                for rr in range(1, min(j, m_12) + 1):
                    for qq in range(1, min(k, m_34) + 1):
                        if minus(am, tau[j - rr]) == minus(bm, ttau[k - qq]):
                            total += 1
        return total

    hat_13_24 = (s_hat(t1, t3, t2, t4) + s_hat(t2, t4, t1, t3)) / (2.0 * N * M)
    hat_14_23 = (s_hat(t1, t4, t2, t3) + s_hat(t2, t3, t1, t4)) / (2.0 * N * M)

    def s_tilde(a, b, c, d):
        n12, n34 = len(tau) - 1, len(ttau) - 1
        front = 0
        for j in range(min(m_12, n12 + 1)):
            for k in range(min(m_34, n34 + 1)):
                if plus(a, tau[j]) == plus(b, ttau[k]) and plus(c, tau[j]) == plus(d, ttau[k]):
                    front += 1
        back = 0
        for j in range(min(m_12, n12 + 1)):
            for k in range(min(m_34, n34 + 1)):
                if minus(a, tau[n12 - j]) == minus(b, ttau[n34 - k]) and minus(c, tau[n12 - j]) == minus(d, ttau[n34 - k]):
                    back += 1
        return (front + back) / (2.0 * M)

    tilde_13_24 = s_tilde(t1, t3, t2, t4)
    tilde_14_23 = s_tilde(t1, t4, t2, t3)
    return hat_13_24, hat_14_23, tilde_13_24, tilde_14_23


def _ov(lo1, hi1, lo2, hi2) -> float:
    return max(0.0, min(hi1, hi2) - max(lo1, lo2))


def timecov_oracle(times1, times2, times3, times4, horizon):
    """Quadratic covariations of times, transcribed independently.

    Full double loop over the two pairwise refresh sequences: synchronous
    blocks paired as squared overlaps (g); the four interpolation terms of
    each pair (next-stub x span, span x next-stub, prev-stub x block,
    block x prev-stub) paired into the two channels; synchronous x
    interpolation cross products.  Buckets: f = anchor blocks overlap,
    h = sync x interp, i = disjoint anchors.  Returns the function totals
    as a dict, scaled by N/T with N the global refresh count.
    """
    tau = refresh_oracle(times1, times2)
    ttau = refresh_oracle(times3, times4)
    glob = refresh_oracle(tau, ttau)
    N = len(glob) - 1
    scale = N / horizon

    def terms(times_x, times_y, anchors, j):
        lo, hi = anchors[j - 1], anchors[j]
        nxt_x = (hi, max(_next_tick(times_x, hi), hi))
        nxt_y = (hi, max(_next_tick(times_y, hi), hi))
        span_x = (_prev_tick(times_x, lo), hi)
        span_y = (_prev_tick(times_y, lo), hi)
        prev_x = (_prev_tick(times_x, lo), lo)
        prev_y = (_prev_tick(times_y, lo), lo)
        block = (lo, hi)
        # (x-side interval, y-side interval)
        return [(nxt_x, span_y), (span_x, nxt_y), (prev_x, block), (block, prev_y)], block

    out = {"g": 0.0, "f_a": 0.0, "f_b": 0.0, "h_a": 0.0, "h_b": 0.0, "i_a": 0.0, "i_b": 0.0}
    for j in range(1, len(tau)):
        t12, blk12 = terms(times1, times2, tau, j)
        for k in range(1, len(ttau)):
            t34, blk34 = terms(times3, times4, ttau, k)
            blk_ov = _ov(*blk12, *blk34)
            out["g"] += blk_ov**2
            anchored = blk_ov > 0.0
            for x1, x2 in t12:
                for x3, x4 in t34:
                    wa = _ov(*x1, *x3) * _ov(*x2, *x4)
                    wb = _ov(*x1, *x4) * _ov(*x2, *x3)
                    key = "f" if anchored else "i"
                    out[f"{key}_a"] += wa
                    out[f"{key}_b"] += wb
            for x3, x4 in t34:
                out["h_a"] += _ov(*blk12, *x3) * _ov(*blk12, *x4)
                out["h_b"] += _ov(*blk12, *x4) * _ov(*blk12, *x3)
            for x1, x2 in t12:
                out["h_a"] += _ov(*x1, *blk34) * _ov(*x2, *blk34)
                out["h_b"] += _ov(*x2, *blk34) * _ov(*x1, *blk34)
    return {k: scale * v for k, v in out.items()}


def ci_avar_gradient_oracle(brackets, cov4) -> float:
    """Delta-method variance as the explicit gradient quadratic form."""
    b1, b2, b3, b4 = brackets
    grad = [b2, b1, -b4, -b3]
    total = 0.0
    for i in range(4):
        for j in range(4):
            total += grad[i] * grad[j] * cov4[i][j]
    return total


def isserlis_mc_oracle(sigma, idx, draws, rng) -> float:
    """Monte Carlo estimate of Cov(Z_i Z_l, Z_m Z_u) for Z ~ N(0, sigma)."""
    import numpy as np

    chol = np.linalg.cholesky(np.asarray(sigma))
    z = rng.standard_normal((draws, len(sigma))) @ chol.T
    i, l, m, u = [v - 1 for v in idx]
    a = z[:, i] * z[:, l]
    b = z[:, m] * z[:, u]
    return float(np.cov(a, b)[0, 1])


def sv_paths_oracle(model, seed, times):
    """Stochastic-variance branch of ``simulate_paths`` with the variance
    recursion stepped one fine-grid row at a time on numpy arrays.  Returns
    ``(x, sigma, integrated_cov)`` for the same seed and times, with
    ``sigma`` the (m, p, p) volatility tensor of independent components."""
    import math

    import numpy as np

    rng = np.random.default_rng(seed)
    dt = np.diff(times)
    m, p = dt.size, model.p
    mu = np.zeros(p)
    L = np.eye(p)
    vbar = model.sv_vbar if model.sv_vbar is not None else 1e-4
    v0 = model.sv_v0 if model.sv_v0 is not None else vbar
    rho = model.sv_rho_lev
    z_price = rng.standard_normal((m, p))
    z_vol = rho * z_price + math.sqrt(1.0 - rho**2) * rng.standard_normal((m, p))
    sqdt = np.sqrt(dt)[:, None]
    v = np.empty((m + 1, p))
    v[0] = v0
    for i in range(m):
        vp = np.maximum(v[i], 0.0)
        v[i + 1] = v[i] + model.sv_kappa * (vbar - vp) * dt[i] + model.sv_xi * np.sqrt(vp) * sqdt[i] * z_vol[i]
    sigma = np.sqrt(np.maximum(v[:-1], 0.0))[:, :, None] * L[None, :, :]
    dx = mu[None, :] * dt[:, None] + np.einsum("mij,mj->mi", sigma, z_price * sqdt)
    x = np.concatenate([np.zeros((1, p)), np.cumsum(dx, axis=0)]).T
    icov = np.einsum("mij,m->ij", np.einsum("mij,mkj->mik", sigma, sigma), dt)
    return x, sigma, icov


def default_test_model(p=4, T=1.0):
    """Independent square-root variance components with leverage -0.5;
    rich enough to make the asymptotic variances genuinely random."""
    from hficov.sim import ItoModelConfig

    return ItoModelConfig(p=p, T=T, sv_kappa=5.0, sv_vbar=1e-4, sv_xi=2e-4 * 25, sv_rho_lev=-0.5, sv_v0=1e-4)


def sync_matrix_oracle(data, method, cfg):
    """``estimate_matrix(data, method, cfg)`` for ``ms`` and ``kernel`` one
    pair at a time: each pair differences both series again at every scale
    or lag.  Returns ``(matrix, per_pair)``."""
    import math

    import numpy as np

    from hficov.kernels import builtin_kernel, end_effect_adjust

    p, n = len(data), len(data[0].values) - 1
    M = max(2, min(int(round(cfg.c * math.sqrt(n))), n))
    mat, per_pair = np.zeros((p, p)), {}
    for k in range(p):
        for l in range(k, p):
            va, vb = data[k].values, data[l].values
            if method == "ms":
                w = cfg.weights(M)
                if cfg.adjusted:
                    w = end_effect_adjust(w, n)
                if w.M > n:
                    raise ValueError(f"multi-scale frequency M={w.M} exceeds n={n}")
                val = 0.0
                for i in range(1, w.M + 1):
                    val += (w.alphas[i - 1] / i) * float(np.dot(va[i:] - va[:-i], vb[i:] - vb[:-i]))
            else:
                if not 1 <= M < n:
                    raise ValueError(f"need 1 <= H < n, got H={M}, n={n}")
                kern = builtin_kernel(cfg.kernel)
                da, db = np.diff(va), np.diff(vb)
                val = float(np.dot(da, db)) * ((n - 1) / n if cfg.adjusted else 1.0)
                for h in range(1, M + 1):
                    wgt = kern.k(h / M)
                    if wgt != 0.0:
                        val += wgt * float(np.dot(da[h:], db[:-h]) + np.dot(db[h:], da[:-h]))
            mat[k, l] = mat[l, k] = val
            per_pair[(k, l)] = {"method": method, "M": M, "c": float(cfg.c), "kernel": cfg.kernel}
    return mat, per_pair


def load_ticks_oracle(path):
    """Tick CSV parsing row by row with ``csv.reader``: ``(ids, times,
    prices)`` per asset in first-appearance order as lists of floats, or
    the line-numbered ``TickFileError`` of the first faulty row."""
    import csv
    import math

    from hficov.tickio import TickFileError

    header_names = ["asset_id", "timestamp", "log_price"]
    ids, times, prices = [], {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TickFileError(f"{path}: no records (empty file)") from None
        if [h.strip() for h in header] != header_names:
            raise TickFileError(f"{path}:1: expected header {','.join(header_names)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise TickFileError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            asset = row[0].strip()
            try:
                ts = float(row[1])
                px = float(row[2])
            except ValueError:
                raise TickFileError(f"{path}:{lineno}: non-numeric timestamp or log_price") from None
            if math.isnan(ts) or math.isnan(px) or math.isinf(ts) or math.isinf(px):
                raise TickFileError(f"{path}:{lineno}: NaN/inf value")
            if asset not in times:
                ids.append(asset)
                times[asset] = []
                prices[asset] = []
            elif ts <= times[asset][-1]:
                kind = "duplicate" if ts == times[asset][-1] else "non-monotone"
                raise TickFileError(f"{path}:{lineno}: {kind} timestamp {ts!r} for asset {asset!r}")
            times[asset].append(ts)
            prices[asset].append(px)
    if not ids:
        raise TickFileError(f"{path}: no records")
    return ids, [times[a] for a in ids], [prices[a] for a in ids]

