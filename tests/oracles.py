"""Independent literal-transcription oracles.

Most of what is here is written as plain loops from the defining formulas,
on purpose sharing no code with the package implementations (no prefix
sums, no convolutions, no vectorization).  The test suite pins the fast
implementations against these to 1e-12 relative error.  Other oracles are
simpler forms of the same computation instead.  These are pinned bit for
bit: the row-by-row tick-file loader, the refresh merge of one pair, alone
and looped over segments, and the CI-test Monte Carlo study one replicate
at a time.  The others bound sums that add in another order, relative to
the sum of the absolute terms: the scale loop of one multi-scale sum
bounds every multi-scale sum (the synchronous ``ms`` matrix, the point
estimates and the histogram bins), the one-pair-at-a-time lag loop bounds
the synchronous ``kernel`` matrix, and the stamp-by-stamp noise draw
bounds the grouped one (and pins its single-component stamps bit for
bit).  The shared stochastic-variance test model lives here too.
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


def multiscale_sum_loop(up_a, lo_a, up_b, lo_b, coefs) -> float:
    """``sum_i coefs[i-1] sum_j (up_a[j] - lo_a[j-i]) (up_b[j] - lo_b[j-i])``
    as a scale loop of one ``np.dot`` per scale: the reference, within
    rounding, for each bin of ``estimators._lag_sums``."""
    import numpy as np

    total = 0.0
    for i in range(1, len(coefs) + 1):
        da = up_a[i:] - lo_a[:-i]
        db = up_b[i:] - lo_b[:-i]
        total += coefs[i - 1] * float(np.dot(da, db))
    return total


def abs_terms(up_a, lo_a, up_b, lo_b, coefs) -> float:
    """``sum_i |coefs[i-1]| sum_j |d_a d_b|`` of :func:`multiscale_sum_loop`:
    the scale of the rounding of any order of its additions."""
    import numpy as np

    return sum(
        abs(c) * float(np.sum(np.abs((up_a[i:] - lo_a[:-i]) * (up_b[i:] - lo_b[:-i])))) for i, c in enumerate(coefs, 1)
    )


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


def kernel_abs_terms(values_a, values_b, kern, H, adjusted=False) -> float:
    """The sum of the absolute terms of :func:`kernel_oracle`: the scale of
    the rounding of any order of its additions."""
    import numpy as np

    da, db = np.diff(values_a), np.diff(values_b)
    n = da.size
    total = float(np.sum(np.abs(da * db))) * ((n - 1) / n if adjusted else 1.0)
    for h in range(1, H + 1):
        total += abs(kern.k(h / H)) * float(np.sum(np.abs(da[h:] * db[:-h])) + np.sum(np.abs(db[h:] * da[:-h])))
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
    Each pair is taken in k <= l order, since est_kl = est_lk.
    """
    k, l = sorted((k, l))
    r, q = sorted((r, q))
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


def overlap_count_args(glob):
    """The four (plus, plus, minus, minus) argument sets of the s_hat counts
    of a global grid, in the order (1,3)/(2,4), (2,4)/(1,3), (1,4)/(2,3),
    (2,3)/(1,4), each stamp as its position among all stamps of the four
    schemes (not among one scheme pair's, as the package encodes them)."""
    import numpy as np

    g12, g34 = glob.pair_grids
    stamps = np.unique(np.concatenate([s.times for s in glob.source_schemes]))

    def ticks(g, l, idx):
        return np.searchsorted(stamps, g.source_schemes[l].times[idx])

    tp = [[ticks(g, l, g.next_idx[l]) for l in (0, 1)] for g in (g12, g34)]
    tm = [[ticks(g, l, g.prev_idx[l]) for l in (0, 1)] for g in (g12, g34)]
    return [
        (tp[0][x], tp[1][y], tm[0][1 - x], tm[1][1 - y])
        for x, y in ((0, 0), (1, 1), (0, 1), (1, 0))
    ]


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
    or lag.  Returns ``(matrix, per_pair, abs_terms)``, the last the sum of
    each entry's absolute terms (the scale of the rounding of any order of
    its additions)."""
    import math

    import numpy as np

    from hficov.kernels import builtin_kernel, end_effect_adjust

    p, n = len(data), len(data[0].values) - 1
    M = max(2, min(int(round(cfg.c * math.sqrt(n))), n))
    mat, per_pair = np.zeros((p, p)), {}
    abs_terms = np.zeros((p, p))
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
                    da, db = va[i:] - va[:-i], vb[i:] - vb[:-i]
                    val += (w.alphas[i - 1] / i) * float(np.dot(da, db))
                    abs_terms[k, l] += abs(w.alphas[i - 1] / i) * float(np.sum(np.abs(da * db)))
                abs_terms[l, k] = abs_terms[k, l]
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
                abs_terms[k, l] = abs_terms[l, k] = kernel_abs_terms(va, vb, kern, M, cfg.adjusted)
            mat[k, l] = mat[l, k] = val
            per_pair[(k, l)] = {"method": method, "M": M, "c": float(cfg.c), "kernel": cfg.kernel}
    return mat, per_pair, abs_terms


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


def refresh_merge_oracle(a, b):
    """Refresh times of two nonempty increasing time arrays as one merge:
    ``sampling._refresh_merge`` as it was before it took segments."""
    import numpy as np

    tau0 = max(a[0], b[0])
    last = min(a[-1], b[-1])
    if tau0 > last:
        return np.empty(0)
    a = a[np.searchsorted(a, tau0, side="right") :]
    b = b[np.searchsorted(b, tau0, side="right") :]
    stamps = np.concatenate([a, b])
    order = np.argsort(stamps, kind="stable")
    stamps = stamps[order]
    label = np.where(order < a.size, 1, 2)
    first = np.ones(stamps.size, dtype=bool)
    first[1:] = stamps[1:] != stamps[:-1]
    label = np.bitwise_or.reduceat(label, np.flatnonzero(first))
    stamps = stamps[first]

    single = label != 3
    change = np.zeros(stamps.size, dtype=bool)
    change[1:] = single[1:] & single[:-1] & (label[1:] != label[:-1])
    pos = np.arange(stamps.size)
    run_start = np.maximum.accumulate(np.where(change, 0, pos))
    fires = stamps[~single | (change & ((pos - run_start) % 2 == 1))]
    fires = fires[: np.searchsorted(fires, last, side="right")]
    return np.concatenate([[tau0], fires])


def segmented_merge_oracle(a, b, cuts_a, cuts_b):
    """``sampling._StampUnion(a, b).fire(cuts_a, cuts_b)``, read as stamps,
    as a loop of :func:`refresh_merge_oracle` merges: ``(times, bounds)``,
    each segment's refresh times in turn, none for a segment with no tick
    in one array."""
    import numpy as np

    parts = []
    for j in range(len(cuts_a) - 1):
        seg_a, seg_b = a[cuts_a[j] : cuts_a[j + 1]], b[cuts_b[j] : cuts_b[j + 1]]
        parts.append(refresh_merge_oracle(seg_a, seg_b) if seg_a.size and seg_b.size else np.empty(0))
    return np.concatenate(parts), np.cumsum([0] + [x.size for x in parts])


def index_maps_oracle(times, query):
    """The tick rule by binary search: next-/previous-tick indices
    ``min{i: t_i >= s}`` and ``max{i: t_i <= s}`` of the nonempty increasing
    ``query`` times into each increasing time array.  Raises
    ``sampling.InterpolationError`` for the first time with no previous
    tick or the last with no next tick, array by array."""
    import numpy as np

    from hficov.sampling import InterpolationError

    nxt = np.empty((len(times), query.size), dtype=np.int64)
    prv = np.empty_like(nxt)
    for l, t in enumerate(times):
        nxt[l] = np.searchsorted(t, query, side="left")
        prv[l] = np.searchsorted(t, query, side="right") - 1
        if prv[l, 0] < 0:
            raise InterpolationError("previous", float(query[0]))
        if nxt[l, -1] >= t.size:
            raise InterpolationError("next", float(query[-1]))
    return nxt, prv


def noise_moments_oracle(data):
    """``estimators.noise_moments(data).h_hat`` with each pair's shared
    stamps and their indices found by ``np.intersect1d``."""
    import numpy as np

    p = len(data)
    H = np.zeros((p, p))
    for k, s in enumerate(data):
        d = np.diff(s.values)
        H[k, k] = float(np.dot(d, d)) / (2.0 * d.size)
    for k in range(p):
        for l in range(k + 1, p):
            stamps, ia, ib = np.intersect1d(data[k].scheme.times, data[l].scheme.times, return_indices=True)
            if stamps.size >= 3:
                da, db = np.diff(data[k].values[ia]), np.diff(data[l].values[ib])
                H[k, l] = H[l, k] = -float(np.mean(da[:-1] * db[1:]))
    return H


def ci_study_oracle(alt_corr, replicates, seed, n):
    """``sim._ci_study`` one replicate after another, as it ran before the
    replicates were stepped together: each replicate draws its factor path
    as ``simulate_paths`` did, its square-root variance stepped on Python
    floats, and then its orthogonal parts.  Returns ``(rate, extra)``."""
    import math

    import numpy as np

    from hficov.citest import ci_test
    from hficov.estimators import TickSeries
    from hficov.sampling import SamplingScheme
    from hficov.sim import _CI_VBAR_Z, _CI_VOL_ORTH

    T = 1.0
    rho1, rho2 = 0.7, 0.9
    kappa, vbar, xi, rho, v0 = 5.0, _CI_VBAR_Z, 2e-3, -0.5, _CI_VBAR_Z
    chol = np.linalg.cholesky(np.array([[1.0, alt_corr], [alt_corr, 1.0]]))
    times = np.linspace(0.0, T, n + 1)
    sch = SamplingScheme(times, T)
    steps = np.diff(times)
    sqdt = np.sqrt(steps)
    outcome = np.zeros(replicates, dtype=np.int8)  # 0 keep, 1 reject, 2 inconclusive
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(replicates)):
        rng = np.random.default_rng(ss)
        z_price = rng.standard_normal(n)
        z_vol = rho * z_price + math.sqrt(1.0 - rho**2) * rng.standard_normal(n)
        vi = v0
        v = [vi]
        for dt_i, sqdt_i, z_i in zip(steps.tolist(), sqdt.tolist(), z_vol.tolist()):
            vp = 0.0 if vi < 0.0 else vi
            vi = vi + kappa * (vbar - vp) * dt_i + xi * math.sqrt(vp) * sqdt_i * z_i
            v.append(vi)
        vols = np.sqrt(np.maximum(np.array(v[:-1]), 0.0))
        z_path = np.concatenate([[0.0], np.cumsum(vols * (z_price * sqdt))])
        base = rng.standard_normal((n, 2)) @ chol.T * math.sqrt(T / n)
        x1 = rho1 * z_path + np.concatenate([[0.0], np.cumsum(_CI_VOL_ORTH * base[:, 0])])
        x2 = rho2 * z_path + np.concatenate([[0.0], np.cumsum(_CI_VOL_ORTH * base[:, 1])])
        res = ci_test(TickSeries(sch, x1), TickSeries(sch, x2), TickSeries(sch, z_path), method="rc")
        if res.inconclusive:
            outcome[i] = 2
        elif res.p_value < 0.05:
            outcome[i] = 1
    inconclusive = int(np.sum(outcome == 2))
    rate = int(np.sum(outcome == 1)) / max(replicates - inconclusive, 1)
    return rate, {"inconclusive": inconclusive}


def draw_noise_oracle(schemes, noise, rng):
    """The general case of ``sim._draw_noise`` stamp by stamp: one normal
    row per stamp of the union of the schemes, drawn at once, and per stamp
    the Cholesky factor of the noise covariance of the components observed
    there (the noise standard deviation where one component is)."""
    import numpy as np

    p = len(schemes)
    H = noise.H
    sd = np.sqrt(np.diag(H))
    all_t = np.unique(np.concatenate([s.times for s in schemes]))
    pos = [np.searchsorted(all_t, s.times) for s in schemes]
    present = np.zeros((all_t.size, p), dtype=bool)
    for l in range(p):
        present[pos[l], l] = True
    eps = [np.zeros(len(s)) for s in schemes]
    z = rng.standard_normal((all_t.size, p))
    for ti in range(all_t.size):
        comps = np.nonzero(present[ti])[0]
        if comps.size == 1:
            l = comps[0]
            eps[l][np.searchsorted(schemes[l].times, all_t[ti])] = sd[l] * z[ti, l]
        else:
            sub = H[np.ix_(comps, comps)]
            chol = np.linalg.cholesky(sub + 1e-18 * np.eye(comps.size))
            vals = chol @ z[ti, comps]
            for v, l in zip(vals, comps):
                eps[l][np.searchsorted(schemes[l].times, all_t[ti])] = v
    return eps
