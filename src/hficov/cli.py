"""Command-line interface: simulate | estimate | acov | citest | mc-validate.

Every command writes a schema-stable JSON report (``--out``, default
stdout) and exits 0 on success, 2 on usage errors, 1 on runtime failures.
``COVEST_THREADS`` caps the worker count used by replicate loops, not BLAS
threads: OpenBLAS splits an ``np.dot`` of more than 10 000 values over
threads, so set ``OPENBLAS_NUM_THREADS=1`` when timing or sharing the CPUs.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .avar import GmsAcovConfig, acov_matrix_hat
from .citest import ci_test
from .estimators import EstimatorConfig, estimate_matrix
from .sim import ItoModelConfig, NoiseConfig, SamplingConfig, SCENARIOS, mc_validate, observe, sample_scheme, simulate_paths
from .tickio import RunReport, TickFileError, load_ticks, write_ticks

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hficov", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate tick data and write a CSV")
    sim.add_argument("--assets", type=int, default=2)
    sim.add_argument("--n", type=int, default=1000, help="observations per asset")
    sim.add_argument("--sampling", choices=["equidistant", "poisson"], default="equidistant")
    sim.add_argument("--noise", type=float, default=0.0, help="noise standard deviation")
    sim.add_argument("--vol", type=float, default=0.015, help="constant volatility per asset")
    sim.add_argument("--corr", type=float, default=0.5, help="cross correlation")
    sim.add_argument("--horizon", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--ticks-out", required=True)
    sim.add_argument("--out", default=None)

    def estimator_flags(q):
        q.add_argument("--method", choices=["rc", "ms", "kernel", "hy", "gms"], default="gms")
        q.add_argument("--kernel", default="cubic", help="cubic | parzen | th<r>")
        q.add_argument("--c", type=float, default=1.0)
        q.add_argument(
            "--adjusted",
            choices=["true", "false"],
            default="true",
            help="end-effect correction of the point estimates only; "
            "the acov histogram estimator always adjusts its bin brackets",
        )
        q.add_argument("--out", default=None)

    est = sub.add_parser("estimate", help="estimate the integrated covariance matrix")
    est.add_argument("--input", required=True)
    estimator_flags(est)

    acv = sub.add_parser("acov", help="estimate + asymptotic covariance matrix")
    acv.add_argument("--input", required=True)
    acv.add_argument("--bins", type=int, default=None)
    estimator_flags(acv)

    cit = sub.add_parser("citest", help="conditional-independence test for a triple")
    cit.add_argument("--input", required=True)
    cit.add_argument("--x1", required=True)
    cit.add_argument("--x2", required=True)
    cit.add_argument("--z", required=True)
    estimator_flags(cit)

    mcv = sub.add_parser("mc-validate", help="run a Monte Carlo validation scenario")
    mcv.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    mcv.add_argument("--replicates", type=int, default=None)
    mcv.add_argument("--seed", type=int, default=20260808)
    mcv.add_argument("--out", default=None)
    return p


def _config_from(args) -> EstimatorConfig:
    return EstimatorConfig(kernel=args.kernel, c=args.c, adjusted=args.adjusted == "true")


def _emit(report: RunReport, out: str | None) -> None:
    if out:
        report.write(out)
    else:
        sys.stdout.write(report.to_json() + "\n")


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    p = args.assets
    corr = np.full((p, p), args.corr)
    np.fill_diagonal(corr, 1.0)
    sigma = np.linalg.cholesky(args.vol**2 * corr)
    model = ItoModelConfig(p=p, T=args.horizon, sigma_const=sigma)
    rng = np.random.default_rng(args.seed)
    schemes = [sample_scheme(SamplingConfig(args.sampling, args.n), args.horizon, rng) for _ in range(p)]
    paths = simulate_paths(model, rng, np.linspace(0.0, args.horizon, max(10 * args.n, 1000) + 1))
    noise = NoiseConfig(args.noise**2 * np.eye(p)) if args.noise > 0 else None
    data = observe(paths, schemes, noise, rng)
    ids = [f"A{i}" for i in range(p)]
    write_ticks(args.ticks_out, ids, data)
    rep = RunReport(
        command="simulate",
        config=vars(args).copy(),
        asset_ids=ids,
        diagnostics={"true_integrated_cov": paths.integrated_cov, "observations": [len(s) for s in data]},
        seeds={"seed": args.seed},
        timings={"total_s": round(time.perf_counter() - t0, 3)},
    )
    _emit(rep, args.out)
    return 0


def _estimates_section(est) -> dict:
    return {
        "matrix": est.matrix,
        "svec": est.svec,
        "method": est.method,
        "per_pair": {f"{k},{l}": v for (k, l), v in est.per_pair.items()},
    }


def _cmd_estimate(args, with_acov: bool) -> int:
    t0 = time.perf_counter()
    ids, series = load_ticks(args.input)
    load_s = round(time.perf_counter() - t0, 3)
    cfg = _config_from(args)
    est = estimate_matrix(series, args.method, cfg)
    rep = RunReport(
        command="acov" if with_acov else "estimate",
        config=vars(args).copy(),
        asset_ids=ids,
        estimates=_estimates_section(est),
        diagnostics={"min_eigenvalue": est.min_eigenvalue},
    )
    if with_acov:
        am = acov_matrix_hat(series, args.method, GmsAcovConfig(kernel=args.kernel, c=args.c, bins=args.bins))
        rep.acov = {"entries": am.entries, "rate": am.rate, "n_ref": am.n_ref}
        # a negative (or NaN) variance estimate has no standard error: null, and counted
        rep.standard_errors = [float(np.sqrt(v)) if v >= 0.0 else None for v in np.diag(am.raw())]
        rep.diagnostics["negative_variance_entries"] = rep.standard_errors.count(None)
    rep.timings = {"load_s": load_s, "total_s": round(time.perf_counter() - t0, 3)}
    _emit(rep, args.out)
    return 0


def _cmd_citest(args) -> int:
    t0 = time.perf_counter()
    ids, series = load_ticks(args.input)
    load_s = round(time.perf_counter() - t0, 3)
    table = dict(zip(ids, series))
    for name in (args.x1, args.x2, args.z):
        if name not in table:
            raise ValueError(f"asset {name!r} not in input (have {ids})")
    cfg = _config_from(args)
    try:
        res = ci_test(table[args.x1], table[args.x2], table[args.z], method=args.method, config=cfg)
    except ValueError as exc:
        # ci_test names its arguments; the user knows them as assets
        raise ValueError(f"citest x1={args.x1!r} x2={args.x2!r} z={args.z!r}: {exc}") from exc
    rep = RunReport(
        command="citest",
        config=vars(args).copy(),
        asset_ids=ids,
        test={
            "statistic": res.statistic,
            "avar_hat": res.avar_hat,
            "z": res.z,
            "p_value": res.p_value,
            "inconclusive": res.inconclusive,
            "brackets": list(res.brackets),
        },
        timings={"load_s": load_s, "total_s": round(time.perf_counter() - t0, 3)},
    )
    _emit(rep, args.out)
    return 0


def _cmd_mc(args) -> int:
    kwargs = {}
    if args.replicates is not None:
        kwargs["replicates"] = args.replicates
    report = mc_validate(args.scenario, seed=args.seed, **kwargs)
    # wall-clock timing is stripped so a rerun reproduces the report file
    # byte for byte; it is echoed on stderr instead
    elapsed = report.pop("elapsed_s", None)
    if elapsed is not None:
        sys.stderr.write(f"mc-validate {args.scenario}: {elapsed}s\n")
    rep = RunReport(
        command="mc-validate",
        config={"scenario": args.scenario, "replicates": args.replicates, "seed": args.seed},
        mc=report,
        seeds={"seed": args.seed},
    )
    _emit(rep, args.out)
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _cmd_estimate(args, with_acov=False)
        if args.command == "acov":
            return _cmd_estimate(args, with_acov=True)
        if args.command == "citest":
            return _cmd_citest(args)
        if args.command == "mc-validate":
            return _cmd_mc(args)
        parser.error(f"unknown command {args.command!r}")
    except (TickFileError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
