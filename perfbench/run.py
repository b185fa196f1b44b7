"""hficov benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``hficov`` is imported from its ``src/``.
Set-up starts a fresh interpreter several times; each imports ``hficov``,
generates the workload's seeded ticks with the benchmark's own numpy code
(``gen.py``) and writes the tick CSV.  Then one fresh interpreter repeats
the workload's pass (``workloads.py``) for ``S`` seconds, at least twice,
and checks every output (``check.py``).  Set-up and every step of a pass
are bracketed by a CPU probe and their times rescaled to a reference
machine speed (``speed.py``); raw wall times are reported alongside.
With ``--trace 1`` it alternates untraced and traced passes
(``tracer.py``) and ends with one pass under ``tracemalloc``; that run
reports the per-layer metrics.

Standard output: a detail line (``{"detail": ...}``: step timings as
median and the highest percentile with at least ten samples beyond it,
sample counts, error rate, reference status, input sizes, seed, commit and
machine facts), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when the run completed, whether or not the outputs were correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
DEADLINE_S = 175  # the whole run, set-up included, must end within 180 s

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from workloads import MC_REPLICATES, MC_SCENARIOS, STEPS, WORKLOADS  # noqa: E402

# one thread everywhere: the MC replicate loop, BLAS and OpenMP
THREAD_ENV = {
    "COVEST_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {"total_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "sampling.self_s": "s",
    "sampling.pairwise_refresh.calls": "count",
    "sampling.global_refresh.calls": "count",
    "sampling.refresh_ticks_in": "count",
    "sampling.errors": "count",
    "timefuncs.self_s": "s",
    "timefuncs.sync_overlap.self_s": "s",
    "timefuncs.sync_overlap.calls": "count",
    "timefuncs.weighted_lasa_function.calls": "count",
    "timefuncs.time_covariations.self_s": "s",
    "kernels.self_s": "s",
    "kernels.weights_from_kernel.calls": "count",
    "kernels.cubic_weights.calls": "count",
    "estimators.self_s": "s",
    "estimators.generalized_multiscale.calls": "count",
    "estimators.noise_moments.calls": "count",
    "avar.self_s": "s",
    "avar.acov_gms_hat.calls": "count",
    "avar.acov_rc_hat.calls": "count",
    "citest.self_s": "s",
    "citest.ci_test.calls": "count",
    "sim.self_s": "s",
    "sim.simulate_paths.self_s": "s",
    "sim.observe.self_s": "s",
    "sim.sample_scheme.calls": "count",
    "tickio.self_s": "s",
    "tickio.load_ticks.self_s": "s",
    "tickio.rows": "count",
    **{f"{s}.peak_alloc_mb": "MB" for s in STEPS},
    "trace_overhead_s": "s",
}


def summary(xs: list[float]) -> dict:
    """Median, and the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    for q in (99.9, 99.0, 90.0):
        if len(xs) * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(xs, n=1000, method="inclusive")
            out[f"p{q:g}"] = cuts[int(round(q * 10)) - 1]
            break
    return out


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": THREAD_ENV,
    }


def code_identity() -> dict:
    """Commit when the checkout is a git repository, and always a digest of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()}


def _worker(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a worker; ``subprocess.run`` kills and reaps it if it overruns."""
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hficov" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hficov sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2

    env = {**os.environ, **THREAD_ENV}
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    csv = str(work / f"{args.workload}.csv")
    try:
        setup_wall, setup_ref = [], []
        probed = speed.Probed()
        for _ in range(SETUP_REPS):
            with probed("setup"):
                t0 = time.perf_counter()
                proc = _worker(["setup", args.workload, str(args.seed), csv], env, deadline)
                setup_wall.append(time.perf_counter() - t0)
            setup_ref.append(probed.take()["setup"])
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.stderr.write(f"error: set-up failed with exit code {proc.returncode}\n")
                return 1
        proc = _worker(["measure", args.workload, str(args.seed), str(args.seconds), str(args.trace), csv], env, deadline)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: run exceeded {DEADLINE_S} s\n")
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(f"error: measured run failed with exit code {proc.returncode}\n")
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    wl = WORKLOADS[args.workload]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {"spec": wl.spec.__dict__ if wl.spec else {"scenarios": MC_SCENARIOS, "replicates": MC_REPLICATES}, **res["inputs"]},
        "setup_wall_s": summary(setup_wall),
        "setup_ref_s": summary(setup_ref),
        "error_rate": res["failed"] / max(res["attempted"], 1),
        "reference": res["reference"],
        "messages": res["messages"],
        **code_identity(),
        "machine": machine_facts(),
    }
    if args.trace:
        metrics = trace_metrics(res)
        detail["tracer_ok"] = res["tracer_ok"]
        detail["untraced_total_wall_s"] = summary(res["untraced_total_s"])
        detail["traced_total_wall_s"] = summary(res["traced_total_s"])
        detail["spans_per_pass"] = res["spans"]
        total = sum(res["layer_self_s"].values())
        detail["layer_self_share"] = {k: v / total for k, v in res["layer_self_s"].items()} if total else {}
        correct = res["failed"] == 0 and res["tracer_ok"]
    else:
        ref_total = [sum(r.values()) for r in res["ref_s"]]
        values = {"total_ref_s": statistics.median(ref_total), "setup_s": statistics.median(setup_ref), "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        detail["total_wall_s"] = summary(res["total_s"])
        detail["total_ref_s"] = summary(ref_total)
        detail["steps"] = {
            f"{s}_s": {
                "wall_per_pass": summary(res["pass_s"][s]),
                "ref_per_pass": summary([r.get(s, 0.0) for r in res["ref_s"]]),
                "wall_per_call": summary(res["call_s"][s]),
            }
            for s in STEPS
            if res["call_s"].get(s)
        }
        detail["op_wall_median_s"] = {op: statistics.median(v) for op, v in res["op_s"].items()}
        if res["call_s"].get("mc"):
            reps = len(MC_SCENARIOS) * MC_REPLICATES
            detail["steps"]["mc_replicates_per_s"] = {
                "wall": summary([reps / t for t in res["pass_s"]["mc"]]),
                "ref": summary([reps / r["mc"] for r in res["ref_s"]]),
            }
        detail["peak_rss_mb"] = res["peak_rss_mb"]
        correct = res["failed"] == 0
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


def trace_metrics(res: dict) -> dict:
    layer = res["layer_self_s"]
    fn = res["function_self_s"]
    calls, counters = res["calls"], res["counters"]
    values = {}
    for name in PER_LAYER:
        parts = name.split(".")
        if name == "trace_overhead_s":
            v = statistics.median(res["traced_total_s"]) - statistics.median(res["untraced_total_s"])
        elif name.endswith(".peak_alloc_mb"):
            v = res["peak_alloc_mb"].get(parts[0], 0.0)
        elif name.endswith(".calls"):
            v = calls.get(".".join(parts[:2]), 0)
        elif name.endswith(".errors"):
            v = res["errors"].get(parts[0], 0)
        elif len(parts) == 2 and parts[1] == "self_s":
            v = layer[parts[0]]
        elif name.endswith(".self_s"):
            v = fn.get(".".join(parts[:2]), 0.0)
        else:
            v = counters.get(name, 0)
        values[name] = {"value": v, "unit": PER_LAYER[name]}
    return values


if __name__ == "__main__":
    sys.exit(main())
