"""Repeat ``run.py`` over seeds and report each metric's median and spread.

    python3 perfbench/sweep.py --workloads gms_async,mc --seeds 1-10 --seconds 12 [--trace 0] [--out FILE]

Runs one after another, never in parallel.  For every workload and metric
it prints the median of the runs and the quartile spread ``(Q3 - Q1) /
median`` with the quartiles from ``statistics.quantiles(values, n=4)``.
``--out`` keeps every run's result and detail line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args()
    runs = []
    for wl in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{wl} seed {seed}: exit code {proc.returncode}")
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            runs.append({"workload": wl, "seed": seed, "result": result, "detail": detail})
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  f"reference={detail['reference']} {vals}", flush=True)
    spread = {}
    for wl in args.workloads.split(","):
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == wl]
        for name in mine[0]:
            vals = [m[name]["value"] for m in mine]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread[f"{wl}/{name}"] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
            print(f"{wl:10s} {name:40s} median {med:.6g}  spread {spread[f'{wl}/{name}']['spread']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "spread": spread}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
