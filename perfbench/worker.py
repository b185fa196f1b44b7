"""One fresh interpreter per benchmark step; ``run.py`` starts it.

    worker.py setup   WORKLOAD SEED CSV                import, generate, write the CSV
    worker.py measure WORKLOAD SEED SECONDS TRACE CSV  timed passes; JSON on the last line
    worker.py record  WORKLOAD SEED...                 store reference outputs in refs/

``hficov`` is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hficov  # noqa: E402  (the package imports every layer module)

if Path(hficov.__file__).resolve().parent != ROOT / "src" / "hficov":
    sys.exit(f"hficov imported from {hficov.__file__}, not from {ROOT / 'src'}")

import check  # noqa: E402
import speed  # noqa: E402
from gen import generate, write_csv  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import STEPS, WORKLOADS, flat_outputs, run_pass  # noqa: E402


class Tally:
    """Checks each pass as it ends and keeps only its timings.

    The first pass's load is checked at once and its other outputs are kept
    for :meth:`finish`, which checks them against the oracles and the
    reference after the measurement, so that the checks' own memory does not
    count towards the peak RSS.  Every later pass must reproduce the first
    one's outputs bit for bit; its outputs are dropped once compared.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.wl = WORKLOADS[workload]
        self.ticks = None
        self.first_out: dict | None = None
        self.first_flat: dict = {}
        self.pass_fails: list[set] = []  # failed (output, row) per pass
        self.reference = "unchecked"
        self.attempted = self.raised = 0
        self.messages: set = set()
        self.total_s: list[float] = []
        self.pass_s = {s: [] for s in STEPS}
        self.call_s = {s: [] for s in STEPS}
        self.op_s: dict[str, list[float]] = {}

    def add(self, ps) -> None:
        self.attempted += ps.attempted
        flat = flat_outputs(ps)
        if self.first_out is None:
            self.ticks = generate(self.wl.spec, self.seed) if self.wl.spec is not None else None
            fails = check.load_failures(ps.outputs, self.ticks)
            self.first_out = {k: v for k, v in ps.outputs.items() if k != "load"}
            self.first_flat = flat
        else:
            fails = check.determinism_failures(self.first_flat, flat)
        self.pass_fails.append({(k, r) for k, r, _ in fails})
        self.messages.update(m for _, _, m in fails)
        ps.outputs.clear()
        self.total_s.append(ps.total_s)
        for s in STEPS:
            self.pass_s[s].append(sum(dt for step, _, dt in ps.timed if step == s))
        for step, op, dt in ps.timed:
            self.call_s[step].append(dt)
            self.op_s.setdefault(op, []).append(dt)

    def fail(self, exc: Exception) -> None:
        """A pass raised: its calls so far were attempted, the last one failed."""
        traceback.print_exc()
        partial = getattr(exc, "bench_pass", None)
        self.attempted += partial.attempted if partial else 1
        self.raised += 1
        self.messages.add(f"{type(exc).__name__}: {exc}")

    def finish(self) -> dict:
        """Check the first pass; a failure there counts in every pass."""
        first_failed: set = set()
        if self.first_out is not None:
            fails = check.oracle_failures(self.first_out, self.ticks)
            self.reference, ref_fails = check.reference_failures(self.workload, self.seed, self.first_flat)
            fails += ref_fails
            first_failed = {(k, r) for k, r, _ in fails}
            self.messages.update(m for _, _, m in fails)
        return {
            "attempted": self.attempted,
            "failed": self.raised + sum(len(first_failed | f) for f in self.pass_fails),
            "reference": self.reference,
            "messages": sorted(self.messages)[:20],
            "total_s": self.total_s,
            "pass_s": {s: v for s, v in self.pass_s.items() if self.call_s[s]},
            "call_s": {s: v for s, v in self.call_s.items() if v},
            "op_s": self.op_s,
            "inputs": self.ticks.facts() if self.ticks is not None else {},
        }


def _repeat(seconds: float, fn, tally: Tally) -> bool:
    """Run ``fn()`` until ``seconds`` have passed and it ran at least twice.

    Returns False if it raised; a failed operation is counted, not fatal.
    """
    t_end = time.perf_counter() + seconds
    runs = 0
    while runs < 2 or time.perf_counter() < t_end:
        try:
            fn()
        except Exception as exc:
            tally.fail(exc)
            return False
        runs += 1
    return True


def _measure(name: str, seed: int, seconds: float, csv: str) -> dict:
    tally = Tally(name, seed)
    probed = speed.Probed()
    ref_s: list[dict] = []  # reference seconds per step, per pass

    def one():
        ps = run_pass(hficov, WORKLOADS[name], csv, seed, hook=probed)
        ref_s.append(probed.take())
        tally.add(ps)

    _repeat(seconds, one, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {**tally.finish(), "peak_rss_mb": rss_mb, "ref_s": ref_s}


class _Alloc:
    """Per-step ``tracemalloc`` peak above the memory held when the step began."""

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}

    def __call__(self, step):
        self.step = step
        return self

    def __enter__(self):
        self.base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def __exit__(self, *exc):
        peak = tracemalloc.get_traced_memory()[1] - self.base
        self.peaks[self.step] = max(self.peaks.get(self.step, 0), peak)
        return False


def _measure_traced(name: str, seed: int, seconds: float, csv: str) -> dict:
    """Alternate untraced and traced passes, then one pass under tracemalloc.

    Every pass goes through the same :class:`Tally`, so traced outputs must
    equal the untraced ones bit for bit.
    """
    wl = WORKLOADS[name]
    tally = Tally(name, seed)
    untraced, traced, sums, left = [], [], [], []

    def pair():
        ps = run_pass(hficov, wl, csv, seed)
        untraced.append(ps.total_s)
        tally.add(ps)
        tracer = Tracer()
        tracer.install()
        try:
            ps = run_pass(hficov, wl, csv, seed)
        finally:
            left.extend(tracer.restore())
        traced.append(ps.total_s)
        sums.append(tracer.summary())
        tally.add(ps)

    alloc = _Alloc()
    if _repeat(seconds, pair, tally):
        tracemalloc.start()
        try:
            tally.add(run_pass(hficov, wl, csv, seed, hook=alloc))
        finally:
            tracemalloc.stop()
    self_check = []
    if left:
        self_check.append(f"not restored: {left[:5]}")
    if any(s["calls"] != sums[0]["calls"] or s["counters"] != sums[0]["counters"] for s in sums[1:]):
        self_check.append("call counts differ between traced passes")
    res = tally.finish()
    first = sums[0] if sums else {"layer_self_s": {}, "calls": {}, "counters": {}, "errors": {}, "spans": 0}
    return {
        **res,
        "messages": res["messages"] + self_check,
        "tracer_ok": bool(sums) and not self_check,
        "untraced_total_s": untraced,
        "traced_total_s": traced,
        "layer_self_s": {k: statistics.median(s["layer_self_s"][k] for s in sums) for k in first["layer_self_s"]},
        "function_self_s": {
            k: statistics.median(s["function_self_s"].get(k, 0.0) for s in sums)
            for k in sorted({k for s in sums for k in s["function_self_s"]})
        },
        "calls": first["calls"],
        "counters": first["counters"],
        "errors": first["errors"],
        "spans": first["spans"],
        "peak_alloc_mb": {k: v / 2**20 for k, v in alloc.peaks.items()},
    }


def _record(name: str, seeds: list[int]) -> None:
    wl = WORKLOADS[name]
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    csv = str(work / f"{name}.csv")
    for seed in seeds:
        ticks = None
        if wl.spec is not None:
            ticks = generate(wl.spec, seed)
            write_csv(csv, ticks)
        ps = run_pass(hficov, wl, csv, seed)
        fails = check.load_failures(ps.outputs, ticks) + check.oracle_failures(ps.outputs, ticks)
        if fails:
            sys.exit(f"{name} seed {seed}: not recording outputs that fail the oracles: {fails[:3]}")
        check.record_reference(name, seed, flat_outputs(ps))
        print(f"recorded {name} seed {seed}", file=sys.stderr)


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    if name not in WORKLOADS:
        sys.exit(f"unknown workload {name!r}")
    if mode == "setup":
        spec = WORKLOADS[name].spec
        if spec is not None:
            write_csv(argv[3], generate(spec, int(argv[2])))
    elif mode == "measure":
        seed, seconds, trace, csv = int(argv[2]), float(argv[3]), argv[4] == "1", argv[5]
        res = (_measure_traced if trace else _measure)(name, seed, seconds, csv)
        print(json.dumps(res))
    elif mode == "record":
        _record(name, [int(s) for s in argv[2:]])
    else:
        sys.exit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
