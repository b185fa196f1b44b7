"""Spans around the public functions of each ``hficov`` module, from outside.

:class:`Tracer` wraps every public function (no leading underscore) in
the module that defines it and in every loaded ``hficov`` module that
imported it by name, so calls between modules are seen too.  Each call
records a span ``(function, start, end, parent)`` in memory; a layer's
self time is its spans' durations minus the time of their child spans.
Private helpers, class methods and functions reached through containers
built at import time (such as ``sim.SCENARIOS``) are not wrapped; their
time counts towards the wrapped caller.  The span stack is not
thread-local, so tracing assumes the serial replicate loop
(``COVEST_THREADS=1``).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("tickio", "sampling", "kernels", "estimators", "timefuncs", "avar", "citest", "sim")


def _ticks_in(args, result) -> int:
    # pairwise_refresh(scheme_a, scheme_b) / global_refresh(grid_ab, grid_cd)
    return sum(len(x) for x in args[:2])


# extra counters: (layer, function) -> (counter name, f(args, result))
_COUNTERS = {
    ("sampling", "pairwise_refresh"): ("sampling.refresh_ticks_in", _ticks_in),
    ("sampling", "global_refresh"): ("sampling.refresh_ticks_in", _ticks_in),
    ("tickio", "load_ticks"): ("tickio.rows", lambda args, result: sum(len(s) for s in result[1])),
}


def _hficov_modules() -> dict[str, types.ModuleType]:
    return {n: m for n, m in list(sys.modules.items()) if n == "hficov" or n.startswith("hficov.")}


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [function id, start, end, parent index]
        self.errors: Counter = Counter()  # layer -> exceptions raised out of it
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.functions: list[tuple[str, str]] = []  # id -> (layer, name)

    def install(self) -> None:
        mods = _hficov_modules()
        for layer in LAYERS:
            mod = mods[f"hficov.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(len(self.functions), layer, name, obj)
                self.functions.append((layer, name))
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            self._patched.append((m, attr, obj))
                            setattr(m, attr, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; return the names still not restored."""
        for m, attr, obj in reversed(self._patched):
            setattr(m, attr, obj)
        left = [f"{m.__name__}.{attr}" for m, attr, obj in self._patched if getattr(m, attr) is not obj]
        for name, m in _hficov_modules().items():
            left += [f"{name}.{a}" for a, v in vars(m).items() if getattr(v, "_bench_wrapper", False)]
        self._patched.clear()
        return left

    def _wrap(self, fid: int, layer: str, name: str, fn):
        counter = _COUNTERS.get((layer, name))
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([fid, perf(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                spans[idx][2] = perf()
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        wrapper._bench_wrapper = True
        return wrapper

    def summary(self) -> dict:
        """Self time per layer and per function, and call counts."""
        child = defaultdict(float)
        for fid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layer_self = dict.fromkeys(LAYERS, 0.0)
        fn_self: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (fid, t0, t1, parent) in enumerate(self.spans):
            layer, name = self.functions[fid]
            s = (t1 - t0) - child[i]
            layer_self[layer] += s
            fn_self[f"{layer}.{name}"] += s
            calls[f"{layer}.{name}"] += 1
        return {
            "layer_self_s": layer_self,
            "function_self_s": dict(fn_self),
            "calls": dict(calls),
            "errors": {layer: self.errors[layer] for layer in LAYERS},
            "counters": dict(self.counters),
            "spans": len(self.spans),
        }
