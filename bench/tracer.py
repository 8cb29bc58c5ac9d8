"""Layer tracing from outside the program.

``Tracer`` replaces the public functions of the traced modules with
wrappers that record one span per call (name, start, end, enclosing span)
and puts every original back when it is closed. Spans stay in memory and
are reduced per job, so each job's spans share the job as identifier.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

from checks import self_times


class Tracer:
    """Patches module attributes on entry and restores them on exit.

    ``modules`` maps a layer name to its module object; ``only`` optionally
    narrows the functions wrapped in a layer to the listed names.
    """

    def __init__(self, modules: dict, only: dict | None = None):
        self.modules = modules
        self.only = only or {}
        self.originals: dict[tuple[str, str], object] = {}
        self.spans: list = []
        self._stack: list[int] = []

    def __enter__(self) -> "Tracer":
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or (layer in self.only and name not in self.only[layer])):
                    continue
                self.originals[(layer, name)] = obj
                setattr(module, name, self._wrap(f"{layer}.{name}", obj))
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back and report on stderr that it did."""
        for (layer, name), original in self.originals.items():
            setattr(self.modules[layer], name, original)
        wrong = [f"{layer}.{name}" for (layer, name), original in self.originals.items()
                 if getattr(self.modules[layer], name) is not original]
        if wrong:
            raise RuntimeError(f"tracer failed to restore {', '.join(wrong)}")
        print(f"tracer: restored {len(self.originals)}/{len(self.originals)} "
              "patched functions", file=sys.stderr)

    def _wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (qualname, start, end, parent)

        return wrapper

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class JobProfile:
    """Per-function calls, self time and call latencies of one traced job."""

    def __init__(self, spans, job_ns: int):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.durations_ns: dict[str, list[int]] = {}
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.durations_ns.setdefault(name, []).append(end - start)
        top = sum(end - start for _, start, end, parent in spans if parent < 0)
        self.outside_ns = job_ns - top

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.startswith(layer + "."))


def merge_profiles(profiles: list[JobProfile]) -> dict:
    """Per-job medians of self times, per-job call counts and pooled latencies.

    Returns ``calls`` (name -> list of per-job counts), ``self_ms`` (name ->
    median per-job self time), ``layer_self_ms``, ``outside_ms`` and
    ``p50_us`` (name -> median call latency over all traced calls).
    """
    names = sorted({n for p in profiles for n in p.calls})
    layers = sorted({n.split(".")[0] for n in names})
    return {
        "calls": {n: [p.calls.get(n, 0) for p in profiles] for n in names},
        "self_ms": {n: statistics.median(p.self_ns.get(n, 0) for p in profiles) / 1e6
                    for n in names},
        "layer_self_ms": {layer: statistics.median(p.layer_self_ns(layer) for p in profiles) / 1e6
                          for layer in layers},
        "outside_ms": statistics.median(p.outside_ns for p in profiles) / 1e6,
        "p50_us": {n: statistics.median(d for p in profiles for d in p.durations_ns.get(n, ()))
                   / 1e3 for n in names},
    }
