"""In-memory span tracing around dqps's module boundaries.

A traced pass replaces chosen module attributes (for example
``dqps.optimize.key_rate``, the name ``optimize`` uses to reach the
``keyrate`` layer) with wrappers that record one span per call: name,
start, end, parent span and thread.  Spans stay in memory and are written
out once the run ends.  ``Tracer.installed`` puts the originals back on
exit, so passes outside it execute unmodified code.

Self time of a span is its duration minus the part of its interval that
its child spans cover; overlapping children (two pool threads working for
one ``run_simulation`` call) are counted once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(eq=False, slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    counts: dict | None = None


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap and the span name its calls record.

    ``observe(args, kwargs, result)`` may return exact work counts for the
    call, stored on the span, e.g. ``{"protocol.blocks": n}``.
    """

    module: str
    attr: str
    span: str
    observe: Callable | None = None


def _blocks(args, kwargs, result):
    return {"protocol.blocks": args[0].n_blocks}


def _elements(args, kwargs, result):
    return {"protocol.detection_means.elements": int(result.size)}


def _zero_rate(args, kwargs, result):
    return {"optimize.zero_rate_points": int(result.mu_opt is None)}


def _trains(layer):
    def observe(args, kwargs, result):
        rows = 0 if result.events is None else len(result.events)
        return {f"calibration.{layer}.trains": result.n_test,
                "calibration.event_rows": rows}
    return observe


# Every public name one dqps module calls in another (plus the in-module
# calls that cross a layer: sweep -> optimize_mu, _simulate_batch ->
# detection_means), keyed by the namespace the caller looks it up in.
TARGETS = (
    Target("dqps.cli", "main", "cli.main"),
    Target("dqps.cli", "sweep", "optimize.sweep"),
    Target("dqps.cli", "optimize_mu", "optimize.optimize_mu", _zero_rate),
    Target("dqps.cli", "channel_q", "keyrate.channel_q"),
    Target("dqps.cli", "key_rate", "keyrate.key_rate"),
    Target("dqps.cli", "run_simulation", "protocol.run_simulation", _blocks),
    Target("dqps.cli", "estimate_key_rate", "protocol.estimate_key_rate"),
    Target("dqps.cli", "rtag_coherent", "tagging.rtag_coherent"),
    Target("dqps.cli", "rtag_bruteforce", "tagging.rtag_bruteforce"),
    Target("dqps.cli", "rtag_general", "tagging.rtag_general"),
    Target("dqps.cli", "simulate_two_detector",
           "calibration.simulate_two_detector", _trains("simulate_two_detector")),
    Target("dqps.cli", "simulate_three_detector",
           "calibration.simulate_three_detector", _trains("simulate_three_detector")),
    Target("dqps.optimize", "optimize_mu", "optimize.optimize_mu", _zero_rate),
    Target("dqps.optimize", "key_rate", "keyrate.key_rate"),
    Target("dqps.optimize", "channel_q", "keyrate.channel_q"),
    Target("dqps.optimize", "rtag_coherent", "tagging.rtag_coherent"),
    Target("dqps.keyrate", "rtag_coherent", "tagging.rtag_coherent"),
    Target("dqps.protocol", "detection_means", "protocol.detection_means", _elements),
    Target("dqps.protocol", "key_rate", "keyrate.key_rate"),
    Target("dqps.protocol", "rtag_coherent", "tagging.rtag_coherent"),
    Target("dqps.calibration", "rtag_coherent", "tagging.rtag_coherent"),
    Target("dqps.calibration", "rtag_general", "tagging.rtag_general"),
)


class Tracer:
    """Collects spans from wrapped calls.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with no open span (a pool worker) takes as parent the innermost
    open span of the thread that created the tracer, which is the call
    that owns the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span = Span(target.span, 0.0, parent=parent, thread=threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if target.observe is not None:
                span.counts = target.observe(args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for t in TARGETS:
                module = importlib.import_module(t.module)
                fn = getattr(module, t.attr)
                originals.append((module, t.attr, fn))
                setattr(module, t.attr, self.wrap(fn, t))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def dump(self, fh, tag) -> None:
        """Write spans as JSON lines: tag, id, name, start and end in seconds
        from the first span, parent id, thread."""
        ordered = sorted(self.spans, key=lambda s: s.start)
        ids = {id(s): i for i, s in enumerate(ordered)}
        t0 = ordered[0].start if ordered else 0.0
        for i, s in enumerate(ordered):
            parent = ids.get(id(s.parent)) if s.parent is not None else None
            fh.write(json.dumps(
                [tag, i, s.name, round(s.start - t0, 9), round(s.end - t0, 9),
                 parent, s.thread]
            ) + "\n")


def installed_wrappers() -> list[str]:
    """Targets whose module attribute is currently a tracing wrapper."""
    found = []
    for t in TARGETS:
        fn = getattr(importlib.import_module(t.module), t.attr)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            found.append(f"{t.module}.{t.attr}")
    return found


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by id(span)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {
        id(s): (s.end - s.start) - covered(children.get(id(s), ()), s.start, s.end)
        for s in spans
    }


def summarize(spans) -> dict:
    """Per span name: calls, inclusive durations, summed self time; plus counts."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "durations": [], "self_s": 0.0})
    counts = defaultdict(int)
    for s in spans:
        entry = by_name[s.name]
        entry["calls"] += 1
        entry["durations"].append(s.end - s.start)
        entry["self_s"] += selfs[id(s)]
        for key, value in (s.counts or {}).items():
            counts[key] += value
    rate_evals = sum(
        1 for s in spans
        if s.name == "keyrate.channel_q"
        and s.parent is not None and s.parent.name == "optimize.optimize_mu"
    )
    counts["optimize.rate_evals"] = rate_evals
    return {"by_name": dict(by_name), "counts": dict(counts)}

