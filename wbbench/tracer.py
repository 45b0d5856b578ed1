"""A span tracer that wraps the program's public functions from outside.

`Tracer.install` replaces each listed function or method with a timing
wrapper, both where it is defined and wherever another wavebridge module bound
the same object by name (`from .dsp import lowpass`). Spans are kept in memory
with their parent and top-level ancestor; `uninstall` puts the originals back.

A span's self time is its duration minus the durations of its direct
children. Spans on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    top: int  # index of the top-level ancestor (itself when top-level)
    tag: object = None  # what the wrapper's tag function said about the call


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def wrap(self, fn, name: str, tag=None):
        """Timing wrapper; tag(args, kwargs, result) is stored on the span of a traced call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.spans[parent].top if stack else idx)
            tracer.spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if tag is not None:
                span.tag = tag(args, kwargs, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self, targets, package: str = "wavebridge") -> None:
        """targets: (owner, attribute, span name[, tag]) with owner a module or class."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for owner, attr, name, *hook in targets:
            orig = owner.__dict__[attr]
            wrapped = self.wrap(orig, name, hook[0] if hook else None)
            for holder in [owner] + [m for m in modules if m is not owner]:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()


# --------------------------------------------------------------- arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def group_self_ms(spans: list[Span], keep=lambda s: True, rename=None) -> dict[str, float]:
    """Sum of self times in ms per span name (after `rename`), over spans passing `keep`."""
    rename = rename or {}
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, selfs):
        if keep(s):
            out[rename.get(s.name, s.name)] += 1e3 * st
    return dict(out)


def group_calls(spans: list[Span], keep=lambda s: True) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if keep(s):
            out[s.name] += 1
    return dict(out)


def coverage(spans: list[Span], t0: float, t1: float) -> float:
    """Share of [t0, t1] covered by top-level spans."""
    return sum(s.end - s.start for s in spans if s.parent < 0 and s.start >= t0 and s.end <= t1) / (t1 - t0)
