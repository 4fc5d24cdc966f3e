"""Spans recorded around calls into a program, from outside the program.

A span records its name, start, end and parent span. Wrappers are set on the
attribute a caller looks a function up by, and put back afterwards, so code
outside a traced region runs unchanged. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at the root
    counters: dict = field(default_factory=dict)


class Recorder:
    """Keeps the spans of one traced region in memory, in start order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self._clock(), 0.0, parent))
        self._open.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self._clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict = field(default_factory=dict)


def totals_by_name(spans: list[Span]) -> dict[str, Totals]:
    """Call count, self time, inclusive time and summed counters per span name."""
    out: dict[str, Totals] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, Totals())
        entry.calls += 1
        entry.self_s += own
        # A recursive name would count its nested time twice; hmic has none.
        entry.total_s += span.end - span.start
        for key, value in span.counters.items():
            entry.counters[key] = entry.counters.get(key, 0) + value
    return out


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` (a module or class attribute) in a span called ``name``.

    ``detail(args, kwargs, result)`` may return ``(suffix, counters)``: the
    suffix is appended to the span name (``None`` for none) and the counters
    are stored on the span.
    """

    owner: object
    attr: str
    name: str
    detail: Callable | None = None


def _wrap(recorder: Recorder, hook: Hook, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = recorder.begin(hook.name)
        try:
            result = original(*args, **kwargs)
        finally:
            span = recorder.end(index)
        if hook.detail is not None:
            suffix, counters = hook.detail(args, kwargs, result)
            if suffix:
                span.name = f"{hook.name}.{suffix}"
            if counters:
                span.counters = counters
        return result

    return traced


@contextmanager
def installed(recorder: Recorder, hooks: list[Hook]):
    """Wrap every hooked attribute for the duration of the block."""
    originals = []
    try:
        for hook in hooks:
            original = vars(hook.owner)[hook.attr]
            originals.append((hook, original))
            setattr(hook.owner, hook.attr, _wrap(recorder, hook, original))
        yield recorder
    finally:
        for hook, original in reversed(originals):
            setattr(hook.owner, hook.attr, original)
