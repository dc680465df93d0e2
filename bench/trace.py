"""Benchmark-owned spans around the program's public entry points.

Nothing here is imported by :mod:`repro`: the traced run installs
wrappers from outside (instance attributes, or a class attribute where
``__slots__`` leaves no other way) and keeps every span in memory until
the workload ends.

Engine phases are called ~10^5 times per second, so they are not
recorded per call: :class:`PhaseClock` accumulates time and call counts
per phase and :meth:`PhaseClock.flush` emits one span per phase per
50-cycle slice.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    #: id of the span that caused this one (None for a root).
    parent: int | None
    #: "<workload>/r<repeat>": shared by every span of one child process.
    tag: str
    #: calls folded into this span (phase spans cover many).
    count: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink; ``add`` is safe from farm dispatch threads
    (``next`` on a counter and a list append are each one step under the
    interpreter lock)."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float,
            parent: int | None, count: int = 1) -> Span:
        span = Span(next(self._ids), name, start, end, parent, self.tag, count)
        self.spans.append(span)
        return span

    def open(self, name: str, parent: int | None = None) -> Span:
        """A span whose ``end`` the caller sets when the work is done."""
        now = perf_counter()
        return self.add(name, now, now, parent)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps([asdict(s) for s in self.spans], separators=(",", ":")),
            "utf-8",
        )


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-name self time: duration minus the part child spans cover.

    Children of one span never overlap here (phases are laid end to end
    inside their slice; farm shards on one host run one at a time), so
    the covered part is the plain sum of child durations, clamped at the
    parent's own duration for concurrent children (two farm hosts).
    """
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += max(0.0, span.duration - covered[span.id])
    return dict(out)


class PhaseClock:
    """Accumulating timers for calls too frequent to record one by one."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: run totals, kept across flushes.
        self.total_seconds: dict[str, float] = defaultdict(float)
        self.total_calls: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn: Callable) -> Callable:
        seconds, calls = self.seconds, self.calls

        def timed(*args):
            start = perf_counter()
            result = fn(*args)
            seconds[name] += perf_counter() - start
            calls[name] += 1
            return result

        return timed

    def discard(self) -> None:
        """Drop what accumulated outside any span (set-up)."""
        self.seconds.clear()
        self.calls.clear()

    def flush(self, recorder: Recorder, parent: Span) -> None:
        """Emit the phases accumulated during ``parent`` as its children,
        laid end to end from its start, and reset the accumulators."""
        cursor = parent.start
        for name, seconds in self.seconds.items():
            recorder.add(name, cursor, cursor + seconds, parent.id,
                         self.calls[name])
            cursor += seconds
            self.total_seconds[name] += seconds
            self.total_calls[name] += self.calls[name]
        self.discard()
