"""Progress reporting for long sweep/experiment runs.

A :class:`ProgressReporter` tracks completed points, cache hits and
per-point timing, and renders a single status line — in place (``\\r``)
on a TTY, one line per update otherwise — so paper-scale runs are
observable without drowning CI logs.  Non-TTY output is additionally
throttled to at most one line every ``min_interval`` seconds (a fast
sweep of hundreds of cached points would otherwise emit hundreds of
near-identical lines); ``finish`` always emits the final state.
"""

from __future__ import annotations

import sys
import time


def format_eta(seconds: float) -> str:
    """Compact ``h:mm:ss`` / ``m:ss`` rendering of a duration."""
    seconds = max(0, int(seconds))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}:{m:02d}:{s:02d}"
    return f"{m}:{s:02d}"


class ProgressReporter:
    """Tracks and prints ``done/total`` progress with ETA and cache hits.

    Parameters
    ----------
    total:
        Number of points expected; :meth:`drop` lowers it when a curve
        stops early.  ``finish`` always closes the line.
    label:
        Short prefix identifying the run (e.g. the sweep label).
    stream:
        Output stream; defaults to stderr so result output stays clean.
    enabled:
        When false every method is a no-op, letting callers pass a
        reporter unconditionally.
    clock:
        Monotonic time source; injectable for tests.
    min_interval:
        Minimum seconds between non-TTY status lines.  The first update
        renders immediately; suppressed updates are folded into the next
        rendered line (or into ``finish``).
    """

    def __init__(self, total: int, label: str = "", stream=None,
                 enabled: bool = True, clock=time.monotonic,
                 min_interval: float = 2.0) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.done = 0
        self.cache_hits = 0
        self.failures = 0
        self.min_interval = min_interval
        self._clock = clock
        self._start = clock()
        self._last_elapsed = 0.0
        self._last_emit: float | None = None
        self._dirty = False

    def update(self, *, cached: bool = False, elapsed: float = 0.0,
               failed: bool = False) -> None:
        """Record one finished point and redraw the status line."""
        self.done += 1
        if cached:
            self.cache_hits += 1
        if failed:
            self.failures += 1
        self._last_elapsed = elapsed
        self._render()

    def drop(self, points: int) -> None:
        """Forget ``points`` that will never run (a curve stopped past
        saturation), so the final line counts only the points that did."""
        self.total -= points
        self._render()

    def eta_seconds(self) -> float:
        """Remaining-time estimate from the mean pace of executed points."""
        remaining = max(0, self.total - self.done)
        executed = self.done - self.cache_hits
        if not remaining:
            return 0.0
        if not executed:
            return 0.0
        pace = (self._clock() - self._start) / executed
        return pace * remaining

    def _line(self) -> str:
        parts = [f"[{self.done}/{self.total}]"]
        if self.label:
            parts.insert(0, self.label)
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cached")
        if self.failures:
            parts.append(f"{self.failures} failed")
        if self._last_elapsed:
            parts.append(f"last {self._last_elapsed:.1f}s")
        eta = self.eta_seconds()
        if eta:
            parts.append(f"ETA {format_eta(eta)}")
        return " ".join(parts)

    def _render(self) -> None:
        if not self.enabled:
            return
        if self.stream.isatty():
            self.stream.write("\r" + self._line().ljust(79))
            self.stream.flush()
            return
        # Non-TTY (log files, CI): rate-limit to one line per interval.
        now = self._clock()
        if self._last_emit is not None and now - self._last_emit < self.min_interval:
            self._dirty = True
            return
        self.stream.write(self._line() + "\n")
        self._last_emit = now
        self._dirty = False

    def finish(self) -> None:
        """Close the in-place line (newline on a TTY); flush held state."""
        if not self.enabled:
            return
        if self.stream.isatty():
            self.stream.write("\n")
            self.stream.flush()
        elif self._dirty:
            # Updates were suppressed by the throttle since the last
            # emitted line: always leave the final state in the log.
            self.stream.write(self._line() + "\n")
            self._dirty = False
