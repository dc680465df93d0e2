"""Periodic time-series samplers over a live engine.

One :class:`MetricsSampler` snapshot per ``sample_every`` cycles
captures what the aggregate end-of-run counters cannot: per-channel
utilization, per-NI queue occupancy split into occupied/held/reserved
slots, the live-message count, and the PR token position.  Sampling
runs only while a tracer is attached with ``sample_every > 0``; the
scan cost is paid at sample time, never in the cycle loop.

:class:`OccupancyMonitor` is the endpoint-coupling probe behind Figures
10/11: periodic samples of NI input-queue composition by message type,
from which :meth:`~OccupancyMonitor.coupling_index` computes the mean
fraction of head-of-line blocking caused by a *different* type than the
one waiting behind it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


class MetricsSampler:
    """Scans an engine into one JSON-able sample dict per call."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.num_links = len(engine.topology.links)

    def sample(self, now: int) -> dict[str, Any]:
        engine = self.engine
        fabric = engine.fabric
        stats = engine.stats

        busy_links = fabric.busy_link_count()
        # Per-NI queue occupancy, input and output banks combined:
        # (occupied, held, reserved) per node.
        ni_occupancy: list[tuple[int, int, int]] = []
        for ni in engine.interfaces:
            occupied = held = reserved = 0
            for bank in (ni.in_bank, ni.out_bank):
                for q in bank:
                    occupied += len(q.entries)
                    held += q.held
                    reserved += q.reserved
            ni_occupancy.append((occupied, held, reserved))

        sample: dict[str, Any] = {
            "cycle": now,
            "busy_links": busy_links,
            "channel_utilization": (
                busy_links / self.num_links if self.num_links else 0.0
            ),
            "flit_occupancy": fabric.occupancy(),
            "live_messages": (
                stats.messages_created - stats.total.messages_consumed
            ),
            "blocked_frontiers": sum(
                1 for s in fabric.frontier_senders()
                if s.owner.blocked_since >= 0
            ),
            "ni_occupancy": ni_occupancy,
        }
        controller = getattr(engine.scheme, "controller", None)
        token = getattr(controller, "token", None)
        if token is not None:
            sample["token_pos"] = token.pos
            sample["token_state"] = token.state
        return sample


@dataclass
class OccupancyMonitor:
    """Samples NI input-queue composition every ``interval`` cycles.

    Attach by calling :meth:`maybe_sample` from your run loop (or use
    :func:`run_with_monitor`). Cheap: one pass over NI queues per
    sample.
    """

    engine: object
    interval: int = 100
    samples: int = 0
    #: head-of-line pairs observed: (head type, waiting type) -> count
    hol_pairs: Counter = field(default_factory=Counter)
    occupancy_by_type: Counter = field(default_factory=Counter)

    def maybe_sample(self, now: int) -> None:
        if now % self.interval:
            return
        self.samples += 1
        for ni in self.engine.interfaces:
            for q in ni.in_bank:
                entries = q.entries
                for msg in entries:
                    self.occupancy_by_type[msg.mtype.name] += 1
                if len(entries) >= 2:
                    head = entries[0].mtype.name
                    for waiter in list(entries)[1:]:
                        self.hol_pairs[(head, waiter.mtype.name)] += 1

    def coupling_index(self) -> float:
        """Fraction of queued-behind-head slots held up by a *different*
        message type — 0.0 means queues are effectively homogeneous
        (SA/QA behaviour), values near 1.0 mean heavy type coupling."""
        total = sum(self.hol_pairs.values())
        if total == 0:
            return 0.0
        cross = sum(
            c for (head, waiter), c in self.hol_pairs.items() if head != waiter
        )
        return cross / total


def run_with_monitor(engine, cycles: int, interval: int = 100) -> OccupancyMonitor:
    """Run ``cycles`` steps while sampling queue composition."""
    monitor = OccupancyMonitor(engine, interval=interval)
    for _ in range(cycles):
        engine.step()
        monitor.maybe_sample(engine.now)
    return monitor
