"""Periodic time-series samplers over a live engine.

One :class:`MetricsSampler` snapshot per ``sample_every`` cycles
captures what the aggregate end-of-run counters cannot: per-channel
utilization, per-NI queue occupancy split into occupied/held/reserved
slots, the live-message count, and the PR token position.  Sampling
runs only while a tracer is attached with ``sample_every > 0``; the
scan cost is paid at sample time, never in the cycle loop.
"""

from __future__ import annotations

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
                1 for s in fabric.pending
                if s.owner is not None and s.next_sink is None
                and s.owner.blocked_since >= 0
            ),
            "ni_occupancy": ni_occupancy,
        }
        controller = getattr(engine.scheme, "controller", None)
        token = getattr(controller, "token", None)
        if token is not None:
            sample["token_pos"] = token.pos
            sample["token_state"] = token.state
        return sample
