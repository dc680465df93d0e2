"""Memory-access traces and trace-driven traffic.

A trace is a time-ordered sequence of :class:`TraceRecord` — the "full
set of data access activities" the paper captures from RSIM (Section
4.2.1).  Timing information is preserved so traffic burstiness survives
into the network simulation.  :class:`TraceTraffic` replays a trace
through a :class:`~repro.protocol.coherence.DirectoryMSI` engine,
injecting the resulting transactions at the requesting node's NI.

A plain-text serialization (``cycle cpu op block`` per line) is provided
so traces can be stored, inspected and regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.protocol.coherence import DirectoryMSI
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class TraceRecord:
    """One L1 data access: when, who, read/write, which block."""

    cycle: int
    cpu: int
    op: str  # "R" | "W"
    block: int

    def __post_init__(self) -> None:
        if self.op not in ("R", "W"):
            raise ConfigurationError(f"bad op {self.op!r}")


def write_trace(path: str | Path, records: Iterable[TraceRecord]) -> None:
    """Serialize records as ``cycle cpu op block`` lines."""
    with open(path, "w", encoding="ascii") as fh:
        for r in records:
            fh.write(f"{r.cycle} {r.cpu} {r.op} {r.block}\n")


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Parse a trace file written by :func:`write_trace`."""
    out: list[TraceRecord] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cycle, cpu, op, block = line.split()
            out.append(TraceRecord(int(cycle), int(cpu), op, int(block)))
    return out


class TraceTraffic:
    """Replays a trace through the coherence engine into the network.

    Records are consumed in timestamp order; each network-visible
    transaction's root message(s) are enqueued at the requester's NI.
    The ``load`` attribute exists for engine compatibility (quiesce sets
    it to zero to stop replay).
    """

    def __init__(self, records: list[TraceRecord], coherence: DirectoryMSI) -> None:
        self.records = sorted(records, key=lambda r: (r.cycle, r.cpu))
        self.coherence = coherence
        self.engine = None
        self._idx = 0
        self.load = 1.0  # sentinel: nonzero means "replaying"
        self.generated = 0

    def attach(self, engine) -> None:
        self.engine = engine
        if engine.topology.num_nodes != self.coherence.num_nodes:
            raise ConfigurationError(
                "coherence engine and topology disagree on node count"
            )

    @property
    def exhausted(self) -> bool:
        return self._idx >= len(self.records)

    def step(self, now: int) -> None:
        if self.load <= 0.0:
            return
        records = self.records
        n = len(records)
        while self._idx < n and records[self._idx].cycle <= now:
            rec = records[self._idx]
            self._idx += 1
            result = self.coherence.access(rec.cpu, rec.op, rec.block, now)
            if result is None:
                continue
            self.generated += 1
            ni = self.engine.interfaces[result.requester]
            for root in result.roots:
                ni.enqueue_root(root)


def trace_couplings() -> set[tuple[str, str]]:
    """Direct type couplings of the MSI coherence protocol."""
    return {("RQ", "FRQ"), ("RQ", "RP"), ("FRQ", "FRP"), ("FRP", "RP")}
