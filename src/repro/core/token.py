"""The circulating token of Extended Disha Sequential.

One token exists per network.  While *circulating* it advances one stop
per cycle along a logical ring that visits every router
**and** every network interface (the paper's first extension of Disha:
the token path includes network endpoints).  A stop with a detected
potential deadlock *captures* the token; the holder gains exclusive use
of the recovery lane until it *releases* the token back into
circulation.  During a rescue the token may be *reused* to deliver the
subordinate messages of the rescued message before release.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.topology import Topology
from repro.util.errors import SimulationError


@dataclass(frozen=True)
class Stop:
    """One stop on the token ring: a router or a network interface."""

    kind: str  # "router" | "ni"
    ident: int  # router id or node id


def default_ring(topology: Topology) -> list[Stop]:
    """Router order with each router's NIs interleaved after it.

    The paper notes the token path is logical and configurable; this
    ring, the only one, simply snakes through router ids, visiting
    bristled NIs immediately after their router.
    """
    stops: list[Stop] = []
    for r in range(topology.num_routers):
        stops.append(Stop("router", r))
        for node in topology.nodes_of_router(r):
            stops.append(Stop("ni", node))
    return stops


class Token:
    """Single-token capture/release state machine."""

    CIRCULATING = "circulating"
    HELD = "held"

    def __init__(self, stops: list[Stop]) -> None:
        if not stops:
            raise SimulationError("token ring needs at least one stop")
        self.stops = stops
        self.pos = 0
        self.state = Token.CIRCULATING
        self.holder: Stop | None = None
        self.captures = 0
        self.laps = 0
        # Fault state (see repro.faults): a lost token stops moving until
        # the controller's loss watchdog regenerates it; ``duplicates``
        # counts injected extra tokens for the uniqueness invariant.
        self.lost = False
        self.duplicates = 0
        self.regenerations = 0
        #: telemetry hook (repro.telemetry.Tracer) or None.  Capture is
        #: traced by the progressive controller (which knows the rescued
        #: message); the token itself traces movement and release.
        self.tracer = None

    @property
    def at(self) -> Stop:
        return self.stops[self.pos]

    def advance(self) -> Stop:
        """Move one stop per cycle while circulating."""
        if self.state != Token.CIRCULATING:  # pragma: no cover - guarded
            raise SimulationError("cannot advance a held token")
        if self.lost:  # pragma: no cover - guarded by the controller
            raise SimulationError("cannot advance a lost token")
        self.pos = (self.pos + 1) % len(self.stops)
        if self.pos == 0:
            self.laps += 1
        stop = self.stops[self.pos]
        if self.tracer is not None:
            self.tracer.token_hop(stop, self.tracer.engine.now)
        return stop

    def capture(self, stop: Stop) -> None:
        if self.state != Token.CIRCULATING:  # pragma: no cover - guarded
            raise SimulationError("token already held: no second holder allowed")
        self.state = Token.HELD
        self.holder = stop
        self.captures += 1

    def release(self, at_stop: Stop | None = None) -> None:
        """Re-circulate, optionally from the stop where recovery ended."""
        if self.state != Token.HELD:  # pragma: no cover - guarded
            raise SimulationError("releasing a token that is not held")
        if at_stop is not None:
            try:
                self.pos = self.stops.index(at_stop)
            except ValueError:
                pass
        self.state = Token.CIRCULATING
        self.holder = None
        if self.tracer is not None:
            self.tracer.token_released(
                self.stops[self.pos], self.tracer.engine.now
            )

    # -- fault hooks (driven by repro.faults.injector) ------------------
    def lose(self) -> bool:
        """Drop a circulating token; a held one cannot silently vanish."""
        if self.state != Token.CIRCULATING or self.lost:
            return False
        self.lost = True
        return True

    def duplicate(self) -> None:
        """Record an injected duplicate token (invariant-check fodder)."""
        self.duplicates += 1

    def regenerate(self) -> None:
        """Controller-side loss recovery: mint a fresh circulating token."""
        self.lost = False
        self.state = Token.CIRCULATING
        self.holder = None
        self.regenerations += 1
        if self.tracer is not None:
            self.tracer.token_regenerated(self.tracer.engine.now)
