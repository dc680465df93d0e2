"""Chandy-Misra-Haas edge-chasing deadlock detection (AND model).

Each detector *site* (one per NI per queue coupling, like the endpoint
detector's grid) watches its local blocked condition.  A site blocked
past ``cmh_block_threshold`` cycles becomes an **initiator**: it sends
one probe to every node it waits on — the destinations of the messages
wedged in its output queue, the occupant of its injection channel, and
its own packets blocked inside the fabric.  A node receiving a probe
while itself blocked forwards copies along *its* wait-for edges (each
node forwards a given initiator's chase at most once, the classic
"engaged" bit); a probe arriving back at its still-blocked initiator
proves a dependency cycle and the site **declares** deadlock.

Probes are real single-flit messages, but they travel a dedicated
control overlay (:class:`ProbeNetwork`) with topology-accurate hop
latency rather than the data-plane virtual channels: the channels a
probe must cross are exactly the ones the suspected deadlock has
wedged, and a detection mechanism that deadlocks with its subject is
useless.  This mirrors the paper's PR token, which likewise owns
conflict-free wiring.  Probe traffic is billed separately (counters +
telemetry events), never entering message conservation.

Unlike the endpoint detector's three-condition *timeout*, a declared
CMH detection is backed by an actually-traversed dependency cycle; its
phantom-deadlock window is only the probe flight time (an edge may
unblock while a probe is in flight).  The detection lab measures both
sides: latency vs. the endpoint timeout and false positives vs. the
omniscient CWG checker.
"""

from __future__ import annotations

from repro.core.detection import DetectorPair, build_detectors
from repro.core.detectors import Detector
from repro.protocol.probe import Probe


class CmhSite(DetectorPair):
    """One NI coupling watched by the CMH detector.

    The local blocked predicate is the endpoint detector's own
    :meth:`~DetectorPair.conditions`; the blocked span and declaration
    latch are maintained by :meth:`CmhDetector.pre_step`, so
    :meth:`update` has nothing to do
    and :meth:`fired` reports the latch: the scheme controllers drive
    this site exactly like any other.
    """

    __slots__ = ("blocked_since", "declared_at", "last_probe_cycle", "detector")

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: first cycle of the current contiguous blocked span (-1 = free).
        self.blocked_since = -1
        #: cycle a probe return proved the cycle (-1 = undeclared).
        self.declared_at = -1
        #: last cycle this site sent its chase probes (-1 = never).
        self.last_probe_cycle = -1
        #: backref set by :class:`CmhDetector` after construction.
        self.detector = None

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.ni.node, self.in_cls, self.out_cls)

    def update(self, now: int) -> bool:
        """Nothing to move (the latch moves in
        :meth:`CmhDetector.pre_step`); a declared site is armed."""
        return self.declared_at >= 0

    def fired(self, now: int) -> bool:
        return self.declared_at >= 0

    def reset(self, now: int) -> None:
        """Recovery acted: drop the declaration and restart the chase."""
        self.since = now
        self.episode_counted = False
        self.declared_at = -1
        self.blocked_since = -1
        self.last_probe_cycle = -1
        if self.detector is not None:
            self.detector.abort_chase(self)


class ProbeNetwork:
    """Hop-per-cycle control overlay carrying probes between nodes.

    A probe sent at cycle ``t`` from node ``a`` to node ``b`` arrives at
    ``t + min_hops(a, b) + 1`` — topology-accurate distance over
    dedicated wiring, unconstrained by data-plane congestion.  Delivery
    order is deterministic: per arrival cycle, send order.
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        self._calendar: dict[int, list[Probe]] = {}
        self._hops: dict[tuple[int, int], int] = {}
        self.in_flight = 0

    def latency(self, src: int, dst: int) -> int:
        pair = (src, dst)
        hops = self._hops.get(pair)
        if hops is None:
            topo = self.topology
            hops = self._hops[pair] = topo.min_hops(
                topo.router_of_node(src), topo.router_of_node(dst)
            )
        return hops + 1

    def send(self, probe: Probe, now: int) -> int:
        """Enqueue ``probe``; returns its hop latency."""
        lat = self.latency(probe.src, probe.dst)
        self._calendar.setdefault(now + lat, []).append(probe)
        self.in_flight += 1
        return lat

    def deliveries(self, now: int) -> list[Probe]:
        arrived = self._calendar.pop(now, [])
        self.in_flight -= len(arrived)
        return arrived


class CmhDetector(Detector):
    """The edge-chasing mechanism over a grid of :class:`CmhSite`\\ s."""

    def __init__(self, scheme, engine, require_request_child: bool) -> None:
        config = scheme.config
        sites = build_detectors(
            scheme, engine, scheme.couplings, require_request_child,
            site_class=CmhSite, threshold=config.cmh_block_threshold,
        )
        super().__init__("cmh", scheme, engine, sites)
        for site in self.sites:
            site.detector = self
        self.block_threshold = config.cmh_block_threshold
        self.probe_interval = config.cmh_probe_interval
        self.net = ProbeNetwork(engine.topology)
        #: initiator site key -> nodes already engaged by its chase.
        self._engaged: dict[tuple[int, int, int], set[int]] = {}
        self._site_by_key = {site.key: site for site in self.sites}
        # Overhead counters (reported by Detector.overhead()).
        self.probes_sent = 0
        self.probes_forwarded = 0
        self.probes_returned = 0
        self.probes_dropped = 0
        self.probe_hops = 0

    # ------------------------------------------------------------------
    # Forwarding predicate (a site initiates on its own conditions())
    # ------------------------------------------------------------------
    @staticmethod
    def _forward_blocked(site: CmhSite) -> bool:
        """Looser forwarding predicate: a waiting head, wedged output.

        No request-child restriction and no input-stress requirement: a
        probe must keep chasing through any node whose head cannot make
        progress, or true cycles through partially filled queues escape
        detection.
        """
        in_q = site._in_q
        head = in_q.entries[0] if in_q.entries else None
        if head is None or not head.continuation:
            return False
        controller = site.ni.controller
        if controller.current is not None and controller.current_in_cls == site.in_cls:
            return False
        return site._out_q.admission_full

    # ------------------------------------------------------------------
    # Wait-for edges
    # ------------------------------------------------------------------
    def _dependents(self, site: CmhSite) -> list[int]:
        """Nodes ``site`` transitively waits on, one probe hop away."""
        node = site.ni.node
        deps = set(site.ni.frontier_destinations(site.out_cls))
        for sender in self.engine.fabric.frontier_senders():
            msg = sender.owner
            if msg.blocked_since >= 0 and msg.src == node:
                deps.add(msg.dst)
        deps.discard(node)
        return sorted(deps)

    # ------------------------------------------------------------------
    # The per-cycle chase
    # ------------------------------------------------------------------
    def pre_step(self, now: int) -> None:
        self._update_blocked(now)
        self._deliver(now)
        self._initiate(now)

    def _update_blocked(self, now: int) -> None:
        for site in self.sites:
            if site.conditions():
                if site.blocked_since < 0:
                    site.blocked_since = now
            elif site.blocked_since >= 0 or site.declared_at >= 0:
                # Progress: the suspected deadlock (or phantom) is gone.
                site.blocked_since = -1
                site.declared_at = -1
                site.last_probe_cycle = -1
                site.since = now
                site.episode_counted = False
                self.abort_chase(site)

    def _deliver(self, now: int) -> None:
        tracer = self.tracer
        for probe in self.net.deliveries(now):
            self.probe_hops += probe.forwards + 1
            node = probe.dst
            if node == probe.initiator:
                site = self._site_by_key.get(probe.site)
                if (
                    site is not None
                    and site.blocked_since >= 0
                    and probe.started_cycle >= site.blocked_since
                ):
                    self.probes_returned += 1
                    if site.declared_at < 0:
                        site.declared_at = now
                        # The scheme's tracer.detection/latency math
                        # reads ``since`` as the formation cycle.
                        site.since = site.blocked_since
                    if tracer is not None:
                        tracer.probe_returned(probe, now)
                else:
                    self.probes_dropped += 1
                    if tracer is not None:
                        tracer.probe_dropped(probe, now)
                continue
            engaged = self._engaged.get(probe.site)
            if engaged is None or node in engaged:
                # Chase aborted, or this node already forwarded it.
                self.probes_dropped += 1
                if tracer is not None:
                    tracer.probe_dropped(probe, now)
                continue
            targets: set[int] = set()
            for site in self.by_node.get(node, ()):
                if self._forward_blocked(site):
                    targets.update(self._dependents(site))
            targets.discard(node)
            if not targets:
                self.probes_dropped += 1
                if tracer is not None:
                    tracer.probe_dropped(probe, now)
                continue
            engaged.add(node)
            for dst in sorted(targets):
                fwd = probe.forwarded(node, dst, now)
                self.net.send(fwd, now)
                self.probes_forwarded += 1
                if tracer is not None:
                    tracer.probe_forwarded(fwd, now)

    def _initiate(self, now: int) -> None:
        tracer = self.tracer
        for site in self.sites:
            if site.blocked_since < 0 or site.declared_at >= 0:
                continue
            if now - site.blocked_since < self.block_threshold:
                continue
            if (
                site.last_probe_cycle >= 0
                and now - site.last_probe_cycle < self.probe_interval
            ):
                continue
            deps = self._dependents(site)
            if not deps:
                continue
            node = site.ni.node
            # (Re)start the chase: prior engagement is void so a fresh
            # wave can re-traverse a frontier that moved meanwhile.
            self._engaged[site.key] = {node}
            site.last_probe_cycle = now
            for dst in deps:
                probe = Probe(
                    node, site.in_cls, site.out_cls,
                    src=node, dst=dst,
                    started_cycle=now, sent_cycle=now,
                )
                self.net.send(probe, now)
                self.probes_sent += 1
                if tracer is not None:
                    tracer.probe_sent(probe, now)

    def abort_chase(self, site: CmhSite) -> None:
        """Void a site's engagement; stale in-flight probes can't declare."""
        self._engaged.pop(site.key, None)

    def describe(self) -> dict:
        out = super().describe()
        out.update(self.overhead())
        return out
