"""The flit-movement engine: allocation, link arbitration, ejection.

The fabric advances the network by one cycle at a time in three phases:

1. **Ejection** — each NI's ejection port drains at most one flit from a
   packet routed to it; a tail flit completes delivery into the NI input
   queue (via the delivery hook installed by the endpoint layer).
2. **Allocation** — every *frontier* sender (a virtual channel or
   injection channel holding a packet header with no assigned next hop)
   attempts route computation + VC allocation, or reserves an input-queue
   slot when the header has reached its destination router.  Failure
   leaves the packet blocked, holding all channels its flits occupy.
3. **Link traversal** — each unidirectional link forwards at most one
   flit per cycle, round-robin among the senders routed over it; each NI
   injects at most one flit per cycle across its injection channels.

Blocking time of frontier packets is tracked on the message
(``blocked_since``), which is what progressive recovery's router-level
timeout detection consumes.
"""

from __future__ import annotations

from repro.network.channel import EjectionPort, InjectionChannel, VirtualChannel
from repro.network.routing import Routing
from repro.network.topology import Topology
from repro.protocol.message import Message
from repro.util.errors import SimulationError


class Fabric:
    """Owns all network resources and moves flits between them."""

    def __init__(
        self,
        topology: Topology,
        num_vcs: int,
        flit_buffer_depth: int,
        routing: Routing,
    ) -> None:
        self.topology = topology
        self.num_vcs = num_vcs
        self.flit_buffer_depth = flit_buffer_depth
        self.routing = routing

        #: one-cell flit-occupancy ledger shared by every VC, so
        #: :meth:`occupancy` is O(1) instead of an O(links x VCs) scan.
        self._occ = [0]
        #: link id -> list of VirtualChannel (buffers at the downstream router)
        self.link_vcs: list[list[VirtualChannel]] = [
            [
                VirtualChannel(link, i, flit_buffer_depth, ledger=self._occ)
                for i in range(num_vcs)
            ]
            for link in topology.links
        ]
        routing.bind(self.link_vcs)

        #: link id -> ``(sender, sink_vc, is_injection)`` triples for the
        #: senders currently routed over this link.  The sink and kind
        #: flag are fixed for a packet's whole traversal of the link, so
        #: they are resolved once at allocation instead of per scan in
        #: the arbitration loop.
        self.link_senders: list[list] = [[] for _ in topology.links]
        self._link_rr: list[int] = [0] * len(topology.links)
        #: links with at least one sender, in first-busy order (an
        #: insertion-ordered dict so link arbitration order is exactly
        #: reproducible, notably by the vector backend's kernel)
        self._busy_links: dict[int, None] = {}

        #: frontier senders awaiting route/VC allocation or a queue slot
        self.pending: list = []

        #: per-node ejection port; delivery hooks installed via set_endpoint_hooks
        self.ejection_ports: list[EjectionPort] = [
            EjectionPort(node, self._unwired_deliver)
            for node in range(topology.num_nodes)
        ]
        #: nodes whose ejection port currently has senders (mirrors
        #: ``_busy_links`` so the eject phase skips idle ports).
        self._eject_active: set[int] = set()
        #: per-node reservation hook: try_reserve(msg) -> bool
        self._reserve_hooks = [self._unwired_reserve] * topology.num_nodes

        #: (node, vc_class) -> InjectionChannel
        self._inj_channels: dict[tuple[int, int], InjectionChannel] = {}
        self._inj_used = bytearray(topology.num_nodes)
        self._inj_zero = bytes(topology.num_nodes)

        # Fault hooks (repro.faults): resources in these sets do nothing
        # while stalled.  Kept as plain sets so the healthy hot path pays
        # only an empty-set truthiness test per phase.
        self.stalled_links: set[int] = set()
        self.stalled_routers: set[int] = set()
        self.stalled_ejects: set[int] = set()

        #: telemetry hook (repro.telemetry.Tracer) or None; allocation
        #: outcomes are the only fabric events traced — `_phase_links`
        #: stays hook-free because it is the simulator's hottest loop.
        self.tracer = None

        # Statistics
        self.flits_forwarded = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.alloc_failures = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @staticmethod
    def _unwired_deliver(msg, now):  # pragma: no cover - guarded
        raise SimulationError("delivery hook not installed")

    @staticmethod
    def _unwired_reserve(msg):  # pragma: no cover - guarded
        raise SimulationError("reservation hook not installed")

    def set_endpoint_hooks(self, node: int, try_reserve, deliver) -> None:
        """Install the NI input-queue hooks for ``node``.

        ``try_reserve(msg) -> bool`` reserves a message slot when the
        header reaches the delivery port; ``deliver(msg, now)`` commits
        the message once its tail flit drains.
        """
        self._reserve_hooks[node] = try_reserve
        self.ejection_ports[node].deliver = deliver

    def injection_channel(self, node: int, vc_class: int) -> InjectionChannel:
        """The (lazily created) injection channel for a logical network."""
        key = (node, vc_class)
        chan = self._inj_channels.get(key)
        if chan is None:
            chan = InjectionChannel(
                node, self.topology.router_of_node(node), vc_class
            )
            self._inj_channels[key] = chan
        return chan

    # ------------------------------------------------------------------
    # Packet entry
    # ------------------------------------------------------------------
    def start_injection(self, chan: InjectionChannel, msg: Message, now: int) -> None:
        """Begin streaming ``msg`` from an idle injection channel."""
        chan.load(msg)
        msg.injected_cycle = now
        msg.blocked_since = now
        if msg.dst_router < 0:
            msg.dst_router = self.topology.router_of_node(msg.dst)
        self.pending.append(chan)
        if self.tracer is not None:
            self.tracer.message_injected(msg, now)

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        self._phase_eject(now)
        self._phase_allocate(now)
        self._phase_links(now)

    def _phase_eject(self, now: int) -> None:
        active = self._eject_active
        if not active:
            return
        ports = self.ejection_ports
        stalled = self.stalled_ejects
        # Sorted so port service order (and thus stats accumulation order)
        # matches the historical full scan in node order.
        for node in sorted(active):
            if stalled and node in stalled:
                continue
            port = ports[node]
            before = port.flits_drained
            port.step(now)
            self.flits_ejected += port.flits_drained - before
            if not port.senders:
                active.discard(node)

    def _phase_allocate(self, now: int) -> None:
        pending = self.pending
        if not pending:
            return
        still: list = []
        topo = self.topology
        candidates = self.routing.candidates
        reserve_hooks = self._reserve_hooks
        link_senders = self.link_senders
        busy_add = self._busy_links.setdefault
        frozen = self.stalled_routers
        tracer = self.tracer
        for sender in pending:
            msg = sender.owner
            if msg is None:  # rescued or otherwise detached meanwhile
                continue
            if sender.next_sink is not None:
                # A recovery scheme may have routed this sender already.
                continue
            if frozen and sender.router in frozen:
                # Frozen router: no route computation.  Not an allocation
                # failure — the packet is a fault victim, not contended.
                if msg.blocked_since < 0:
                    msg.blocked_since = now
                if tracer is not None:
                    tracer.message_blocked(msg, sender.router, now)
                still.append(sender)
                continue
            dst_router = msg.dst_router
            if dst_router < 0:  # not injected via start_injection
                dst_router = msg.dst_router = topo.router_of_node(msg.dst)
            if sender.router == dst_router:
                if reserve_hooks[msg.dst](msg):
                    port = self.ejection_ports[msg.dst]
                    sender.next_sink = port
                    port.senders.append(sender)
                    self._eject_active.add(msg.dst)
                    msg.blocked_since = -1
                    if tracer is not None:
                        tracer.message_unblocked(msg, now)
                    continue
            else:
                allocated = False
                for vc in candidates(sender.router, dst_router, msg):
                    if vc.owner is None:
                        vc.owner = msg
                        sender.next_sink = vc
                        lid = vc.link.lid
                        link_senders[lid].append((sender, vc, sender.is_injection))
                        busy_add(lid)
                        allocated = True
                        break
                if allocated:
                    msg.blocked_since = -1
                    if tracer is not None:
                        tracer.vc_granted(msg, sender.router, sender.next_sink, now)
                    continue
            # Blocked: keep waiting; stamp the start of the blocked episode.
            if msg.blocked_since < 0:
                msg.blocked_since = now
            self.alloc_failures += 1
            if tracer is not None:
                tracer.message_blocked(msg, sender.router, now)
            still.append(sender)
        # Rotate for fairness so the same frontier does not always win ties.
        if len(still) > 1:
            still.append(still.pop(0))
        self.pending = still

    def _phase_links(self, now: int) -> None:
        """Forward at most one flit per busy link (round-robin arbitration).

        The per-flit bookkeeping of the former ``_move_flit`` helper is
        inlined here: this loop moves every flit in the system every
        cycle, and the call overhead of ``has_space``/``ready_flit``/
        ``pop_flit``/``accept_flit`` dominated the simulator's profile.
        """
        inj_used = self._inj_used
        inj_used[:] = self._inj_zero
        link_rr = self._link_rr
        link_senders = self.link_senders
        pending_append = self.pending.append
        occ = self._occ
        forwarded = 0
        injected = 0
        done_links: list[int] = []
        busy = self._busy_links
        if self.stalled_links:
            busy = {k: None for k in busy if k not in self.stalled_links}
        for lid in list(busy):
            senders = link_senders[lid]
            n = len(senders)
            if n == 0:
                done_links.append(lid)
                continue
            start = link_rr[lid] % n
            for i in range(n):
                idx = start + i
                if idx >= n:
                    idx -= n
                sender, sink, is_inj = senders[idx]
                sink_fifo = sink.fifo
                if len(sink_fifo) >= sink.capacity:  # inline has_space()
                    continue
                msg = sender.owner
                # Inline ready_flit() / pop_flit() for both sender kinds.
                if is_inj:
                    flit = msg.flits_sent
                    if flit >= msg.size:
                        continue
                    node = sender.node
                    if inj_used[node]:
                        continue
                    inj_used[node] = 1
                    msg.flits_sent = flit + 1
                    injected += 1
                else:
                    fifo = sender.fifo
                    if not fifo:
                        continue
                    flit, arrived = fifo[0]
                    if arrived >= now:
                        continue  # one-cycle minimum per hop
                    fifo.popleft()
                    occ[0] -= 1
                sink_fifo.append((flit, now))  # inline accept_flit()
                occ[0] += 1
                forwarded += 1
                if flit == 0:
                    # Header advanced one hop: update dateline state and
                    # queue the downstream channel for route computation.
                    msg.hops += 1
                    link = sink.link
                    if link.crosses_dateline:
                        msg.crossed_mask |= 1 << link.dim
                    pending_append(sink)
                    msg.blocked_since = now
                if flit == msg.size - 1:
                    # Tail departed: free the channel behind the packet.
                    # The winner sat at ``idx``; removing it shifts every
                    # later sender down one, so the round-robin pointer
                    # must aim at ``idx`` (the old ``idx + 1``), not past
                    # it — otherwise the next sender is skipped and can
                    # starve under contention.
                    del senders[idx]
                    sender.release()
                    if is_inj:
                        self.on_injection_complete(sender, msg, now)
                    if senders:
                        link_rr[lid] = idx if idx < len(senders) else 0
                    else:
                        link_rr[lid] = 0
                        done_links.append(lid)
                else:
                    link_rr[lid] = idx + 1 if idx + 1 < n else 0
                break
        self.flits_forwarded += forwarded
        self.flits_injected += injected
        for lid in done_links:
            self._busy_links.pop(lid, None)

    # Hook the endpoint layer overrides to reload injection channels.
    def on_injection_complete(self, chan: InjectionChannel, msg, now: int) -> None:
        """Called when a packet's tail leaves its injection channel."""

    # ------------------------------------------------------------------
    # Introspection (used by detection, recovery and tests)
    # ------------------------------------------------------------------
    def frontier_senders(self) -> list:
        """Senders holding a packet header that is not yet routed onward."""
        return [s for s in self.pending if s.owner is not None and s.next_sink is None]

    def longest_blocked(self, router: int, now: int, threshold: int):
        """The frontier sender at ``router`` whose header has been
        blocked longest, if more than ``threshold`` cycles; the first in
        frontier order wins a tie (PR's router capture)."""
        best = None
        best_since = None
        for s in self.frontier_senders():
            since = s.owner.blocked_since
            if s.router != router or since < 0 or now - since <= threshold:
                continue
            if best is None or since < best_since:
                best = s
                best_since = since
        return best

    def owned_channels(self):
        """Every owned virtual channel (in link order), then every owned
        injection channel, each with the virtual channel its packet is
        routed to — None while unrouted or bound for an ejection port."""
        for chan in (*self.all_vcs(), *self._inj_channels.values()):
            if chan.owner is not None:
                sink = chan.next_sink
                yield chan, sink if isinstance(sink, VirtualChannel) else None

    def buffer_audit(self) -> tuple[int, int, tuple | None]:
        """``(ledger, buffered, bad)``: the occupancy ledger, the flits
        the VCs hold, and the first VC holding flits unowned or over
        capacity as ``(lid, index, flits, owned)``, else None."""
        buffered = 0
        bad: tuple | None = None
        for vc in self.all_vcs():
            flits = len(vc.fifo)
            buffered += flits
            if bad is None and flits and (
                vc.owner is None or flits > vc.capacity
            ):
                bad = (vc.link.lid, vc.index, flits, vc.owner is not None)
        return self._occ[0], buffered, bad

    def detach_frontier(self, sender) -> None:
        """Remove a frontier sender from the pending list (rescue path).

        The caller becomes responsible for draining the sender's flits;
        used by progressive recovery to reroute a packet over the
        deadlock-buffer lane.
        """
        try:
            self.pending.remove(sender)
        except ValueError:  # pragma: no cover - tolerate double detach
            pass

    def occupancy(self) -> int:
        """Total flits currently buffered in network virtual channels.

        O(1): every VC shares the fabric's occupancy ledger, updated as
        flits move, so the quiesce loop's per-cycle emptiness check does
        not rescan every buffer.
        """
        return self._occ[0]

    def busy_link_count(self) -> int:
        """Links that currently have at least one sender routed over them."""
        return len(self._busy_links)

    def all_vcs(self):
        for vcs in self.link_vcs:
            yield from vcs

    def held_messages(self):
        """Every message owning a virtual or injection channel.

        A packet spanning several channels is yielded once per channel.
        """
        for chan, _ in self.owned_channels():
            yield chan.owner
