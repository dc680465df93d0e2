"""The network interface (NI): injection, delivery, and admission control.

Each node has one NI holding the input/output queue banks, an unbounded
*source queue* of not-yet-admitted transaction roots (so applied load is
open-loop and queueing delay is charged to latency, as in the paper's
measurements), and the per-logical-network injection channels.

Admission of a new transaction requires a free MSHR (``max_outstanding``)
plus, for schemes with reply preallocation, a reserved reply slot — the
paper's Section 3 assumption that internal resources are preallocated so
subordinate messages can always sink.

The endpoint deadlock detector (:mod:`repro.core.detection`) watches the
NI's queues through their version counters.  Under progressive recovery
the deadlock message buffer (DMB) is held by :mod:`repro.core.progressive`
(its lane's ``msg``), not by the NI.
"""

from __future__ import annotations

from collections import deque

from repro.endpoint.controller import MemoryController
from repro.endpoint.queues import QueueBank
from repro.network.fabric import Fabric
from repro.protocol.message import Message


class NetworkInterface:
    """Endpoint glue between the protocol layer and the network fabric."""

    def __init__(
        self,
        node: int,
        fabric: Fabric,
        policy,
        stats,
        queue_capacity: int,
        num_queue_classes: int,
        max_outstanding: int,
    ) -> None:
        self.node = node
        self.router = fabric.topology.router_of_node(node)
        self.fabric = fabric
        self.policy = policy
        self.stats = stats
        self.in_bank = QueueBank(num_queue_classes, queue_capacity)
        self.out_bank = QueueBank(num_queue_classes, queue_capacity)
        self.source_queue: deque[Message] = deque()
        self.max_outstanding = max_outstanding
        self.outstanding = 0
        self.controller = MemoryController(
            node, self.in_bank, self.out_bank, policy, stats
        )
        fabric.set_endpoint_hooks(node, self.try_reserve_delivery, self.deliver)
        # Injection channels are per-(node, class) singletons; resolve
        # them once instead of a dict lookup per class per cycle.
        self._injection_pairs = [
            (fabric.injection_channel(node, cls), self.out_bank.queue(cls))
            for cls in range(num_queue_classes)
        ]
        #: telemetry hook (repro.telemetry.Tracer) or None.
        self.tracer = None

    # ------------------------------------------------------------------
    # Fabric-facing hooks
    # ------------------------------------------------------------------
    def try_reserve_delivery(self, msg: Message) -> bool:
        cls = self.policy.queue_class_of(msg.mtype)
        return self.in_bank.queue(cls).try_claim_slot(msg)

    def deliver(self, msg: Message, now: int) -> None:
        cls = self.policy.queue_class_of(msg.mtype)
        self.in_bank.queue(cls).commit(msg)
        msg.delivered_cycle = now
        self.stats.on_delivered(msg, now)
        if self.tracer is not None:
            self.tracer.message_delivered(msg, now)

    # ------------------------------------------------------------------
    # Per-cycle work
    # ------------------------------------------------------------------
    def enqueue_root(self, root: Message) -> None:
        """Hand a freshly generated transaction root to the NI."""
        self.stats.on_created(root)
        self.source_queue.append(root)
        if self.tracer is not None:
            self.tracer.message_created(root, root.created_cycle)

    def step(self, now: int) -> None:
        if self.source_queue:
            self._admit_roots(now)
        # Inline _load_injection(): runs for every NI every cycle.
        for chan, queue in self._injection_pairs:
            if chan.owner is None and queue.entries:
                self.fabric.start_injection(chan, queue.pop(), now)
        self.controller.step(now)

    def can_admit(self) -> bool:
        """The admission test (R1), no side effects: the head root needs
        a free MSHR, an output slot and a reservation per reply it is
        owed (schemes with reply preallocation)."""
        if not self.source_queue or self.outstanding >= self.max_outstanding:
            return False
        root = self.source_queue[0]
        policy = self.policy
        if self.out_bank.queue(policy.queue_class_of(root.mtype)).free_slots <= 0:
            return False
        return policy.reservation_blocker(
            self.node, self.in_bank, root.continuation
        ) is None

    def _admit_roots(self, now: int) -> None:
        policy = self.policy
        while self.can_admit():
            root = self.source_queue.popleft()
            # R1: preallocate reply slots for everything this transaction
            # will send back to us before letting the request loose.
            policy.make_reservations(self.node, self.in_bank, root.continuation)
            root.vc_class = policy.vc_class_of(root.mtype)
            root.has_reservation = False
            self.out_bank.queue(policy.queue_class_of(root.mtype)).push(root)
            self.outstanding += 1
            self.stats.on_admitted(root, now)
            if self.tracer is not None:
                self.tracer.message_admitted(root, now)

    def on_transaction_complete(self) -> None:
        """Free the MSHR held by a completed transaction."""
        self.outstanding -= 1

    # ------------------------------------------------------------------
    # Introspection for detection
    # ------------------------------------------------------------------
    def frontier_destinations(self, out_cls: int) -> set[int]:
        """Destinations this NI's ``out_cls`` traffic is waiting to reach.

        The local wait-for frontier used by edge-chasing detection: every
        message parked in the output queue plus the packet currently
        occupying the class's injection channel.
        """
        deps = {msg.dst for msg in self.out_bank.queue(out_cls).entries}
        chan, _ = self._injection_pairs[out_cls]
        if chan.owner is not None:
            deps.add(chan.owner.dst)
        return deps
