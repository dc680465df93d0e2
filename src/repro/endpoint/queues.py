"""NI message queues with reservation accounting.

Each network interface has an input and an output queue *bank*.  A bank
holds one :class:`MessageQueue` per queue class; how message types map to
classes is the scheme's decision:

* shared — one queue for every type (PR's default; maximal sharing),
* per-net — one request + one reply queue (DR / Origin2000),
* per-type — one queue per message type (SA always; the "QA" endpoint
  configuration of Figure 11 when applied to DR/PR).

Slots are accounted in three pools: ``occupied`` (committed messages),
``held`` (messages currently draining in from the network, slot claimed
at header time), and ``reserved`` (MSHR-style preallocations for replies
the node is still owed — the mechanism with which the Origin2000 strictly
avoids deadlock on its reply network, Section 2.2, and with which the
paper's Section 3 assumes subordinate messages can always sink).

Callers test before they mutate (``can_admit``, ``_blocker``,
``reservation_blocker``), so ``reserve_reply`` and ``hold_slot`` raise on
a full queue, as ``push`` does; ``entries + held + reserved <= capacity``
holds at every instant, and only this module writes ``held``/``reserved``.
"""

from __future__ import annotations

from collections import deque

from repro.protocol.message import Message
from repro.util.errors import SimulationError


class MessageQueue:
    """A bounded FIFO of messages with held/reserved slot accounting."""

    __slots__ = ("capacity", "entries", "held", "reserved", "version",
                 "notify")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: deque[Message] = deque()
        #: Slots claimed by packets currently draining from the network.
        self.held = 0
        #: Slots preallocated for expected reply-class messages.
        self.reserved = 0
        #: Bumped on every push/pop; lets detectors observe progress.
        self.version = 0
        #: Optional hook called after *any* change to entries/held/
        #: reserved (not just version bumps).  The vector backend uses it
        #: to keep its kernel-side slot mirror and its lazy detector bank
        #: in sync; None (the default) costs one branch per mutation.
        self.notify = None

    # -- capacity -------------------------------------------------------
    @property
    def free_slots(self) -> int:
        """Slots available to *unreserved* newcomers."""
        return self.capacity - len(self.entries) - self.held - self.reserved

    @property
    def admission_full(self) -> bool:
        """True when no further unreserved message could be admitted."""
        return self.free_slots <= 0

    @property
    def occupancy(self) -> int:
        return len(self.entries) + self.held

    # -- ejection-side reservation (header reaches the delivery port) ---
    def try_claim_slot(self, msg: Message) -> bool:
        """Claim a slot for a packet about to drain from the network.

        Messages backed by an MSHR reservation draw from the reserved
        pool; everything else needs a genuinely free slot.
        """
        if msg.has_reservation and self.reserved > 0:
            self.reserved -= 1
        elif self.free_slots <= 0:
            return False
        self.held += 1
        if self.notify is not None:
            self.notify()
        return True

    def commit(self, msg: Message) -> None:
        """A held slot becomes a queued message: a delivery's tail flit
        drained, or a service produced the subordinate it held for."""
        if self.held <= 0:  # pragma: no cover - guarded
            raise SimulationError("commit without a held slot")
        self.held -= 1
        self.entries.append(msg)
        self.version += 1
        if self.notify is not None:
            self.notify()

    # -- reply reservations (MSHR preallocation) -------------------------
    def reserve_reply(self) -> None:
        """Reserve a slot for a reply this node is owed; the caller has
        checked that one is free."""
        if self.free_slots <= 0:
            raise SimulationError("reservation in a full queue")
        self.reserved += 1
        if self.notify is not None:
            self.notify()

    # -- plain queue ops --------------------------------------------------
    def push(self, msg: Message) -> None:
        """Append a locally produced message (MC output, BRP, re-issue)."""
        if self.free_slots <= 0:  # pragma: no cover - guarded by callers
            raise SimulationError("push into a full queue")
        self.entries.append(msg)
        self.version += 1
        if self.notify is not None:
            self.notify()

    def hold_slot(self) -> None:
        """Claim a slot for a message that will be produced shortly.

        Used by the memory controller at service *start* so that the
        output space checked for subordinates cannot vanish while the
        service is in progress; the caller has checked that it fits.
        """
        if self.free_slots <= 0:
            raise SimulationError("hold in a full queue")
        self.held += 1
        if self.notify is not None:
            self.notify()

    def peek(self) -> Message | None:
        return self.entries[0] if self.entries else None

    def pop(self) -> Message:
        self.version += 1
        msg = self.entries.popleft()
        if self.notify is not None:
            self.notify()
        return msg

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MessageQueue(occ={len(self.entries)} held={self.held} "
            f"rsvd={self.reserved}/{self.capacity})"
        )


class QueueBank:
    """A set of message queues indexed by queue class."""

    __slots__ = ("queues",)

    def __init__(self, num_classes: int, capacity: int) -> None:
        self.queues = [MessageQueue(capacity) for _ in range(num_classes)]

    def queue(self, cls: int) -> MessageQueue:
        return self.queues[cls]

    @property
    def num_classes(self) -> int:
        return len(self.queues)

    def total_occupancy(self) -> int:
        return sum(q.occupancy for q in self.queues)

    def __iter__(self):
        return iter(self.queues)
