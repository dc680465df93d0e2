"""Message types, the subordination relation, and the message unit.

The paper defines a *message dependency* as a coupling at a network
endpoint between two message types: ``m1 < m2`` ("m2 is subordinate to
m1") iff receiving an ``m1`` can cause the node to generate an ``m2`` for
some data transaction (Section 1).  The final type of a chain is the
*terminating* type; the number of types along a chain is the *chain
length*.

A :class:`Message` here corresponds to both the protocol-level message and
the network-level packet: the paper treats the two interchangeably for
deadlock purposes (footnote 1).  Each message carries its *continuation* —
the concrete subordinate messages its consumption must generate — so the
memory controller, the deflective backoff rewrite, and the progressive
rescue all operate on the same self-describing structure.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class NetClass(enum.IntEnum):
    """Coarse request/reply role of a message type.

    Used (a) by deflective recovery (DR) to map types onto its two logical
    networks, and (b) to pick default message lengths (requests are short
    headers, replies carry a cache line: 4 vs 20 flits in Table 2).
    """

    REQUEST = 0
    REPLY = 1


@dataclass(frozen=True)
class MessageType:
    """A protocol message type.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"m1"``, ``"ORQ"``, ``"BRP"``.
    index:
        Position in the protocol's total order (0-based).  Strict avoidance
        assigns one logical network per index.
    net_class:
        Request/reply role used by deflective recovery's two networks.
    flits:
        Packet length in flits for messages of this type.
    is_backoff:
        True only for backoff-reply (BRP) types that exist solely for
        deflective recovery and do not occupy a logical network of their
        own under strict avoidance.
    """

    name: str
    index: int
    net_class: NetClass
    flits: int
    is_backoff: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MessageType({self.name})"


# Monotonically increasing ids, shared across simulator instances.  Only
# used for hashing/diagnostics; determinism of a run never depends on the
# absolute values.
_uid_counter = itertools.count()


@dataclass(frozen=True)
class MessageSpec:
    """A not-yet-created subordinate message.

    ``continuation`` holds the specs this message must generate when it is
    consumed at ``dst``; a spec with an empty continuation describes a
    terminating message.
    """

    mtype: MessageType
    dst: int
    continuation: tuple["MessageSpec", ...] = ()

    def chain_length(self) -> int:
        """Types along the longest dependency chain rooted at this spec."""
        if not self.continuation:
            return 1
        return 1 + max(spec.chain_length() for spec in self.continuation)


class Message:
    """One routable message/packet instance.

    Network-facing state (flit progress, blocking) lives directly on the
    object so the simulator's hot loop avoids auxiliary lookups.
    """

    __slots__ = (
        "uid",
        "mtype",
        "src",
        "dst",
        "size",
        "continuation",
        "transaction",
        "created_cycle",
        "injected_cycle",
        "delivered_cycle",
        "consumed_cycle",
        "flits_sent",
        "flits_ejected",
        "vc_class",
        "dst_router",
        "blocked_since",
        "rescued",
        "deflected",
        "hops",
        "crossed_mask",
        "has_reservation",
    )

    def __init__(
        self,
        mtype: MessageType,
        src: int,
        dst: int,
        continuation: tuple[MessageSpec, ...] = (),
        transaction: "Transaction | None" = None,
        created_cycle: int = 0,
        size: int | None = None,
    ) -> None:
        self.uid = next(_uid_counter)
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.size = mtype.flits if size is None else size
        self.continuation = continuation
        self.transaction = transaction
        self.created_cycle = created_cycle
        self.injected_cycle = -1
        self.delivered_cycle = -1
        self.consumed_cycle = -1
        # Number of flits that have left the source NI so far.
        self.flits_sent = 0
        # Number of flits drained into the destination NI so far.
        self.flits_ejected = 0
        # Scheme-assigned virtual-channel class (logical network id).
        self.vc_class = 0
        # Destination router, cached by the fabric at injection so the
        # allocation loop never re-derives it (-1 = not yet resolved).
        self.dst_router = -1
        # Cycle since which the header has made no forward progress
        # (-1 = not blocked); used by PR's router-level timeout detection.
        self.blocked_since = -1
        self.rescued = False
        self.deflected = False
        self.hops = 0
        # Bitmask of dimensions whose dateline this packet has crossed;
        # drives the escape virtual-channel class (Dally-Seitz datelines).
        self.crossed_mask = 0
        # True if a slot in the destination input queue was preallocated
        # (MSHR-style) by the node that requested this message.
        self.has_reservation = False

    @property
    def is_terminating(self) -> bool:
        """True if consuming this message generates no subordinates."""
        return not self.continuation

    def chain_length(self) -> int:
        """Types along the longest chain rooted at this live message."""
        if not self.continuation:
            return 1
        return 1 + max(spec.chain_length() for spec in self.continuation)

    @property
    def label(self) -> str:
        """Uid-free label, stable across identically seeded runs (what
        traces and deadlock dumps name a message by)."""
        return f"{self.mtype.name} {self.src}->{self.dst} @{self.created_cycle}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(#{self.uid} {self.mtype.name} "
            f"{self.src}->{self.dst} {self.size}f)"
        )


@dataclass
class Transaction:
    """A complete data transaction: an ``m1`` and everything it spawns.

    ``outstanding`` counts live messages (created but not yet consumed)
    plus pending specs; it reaches zero exactly when the transaction
    completes.  Deflective recovery may grow the message count (the
    backoff reply is an *additional* message, Section 2.2).
    """

    uid: int
    requester: int
    home: int
    chain_length: int
    created_cycle: int
    outstanding: int = 0
    completed_cycle: int = -1
    messages_used: int = 0
    deflections: int = 0
    rescues: int = 0
    root: Message | None = field(default=None, repr=False)

    @property
    def completed(self) -> bool:
        return self.completed_cycle >= 0


def count_messages(spec_or_continuation) -> int:
    """Total messages described by a spec (itself plus all descendants)."""
    if isinstance(spec_or_continuation, MessageSpec):
        return 1 + sum(count_messages(c) for c in spec_or_continuation.continuation)
    return sum(count_messages(c) for c in spec_or_continuation)
