"""DR recovery: Origin2000-style backoff deflection.

When the detector fires at a node's NI, the head of the stressed input
queue — a request whose consumption would generate further requests — is
taken off the queue and *deflected*: a backoff reply (BRP) carrying the
pending work is sent to the original requester, which then issues the
subordinate request(s) directly.  The dependency chain
``ORQ < FRQ < TRP`` becomes ``ORQ < BRP < FRQ < TRP`` (Figure 2), at the
cost of one additional message per recovered transaction; the paper's
"minimum recovery action" resolves exactly one message per detection
event (Section 4.3.1).

The BRP travels on the reply network, whose delivery is guaranteed by
the requester's preallocated reply slot; the node keeps/creates its own
reservations for any replies still owed to it along the deflected chain
(e.g. the home's FRP slot in four-type chains).
"""

from __future__ import annotations

from repro.core.detection import DetectorPair
from repro.core.detectors import build_detector
from repro.protocol.message import Message, NetClass


class DeflectionController:
    """DR's recovery act: deflect the stressed head of a fired site."""

    def __init__(self, scheme, engine) -> None:
        self.scheme = scheme
        self.engine = engine
        self.detector = build_detector(scheme, engine, require_request_child=True)
        scheme.detector = self.detector
        self.deflections = 0

    def recover(self, det: DetectorPair, now: int) -> bool:
        """Act on one fired detector (``scheme.act``): report it,
        deflect, re-arm.  False if nothing could be deflected yet (the
        detector stays fired)."""
        det.report_firing(self.scheme.tracer, now)
        if not self._try_deflect(det, now):
            return False
        det.reset(now)
        return True

    # ------------------------------------------------------------------
    def _try_deflect(self, det: DetectorPair, now: int) -> bool:
        ni = det.ni
        scheme = self.scheme
        in_q = ni.in_bank.queue(det.in_cls)
        head = in_q.peek()
        if head is None or not any(
            spec.mtype.net_class == NetClass.REQUEST for spec in head.continuation
        ):
            return False
        backoff_type = scheme.protocol.backoff
        out_q = ni.out_bank.queue(scheme.queue_class_of(backoff_type))
        # R3: keep slots reserved for replies still owed to this node
        # along the deflected chain (the home's FRP in 4-type chains).
        # The deflected head vacates its slot, which may back one of them.
        if out_q.free_slots <= 0 or scheme.reservation_blocker(
            ni.node, ni.in_bank, head.continuation, vacating=in_q
        ) is not None:
            return False

        in_q.pop()
        scheme.make_reservations(ni.node, ni.in_bank, head.continuation)
        brp = Message(
            backoff_type,
            src=ni.node,
            dst=head.src,
            continuation=head.continuation,
            transaction=head.transaction,
            created_cycle=now,
        )
        brp.vc_class = scheme.vc_class_of(backoff_type)
        brp.has_reservation = scheme.wants_reservation(backoff_type)
        out_q.push(brp)

        head.deflected = True
        head.consumed_cycle = now
        txn = head.transaction
        if txn is not None:
            # The deflected request is consumed (-1) but the BRP adds a
            # message (+1): outstanding is unchanged, the count grows.
            txn.deflections += 1
            txn.messages_used += 1
        self.deflections += 1
        scheme.deadlocks_detected += 1
        scheme.recoveries += 1
        stats = self.engine.stats
        stats.on_created(brp)
        stats.on_consumed(head, now)
        stats.on_deadlock(now, resolved=True)
        tracer = scheme.tracer
        if tracer is not None:
            tracer.deflection(ni.node, head, brp, det.since, now)
        return True
