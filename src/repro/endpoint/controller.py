"""The memory controller: the consumer/producer at each endpoint.

One controller per node services one message at a time from the NI input
queue bank (round-robin over queue classes).  Servicing a message takes
``service_time`` cycles when it generates subordinates (a directory or
owner action) and ``sink_time`` cycles when it is terminating (absorbing
a reply into an MSHR).

Per the paper's Section 3 assumptions, a message is taken up for service
*only if* the output queue(s) can hold all of its subordinate messages;
the output slots are claimed at service start so they cannot vanish
mid-service.  Reply-class input-queue slots the node is owed (MSHR
preallocation) are likewise reserved at service start — see
:meth:`repro.core.schemes.Scheme.make_reservations`.  One test,
:meth:`MemoryController._blocker`, decides a start before it pops, holds
and reserves, and deadlock dumps word its answer.

The controller also exposes a priority-service path used by progressive
recovery: a rescued message handed over from the deadlock message buffer
preempts the queue (after the current operation completes) and its
subordinate placement is decided by the recovery controller's callback
(output queue if space, otherwise the DMB — Figure 4).
"""

from __future__ import annotations

from repro.endpoint.queues import QueueBank
from repro.protocol.message import Message
from repro.util.errors import SimulationError


class MemoryController:
    """Endpoint message consumer/producer with a single service port."""

    def __init__(
        self,
        node: int,
        in_bank: QueueBank,
        out_bank: QueueBank,
        policy,
        stats,
    ) -> None:
        self.node = node
        self.in_bank = in_bank
        self.out_bank = out_bank
        self.policy = policy
        self.stats = stats
        self.current: Message | None = None
        #: Input queue class the current message came from (None for the
        #: rescue/priority path); lets detectors treat an in-progress
        #: service of the watched queue as progress rather than a stall.
        self.current_in_cls: int | None = None
        self.busy_until = 0
        self._rr = 0
        # Priority (rescue) service request: (message, completion callback).
        self._priority: tuple[Message, object] | None = None
        self._current_is_priority = False
        self.messages_serviced = 0
        #: fault hook (repro.faults): a stalled controller services
        #: nothing — the consumer-stall model of a wedged memory system.
        self.stalled = False
        #: telemetry hook (repro.telemetry.Tracer) or None.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.current is None

    def request_priority_service(self, msg: Message, callback) -> None:
        """Schedule a rescued message for service ahead of the queues.

        The current operation, if any, completes first (the paper's
        preemption rule).  ``callback(msg, subordinates, now)`` receives
        the instantiated subordinate messages for placement.
        """
        if self._priority is not None:  # pragma: no cover - guarded
            raise SimulationError("second concurrent priority service")
        self._priority = (msg, callback)

    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        if self.stalled:
            return
        if self.current is not None and now >= self.busy_until:
            self._complete(now)
        if self.current is None:
            self._select(now)

    # ------------------------------------------------------------------
    def _select(self, now: int) -> None:
        if self._priority is not None:
            msg, _cb = self._priority
            self.current = msg
            self.current_in_cls = None
            self._current_is_priority = True
            self.busy_until = now + self._duration(msg)
            return
        queues = self.in_bank.queues
        n = len(queues)
        rr = self._rr
        for i in range(n):
            cls = rr + i
            if cls >= n:
                cls -= n
            # Empty-queue fast path: _try_begin would peek None anyway.
            if queues[cls].entries and self._try_begin(cls, now):
                self._rr = (cls + 1) % n
                return

    def _duration(self, msg: Message) -> int:
        if msg.continuation:
            return self.policy.service_time
        return self.policy.sink_time

    def _blocker(self, queue, msg: Message) -> tuple[str, int] | None:
        """The service-start test (R2), no side effects: ``("output",
        out_cls)`` if an output class lacks a slot per subordinate,
        ``("reservation", in_cls)`` if the reply reservations do not fit
        (the head's slot counts: the start pops it first), else None."""
        if not msg.continuation:
            return None  # a terminating message needs nothing
        out_queues = self.out_bank.queues
        wanted = [self.policy.queue_class_of(s.mtype) for s in msg.continuation]
        for out_cls in wanted:
            if out_queues[out_cls].free_slots < wanted.count(out_cls):
                return "output", out_cls
        blocker = self.policy.reservation_blocker(
            self.node, self.in_bank, msg.continuation, vacating=queue
        )
        return None if blocker is None else ("reservation", blocker)

    def _try_begin(self, cls: int, now: int) -> bool:
        queue = self.in_bank.queue(cls)
        msg = queue.peek()
        if msg is None or self._blocker(queue, msg) is not None:
            return False
        queue.pop()
        # Claim an output slot for every subordinate, and (R2) the
        # reply slots this node is owed.
        out_queues = self.out_bank.queues
        for spec in msg.continuation:
            out_queues[self.policy.queue_class_of(spec.mtype)].hold_slot()
        self.policy.make_reservations(self.node, self.in_bank, msg.continuation)
        self.current = msg
        self.current_in_cls = cls
        self._current_is_priority = False
        self.busy_until = now + self._duration(msg)
        return True

    def head_waits_for(self, cls: int) -> str | None:
        """What keeps this controller, idle, from starting the head of
        input class ``cls`` (:meth:`_blocker`, worded for deadlock
        dumps).  None when it is busy, stalled or has no such head, or
        nothing local is in the head's way."""
        queue = self.in_bank.queue(cls)
        msg = queue.peek()
        if msg is None or self.current is not None or self.stalled:
            return None
        blocker = self._blocker(queue, msg)
        if blocker is None:
            return None
        kind, blocked = blocker
        what = "an output slot in" if kind == "output" else "a reservation into input"
        return f"{what} class {blocked}"

    # ------------------------------------------------------------------
    def _complete(self, now: int) -> None:
        msg = self.current
        self.current = None
        self.current_in_cls = None
        self.messages_serviced += 1
        subs = self.instantiate_subordinates(msg, now)
        if self._current_is_priority:
            _msg, callback = self._priority
            self._priority = None
            self._current_is_priority = False
            callback(msg, subs, now)
        else:
            for sub in subs:
                out_cls = self.policy.queue_class_of(sub.mtype)
                self.out_bank.queue(out_cls).commit(sub)
        self._account_consumption(msg, now)

    def instantiate_subordinates(self, msg: Message, now: int) -> list[Message]:
        """Create the subordinate messages of ``msg`` (not yet placed)."""
        subs: list[Message] = []
        for spec in msg.continuation:
            sub = Message(
                spec.mtype,
                src=self.node,
                dst=spec.dst,
                continuation=spec.continuation,
                transaction=msg.transaction,
                created_cycle=now,
            )
            sub.vc_class = self.policy.vc_class_of(spec.mtype)
            sub.has_reservation = self.policy.wants_reservation(spec.mtype)
            self.stats.on_created(sub)
            if self.tracer is not None:
                self.tracer.message_created(sub, now)
            subs.append(sub)
        return subs

    def _account_consumption(self, msg: Message, now: int) -> None:
        msg.consumed_cycle = now
        self.stats.on_consumed(msg, now)
        if self.tracer is not None:
            self.tracer.message_consumed(msg, now)
        txn = msg.transaction
        if txn is not None:
            txn.outstanding -= 1
            if txn.outstanding == 0 and not txn.completed:
                txn.completed_cycle = now
                self.stats.on_transaction_complete(txn, now)
