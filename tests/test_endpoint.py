"""Tests for the memory controller and network interface."""

import pytest

from repro import SimConfig
from repro.core.detection import DetectorPair
from repro.protocol.chains import GENERIC_MSI
from repro.protocol.message import Message, MessageSpec
from repro.sim.engine import Engine

M1 = GENERIC_MSI.type_named("m1")
M2 = GENERIC_MSI.type_named("m2")
M3 = GENERIC_MSI.type_named("m3")
M4 = GENERIC_MSI.type_named("m4")


def quiet_engine(**kwargs):
    defaults = dict(dims=(4, 4), scheme="PR", pattern="PAT721", load=0.0, seed=5)
    defaults.update(kwargs)
    return Engine(SimConfig(**defaults))


def pinned_dr_node(free, node=0):
    """A quiet DR engine whose ``node`` has exactly ``free`` reply
    slots left; the rest are reserved.  (engine, ni, reply queue,
    reservations pinned)."""
    e = quiet_engine(scheme="DR", pattern="PAT721")
    ni = e.interfaces[node]
    reply_q = ni.in_bank.queue(e.scheme.queue_class_of(M4))
    pinned = 0
    while reply_q.free_slots > free:
        reply_q.reserve_reply()
        pinned += 1
    return e, ni, reply_q, pinned


def count_notifies(*queues):
    """Record every mutation of ``queues`` (their ``notify`` hook)."""
    calls = []
    for q in queues:
        q.notify = lambda q=q: calls.append(q)
    return calls


def deliver_direct(engine, ni, msg):
    """Place a message straight into the NI input queue."""
    cls = engine.scheme.queue_class_of(msg.mtype)
    ni.in_bank.queue(cls).push(msg)


class TestMemoryController:
    def test_terminating_message_sinks_quickly(self):
        e = quiet_engine(sink_time=1)
        ni = e.interfaces[3]
        msg = Message(M4, src=0, dst=3)
        deliver_direct(e, ni, msg)
        e.run(5)
        assert msg.consumed_cycle > 0
        assert ni.controller.messages_serviced == 1

    def test_service_time_respected(self):
        e = quiet_engine(service_time=40)
        ni = e.interfaces[3]
        msg = Message(M1, src=0, dst=3, continuation=(MessageSpec(M4, 0),))
        deliver_direct(e, ni, msg)
        e.run(10)
        assert msg.consumed_cycle == -1  # still being serviced
        e.run(40)
        assert msg.consumed_cycle > 0

    def test_subordinates_created_on_completion(self):
        e = quiet_engine()
        ni = e.interfaces[3]
        msg = Message(
            M1, src=0, dst=3,
            continuation=(MessageSpec(M2, 7, (MessageSpec(M4, 0),)),),
        )
        deliver_direct(e, ni, msg)
        e.run(200)
        # The m2 was produced, injected, and delivered to node 7.
        assert e.stats.total.messages_delivered >= 1
        assert msg.consumed_cycle > 0

    def test_service_gated_on_output_space(self):
        e = quiet_engine(queue_capacity=2)
        ni = e.interfaces[3]
        out_cls = e.scheme.queue_class_of(M2)
        out_q = ni.out_bank.queue(out_cls)
        # Fill the output queue so the head cannot be serviced.
        filler1 = Message(M2, src=3, dst=9)
        filler2 = Message(M2, src=3, dst=10)
        out_q.push(filler1)
        out_q.push(filler2)
        # Saturate the injection path so the queue cannot drain: fill it
        # again as soon as the NI pulls a message into the channel.
        msg = Message(M1, src=0, dst=3, continuation=(MessageSpec(M2, 7),))
        deliver_direct(e, ni, msg)
        for _ in range(5):
            e.step()
            while out_q.free_slots > 0:
                out_q.push(Message(M2, src=3, dst=11))
        assert msg.consumed_cycle == -1  # blocked on output space

    def test_multi_subordinate_needs_space_for_all(self):
        e = quiet_engine(queue_capacity=2)
        ni = e.interfaces[3]
        out_cls = e.scheme.queue_class_of(M2)
        out_q = ni.out_bank.queue(out_cls)
        msg = Message(
            M1, src=0, dst=3,
            continuation=(MessageSpec(M2, 7), MessageSpec(M2, 8)),
        )
        deliver_direct(e, ni, msg)
        # Occupy the injection channel with a long packet so the output
        # queue cannot drain, then hold the queue at one free slot: two
        # subordinates never fit, so the head must not be taken up for
        # service (and no held slots may leak from failed attempts).
        blocker = Message(M2, src=3, dst=9, size=500)
        blocker.vc_class = 0
        e.fabric.start_injection(e.fabric.injection_channel(3, out_cls), blocker, 0)
        out_q.push(Message(M2, src=3, dst=9))
        for _ in range(6):
            e.step()
        assert out_q.free_slots == 1
        assert msg.consumed_cycle == -1
        assert out_q.held == 0


class TestAdmissionControl:
    def test_max_outstanding_limits_admission(self):
        e = quiet_engine(max_outstanding=2)
        ni = e.interfaces[0]
        for _ in range(5):
            msg = Message(M1, src=0, dst=3, continuation=(MessageSpec(M4, 0),))
            ni.enqueue_root(msg)
        e.run(3)
        assert ni.outstanding == 2
        assert len(ni.source_queue) == 3

    def test_admission_resumes_after_completion(self):
        e = quiet_engine(max_outstanding=1)
        ni = e.interfaces[0]
        from repro.protocol.transactions import PAT100

        for _ in range(2):
            txn = PAT100.build_transaction(0, 3, 9, e.now, length=2)
            ni.enqueue_root(txn.root)
        e.run(400)
        assert ni.outstanding == 0
        assert len(ni.source_queue) == 0

    def test_latency_includes_source_queue_wait(self):
        e = quiet_engine(max_outstanding=1)
        ni = e.interfaces[0]
        from repro.protocol.transactions import PAT100

        txns = [PAT100.build_transaction(0, 3, 9, 1, length=2) for _ in range(2)]
        for t in txns:
            ni.enqueue_root(t.root)
        e.run(500)
        lat0 = txns[0].root.delivered_cycle - txns[0].root.created_cycle
        lat1 = txns[1].root.delivered_cycle - txns[1].root.created_cycle
        assert lat1 > lat0  # second one waited for the first MSHR


class TestReservationsUnderDR:
    def test_injection_reserves_reply_slot(self):
        e = quiet_engine(scheme="DR", pattern="PAT721")
        ni = e.interfaces[0]
        from repro.protocol.transactions import PAT721

        txn = PAT721.build_transaction(0, 3, 9, 0, length=2)
        ni.enqueue_root(txn.root)
        e.run(2)
        reply_cls = e.scheme.queue_class_of(M4)
        assert ni.in_bank.queue(reply_cls).reserved == 1

    def test_reservation_consumed_by_reply(self):
        e = quiet_engine(scheme="DR", pattern="PAT721")
        ni = e.interfaces[0]
        from repro.protocol.transactions import PAT721

        txn = PAT721.build_transaction(0, 3, 9, 0, length=2)
        ni.enqueue_root(txn.root)
        e.run(600)
        assert txn.completed
        reply_cls = e.scheme.queue_class_of(M4)
        assert ni.in_bank.queue(reply_cls).reserved == 0

    def test_partial_reservation_failure_rolls_back(self):
        """Admission needing two reply slots with only one free must not
        claim any, and must succeed on retry."""
        e, ni, reply_q, pinned = pinned_dr_node(free=1)
        # A root owed two replies: the admission test finds one slot
        # short, so nothing is reserved.
        root = Message(
            M1, src=0, dst=3,
            continuation=(MessageSpec(M4, 0), MessageSpec(M4, 0)),
        )
        ni.enqueue_root(root)
        reserved_before = reply_q.reserved
        e.run(10)  # ten admission retries; a leak would accumulate
        assert len(ni.source_queue) == 1  # still waiting
        assert ni.outstanding == 0
        assert reply_q.reserved == reserved_before
        assert reply_q.free_slots == 1
        # The pinned reservations' replies arrive; the controller sinks
        # them, and the retried admission claims both reply slots.
        for _ in range(pinned):
            reply = Message(M4, src=3, dst=0)
            reply.has_reservation = True
            assert ni.try_reserve_delivery(reply)
            ni.deliver(reply, e.now)
        e.run(5)
        assert len(ni.source_queue) == 0
        assert ni.outstanding == 1
        assert reply_q.reserved == 2
        # Both replies come back, consume their reservations, and the
        # system drains cleanly.
        assert e.quiesce(max_cycles=20_000)
        assert reply_q.reserved == 0
        assert e.stats.total.messages_consumed == e.stats.total.messages_delivered

    def test_home_reserves_for_m3_in_l4_chain(self):
        e = quiet_engine(scheme="DR", pattern="PAT721")
        from repro.protocol.transactions import PAT721

        txn = PAT721.build_transaction(0, 3, 9, 0, length=4)
        e.interfaces[0].enqueue_root(txn.root)
        home = e.interfaces[3]
        m3_cls = e.scheme.queue_class_of(GENERIC_MSI.type_named("m3"))
        saw_reservation = False
        for _ in range(900):
            e.step()
            if home.in_bank.queue(m3_cls).reserved > 0:
                saw_reservation = True
        assert saw_reservation
        assert txn.completed
        assert home.in_bank.queue(m3_cls).reserved == 0


def home_head(home=3, requester=0):
    """A request at ``home`` forwarded to two owners, each of whom
    replies to the home: it owes ``home`` two reply reservations."""
    def forward(owner):
        return MessageSpec(M2, owner, (MessageSpec(M3, home, (MessageSpec(M4, requester),)),))

    return Message(M1, src=requester, dst=home,
                   continuation=(forward(7), forward(8)))


class TestBlockedAttemptsChangeNothing:
    """Each endpoint decision is tested before it acts: a blocked
    attempt mutates no queue, so it calls no queue's ``notify``."""

    def test_blocked_admission_notifies_nothing(self):
        e, ni, reply_q, _ = pinned_dr_node(free=1)
        ni.enqueue_root(Message(
            M1, src=0, dst=3,
            continuation=(MessageSpec(M4, 0), MessageSpec(M4, 0)),
        ))
        calls = count_notifies(reply_q, *ni.out_bank.queues)
        e.run(10)
        assert len(ni.source_queue) == 1
        assert calls == []

    def test_blocked_service_start_notifies_nothing(self):
        e, ni, reply_q, _ = pinned_dr_node(free=1, node=3)
        head = home_head()
        deliver_direct(e, ni, head)
        req_cls = e.scheme.queue_class_of(M1)
        calls = count_notifies(reply_q, *ni.out_bank.queues)
        e.run(10)
        assert ni.in_bank.queue(req_cls).peek() is head
        assert ni.controller.idle
        assert calls == []
        reply_cls = e.scheme.queue_class_of(M3)
        assert ni.controller.head_waits_for(req_cls) == (
            f"a reservation into input class {reply_cls}"
        )

    def test_blocked_deflection_notifies_nothing(self):
        e, ni, reply_q, _ = pinned_dr_node(free=1, node=3)
        head = home_head()
        deliver_direct(e, ni, head)
        req_cls = e.scheme.queue_class_of(M1)
        det = DetectorPair(ni=ni, in_cls=req_cls, out_cls=req_cls,
                           threshold=0, require_request_child=True)
        calls = count_notifies(*ni.in_bank.queues, *ni.out_bank.queues)
        for _ in range(10):
            assert not e.scheme.controller._try_deflect(det, e.now)
        assert ni.in_bank.queue(req_cls).peek() is head
        assert calls == []


class TestAdmissionTest:
    @pytest.mark.parametrize("reply_free", [0, 1, 2])
    @pytest.mark.parametrize("mshr_free", [0, 1])
    @pytest.mark.parametrize("out_free", [0, 1])
    def test_can_admit_is_true_exactly_when_admit_roots_admits(
            self, reply_free, mshr_free, out_free):
        e, ni, _, _ = pinned_dr_node(free=reply_free)
        out_q = ni.out_bank.queue(e.scheme.queue_class_of(M1))
        while out_q.free_slots > out_free:
            out_q.hold_slot()
        ni.outstanding = ni.max_outstanding - mshr_free
        assert not ni.can_admit()  # nothing to admit yet
        ni.enqueue_root(Message(
            M1, src=0, dst=3,
            continuation=(MessageSpec(M4, 0), MessageSpec(M4, 0)),
        ))
        predicted = ni.can_admit()
        ni._admit_roots(e.now)
        assert predicted == (not ni.source_queue)
        assert predicted == bool(reply_free >= 2 and mshr_free and out_free)
