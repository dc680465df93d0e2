"""Tests for NI message queues and reservation accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.endpoint.queues import MessageQueue, QueueBank
from repro.protocol.chains import GENERIC_MSI
from repro.protocol.message import Message
from repro.util.errors import SimulationError

M1 = GENERIC_MSI.type_named("m1")
M4 = GENERIC_MSI.type_named("m4")


def msg(reserved=False):
    m = Message(M1, 0, 1)
    m.has_reservation = reserved
    return m


class TestBasicOps:
    def test_claim_commit_pop(self):
        q = MessageQueue(2)
        m = msg()
        assert q.try_claim_slot(m)
        assert q.held == 1 and len(q) == 0
        q.commit(m)
        assert q.held == 0 and len(q) == 1
        assert q.peek() is m
        assert q.pop() is m
        assert q.peek() is None

    def test_claim_fails_when_full(self):
        q = MessageQueue(1)
        assert q.try_claim_slot(msg())
        assert not q.try_claim_slot(msg())

    def test_push_and_free_slots(self):
        q = MessageQueue(3)
        q.push(msg())
        assert q.free_slots == 2
        assert not q.admission_full
        q.push(msg())
        q.push(msg())
        assert q.admission_full

    def test_version_advances_on_push_and_pop(self):
        q = MessageQueue(2)
        v0 = q.version
        q.push(msg())
        assert q.version > v0
        v1 = q.version
        q.pop()
        assert q.version > v1

    def test_hold_release(self):
        """A held slot is given up only by the message it was held for:
        a hold in a full queue is a caller's error, not a refusal."""
        q = MessageQueue(1)
        q.hold_slot()
        with pytest.raises(SimulationError):
            q.hold_slot()
        assert q.held == 1
        q.commit(msg())
        q.pop()
        q.hold_slot()
        assert q.held == 1

    def test_push_held_converts(self):
        q = MessageQueue(1)
        q.hold_slot()
        q.commit(msg())
        assert len(q) == 1 and q.held == 0


class TestReservations:
    def test_reserved_arrival_uses_pool(self):
        q = MessageQueue(1)
        q.reserve_reply()
        # Pool exhausts admission for unreserved messages...
        assert not q.try_claim_slot(msg())
        # ...but the reserved arrival gets in.
        assert q.try_claim_slot(msg(reserved=True))
        assert q.reserved == 0 and q.held == 1

    def test_reserve_fails_when_no_space(self):
        q = MessageQueue(1)
        q.push(msg())
        with pytest.raises(SimulationError):
            q.reserve_reply()
        assert q.reserved == 0

    def test_release_reservation(self):
        """A reservation is given up only by the reply it was made for:
        claimed, committed and consumed, its slot is free again."""
        q = MessageQueue(1)
        q.reserve_reply()
        reply = msg(reserved=True)
        assert q.try_claim_slot(reply)
        q.commit(reply)
        assert q.pop() is reply
        assert q.reserved == 0
        assert q.try_claim_slot(msg())

    def test_reserved_message_falls_back_to_free_slot(self):
        q = MessageQueue(2)
        # No reservation pool, but free space: still admitted.
        assert q.try_claim_slot(msg(reserved=True))


class TestQueueBank:
    def test_bank_classes_independent(self):
        bank = QueueBank(3, 2)
        bank.queue(0).push(msg())
        assert bank.queue(1).free_slots == 2
        assert bank.total_occupancy() == 1
        assert bank.num_classes == 3


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 8),
    ops=st.lists(st.sampled_from(["claim", "claim_r", "commit", "reserve", "pop"]),
                 max_size=60),
)
def test_accounting_invariants(capacity, ops):
    """Random op sequences never violate slot accounting.

    Invariants: occupied + held + reserved <= capacity at all times; a
    reserved arrival always succeeds while the pool is non-empty.
    """
    q = MessageQueue(capacity)
    claimed = []
    for op in ops:
        if op == "claim":
            q.try_claim_slot(msg()) and claimed.append(msg())
        elif op == "claim_r":
            had_pool = q.reserved > 0
            ok = q.try_claim_slot(msg(reserved=True))
            if had_pool:
                assert ok, "reserved arrival must always sink"
            if ok:
                claimed.append(msg(reserved=True))
        elif op == "commit":
            if q.held > 0:
                q.commit(claimed.pop() if claimed else msg())
        elif op == "reserve":
            if q.free_slots > 0:
                q.reserve_reply()
            else:
                with pytest.raises(SimulationError):
                    q.reserve_reply()
        elif op == "pop":
            if len(q):
                q.pop()
        assert len(q.entries) + q.held + q.reserved <= q.capacity
        assert q.held >= 0 and q.reserved >= 0
