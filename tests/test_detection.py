"""Tests for the three-condition endpoint deadlock detector."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import DetectorPair, TimeoutSite, build_detectors
from repro.protocol.message import Message
from repro.protocol.transactions import PAT721
from tests.helpers import build_engine, stall_endpoint


def fresh_detector(engine, node, in_cls=0, out_cls=0, threshold=25,
                   require_request_child=False):
    return DetectorPair(
        ni=engine.interfaces[node],
        in_cls=in_cls,
        out_cls=out_cls,
        threshold=threshold,
        require_request_child=require_request_child,
    )


def make_pat721_txn(engine, home, length=3):
    def factory(i):
        req = (home + 1 + i) % engine.topology.num_nodes
        third = (home + 5 + i) % engine.topology.num_nodes
        if third in (home, req):
            third = (third + 1) % engine.topology.num_nodes
        return PAT721.build_transaction(req, home, third, engine.now, length=length)

    return factory


class TestDetectorFiring:
    def test_fires_after_threshold_under_stall(self):
        e = build_engine(scheme="PR")
        stall_endpoint(e, node=5, make_txn=make_pat721_txn(e, 5))
        det = fresh_detector(e, 5, threshold=25)
        fired_at = None
        for cycle in range(1, 60):
            if det.step(cycle):
                fired_at = cycle
                break
        assert fired_at is not None
        assert fired_at > 25  # condition must persist beyond T

    def test_does_not_fire_below_threshold(self):
        e = build_engine(scheme="PR")
        stall_endpoint(e, node=5, make_txn=make_pat721_txn(e, 5))
        det = fresh_detector(e, 5, threshold=25)
        assert not any(det.step(c) for c in range(1, 25))

    def test_no_fire_when_queues_not_full(self):
        e = build_engine(scheme="PR")
        det = fresh_detector(e, 5)
        assert not any(det.step(c) for c in range(1, 100))

    def test_progress_resets_episode(self):
        e = build_engine(scheme="PR")
        stall_endpoint(e, node=5, make_txn=make_pat721_txn(e, 5))
        det = fresh_detector(e, 5, threshold=25)
        for cycle in range(1, 20):
            det.step(cycle)
        # A pop (progress) resets the stall clock via the version counter.
        ni = e.interfaces[5]
        popped = ni.in_bank.queue(0).pop()
        assert not any(det.step(c) for c in range(20, 44))
        ni.in_bank.queue(0).push(popped)  # full again: clock restarts
        assert not det.step(45)
        assert any(det.step(c) for c in range(46, 90))

    def test_terminating_head_is_ineligible(self):
        e = build_engine(scheme="PR")
        stall_endpoint(e, node=5, make_txn=make_pat721_txn(e, 5))
        ni = e.interfaces[5]
        q = ni.in_bank.queue(0)
        # Replace the head with a terminating message.
        from repro.protocol.chains import GENERIC_MSI
        from repro.protocol.message import Message

        q.entries[0] = Message(GENERIC_MSI.type_named("m4"), src=0, dst=5)
        det = fresh_detector(e, 5)
        assert not any(det.step(c) for c in range(1, 80))

    def test_request_child_filter(self):
        # Length-2 chains (m1 -> m4) have no request-class subordinate:
        # the DR detector (require_request_child) must not fire.
        e = build_engine(scheme="PR")
        stall_endpoint(e, node=5, make_txn=make_pat721_txn(e, 5, length=2))
        strict = fresh_detector(e, 5, require_request_child=True)
        lax = fresh_detector(e, 5, require_request_child=False)
        assert not any(strict.step(c) for c in range(1, 80))
        # The PR-style detector does fire (head is non-terminating).
        assert any(lax.step(c) for c in range(1, 80))

    def test_mc_service_counts_as_progress(self):
        e = build_engine(scheme="PR")
        stall_endpoint(e, node=5, make_txn=make_pat721_txn(e, 5))
        det = fresh_detector(e, 5)
        # Pretend the MC is busy servicing from this queue class.
        mc = e.interfaces[5].controller
        mc.current = object()
        mc.current_in_cls = 0
        assert not any(det.step(c) for c in range(1, 80))
        mc.current = None
        mc.current_in_cls = None


class TestBuildDetectors:
    def test_one_detector_per_ni_per_pair(self):
        e = build_engine(scheme="PR")
        dets = build_detectors(
            e.scheme, e, {("m1", "m2"), ("m2", "m3")}, require_request_child=False
        )
        # PR shares a single queue class: both couplings collapse to one.
        assert len(dets) == e.topology.num_nodes

    def test_dr_filters_reply_children(self):
        e = build_engine(scheme="DR")
        dets = build_detectors(
            e.scheme, e, {("m1", "m2"), ("m3", "m4")}, require_request_child=True
        )
        # Only the (request-in, request-out) pair survives.
        assert len(dets) == e.topology.num_nodes
        assert all(d.in_cls == 0 and d.out_cls == 0 for d in dets)


#: one queue event: (what, which queue, message kind)
_EVENT = st.tuples(
    st.sampled_from(["push", "pop", "reserve", "arrive", "serve", "finish"]),
    st.sampled_from(["in", "out"]),
    st.sampled_from(["request", "terminating"]),
)
#: one cycle: its queue events, then the recovery act on a fired site
_CYCLE = st.tuples(
    st.lists(_EVENT, max_size=3),
    st.sampled_from([None, "count", "recover"]),
)


class TestLazyUpdateContract:
    """What the vector backend's lazy detector bank relies on.

    ``update`` called only on cycles after a queue ``notify`` or a
    change of ``controller.current`` leaves ``armed``,
    ``episode_counted`` and ``fired`` as calling it every cycle does,
    and ``since`` too whenever the site is armed (a disarmed site's
    ``since`` is the one value the lazy copy lets go stale, and nothing
    reads it).
    """

    @settings(max_examples=150, deadline=None)
    @given(
        cycles=st.lists(_CYCLE, min_size=1, max_size=60),
        site_class=st.sampled_from([DetectorPair, TimeoutSite]),
        threshold=st.integers(0, 6),
        require_request_child=st.booleans(),
    )
    def test_lazy_updates_agree_with_every_cycle(
        self, cycles, site_class, threshold, require_request_child
    ):
        e = build_engine(scheme="PR", queue_capacity=3)
        ni = e.interfaces[5]
        queues = {"in": ni.in_bank.queue(0), "out": ni.out_bank.queue(0)}
        mc = ni.controller
        eager, lazy = (
            site_class(ni=ni, in_cls=0, out_cls=0, threshold=threshold,
                       require_request_child=require_request_child)
            for _ in range(2)
        )
        notified = [True]  # the bank starts all-dirty
        for q in queues.values():
            q.notify = lambda: notified.__setitem__(0, True)
        txn = make_pat721_txn(e, 5)
        terminating = e.protocol.types[-1]
        for now, (events, act) in enumerate(cycles, 1):
            current = mc.current
            for what, which, kind in events:
                q = queues[which]
                if what == "push" and q.free_slots > 0:
                    q.push(txn(now).root if kind == "request"
                           else Message(terminating, src=0, dst=5))
                elif what == "pop" and q.entries:
                    q.pop()
                elif what == "reserve" and q.free_slots > 0:
                    q.reserve_reply()
                elif what == "arrive" and q.reserved:
                    # the reply a reservation was made for: its claim
                    # spends the reservation, its commit queues it
                    reply = Message(terminating, src=0, dst=5)
                    reply.has_reservation = True
                    q.try_claim_slot(reply)
                    q.commit(reply)
                elif what == "serve":
                    mc.current = object()
                    mc.current_in_cls = 0 if kind == "request" else None
                elif what == "finish":
                    mc.current = mc.current_in_cls = None
            eager.update(now)
            if notified[0] or mc.current is not current:
                notified[0] = False
                lazy.update(now)
            assert lazy.armed == eager.armed
            assert lazy.episode_counted == eager.episode_counted
            assert lazy.fired(now) == eager.fired(now)
            if eager.armed:
                assert lazy.since == eager.since
            if act and eager.fired(now):
                for det in (eager, lazy):
                    det.episode_counted = True
                if act == "recover" and queues["in"].entries:
                    queues["in"].pop()
                    for det in (eager, lazy):
                        det.reset(now)
