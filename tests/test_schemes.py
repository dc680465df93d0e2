"""Tests for the scheme factory, classifications and validity rules."""

import pytest

from repro import SimConfig
from repro.core.schemes import build_scheme, walk_specs
from repro.network.topology import Torus
from repro.protocol.chains import GENERIC_MSI, GENERIC_ORIGIN
from repro.protocol.message import Message, MessageSpec
from repro.protocol.transactions import PAT100, PAT271, PAT280, PAT721
from repro.traffic.synthetic import pattern_couplings
from repro.util.errors import ConfigurationError, SimulationError

TOPO = Torus((4, 4))


def make(scheme, pattern, **kwargs):
    cfg = SimConfig(scheme=scheme, pattern=pattern.name, **kwargs)
    return build_scheme(
        cfg, TOPO, pattern.protocol, pattern.types_used, pattern_couplings(pattern)
    )


class TestFactory:
    def test_unknown_scheme_rejected(self):
        cfg = SimConfig()
        object.__setattr__(cfg, "scheme", "BOGUS")
        with pytest.raises(ConfigurationError):
            build_scheme(cfg, TOPO, GENERIC_MSI, ("m1", "m4"), set())

    def test_all_schemes_constructible(self):
        for name, pattern, vcs in [
            ("SA", PAT100, 4),
            ("DR", PAT721, 4),
            ("PR", PAT721, 4),
            ("NONE", PAT721, 4),
        ]:
            s = make(name, pattern, num_vcs=vcs)
            assert s.name == name
            info = s.describe()
            assert info["scheme"] == name


class TestStrictAvoidance:
    def test_needs_two_escape_vcs_per_type(self):
        # Paper: SA infeasible at 4 VCs for chains longer than two.
        with pytest.raises(ConfigurationError):
            make("SA", PAT721, num_vcs=4)
        make("SA", PAT721, num_vcs=8)  # feasible

    def test_pat100_sa_at_4vcs_is_valid(self):
        s = make("SA", PAT100, num_vcs=4)
        assert s.vc_map.num_classes == 2

    def test_queue_and_vc_class_per_type(self):
        s = make("SA", PAT721, num_vcs=8)
        names = ["m1", "m2", "m3", "m4"]
        for i, n in enumerate(names):
            t = GENERIC_MSI.type_named(n)
            assert s.queue_class_of(t) == i
            assert s.vc_class_of(t) == i
        assert s.num_queue_classes == 4

    def test_no_reservations(self):
        s = make("SA", PAT721, num_vcs=8)
        assert not s.wants_reservation(GENERIC_MSI.type_named("m4"))

    def test_adaptive_iff_extra_channels(self):
        assert not make("SA", PAT721, num_vcs=8).routing.adaptive
        assert make("SA", PAT721, num_vcs=16).routing.adaptive

    def test_rejects_shared_queue_mode(self):
        with pytest.raises(ConfigurationError):
            make("SA", PAT721, num_vcs=8, queue_mode="shared")


class TestDeflectiveRecovery:
    def test_invalid_for_two_type_patterns(self):
        with pytest.raises(ConfigurationError):
            make("DR", PAT100, num_vcs=4)

    def test_two_logical_networks(self):
        s = make("DR", PAT721, num_vcs=4)
        assert s.vc_map.num_classes == 2
        assert s.num_queue_classes == 2

    def test_net_classification(self):
        s = make("DR", PAT721, num_vcs=4)
        assert s.vc_class_of(GENERIC_MSI.type_named("m1")) == 0
        assert s.vc_class_of(GENERIC_MSI.type_named("m2")) == 0
        assert s.vc_class_of(GENERIC_MSI.type_named("m3")) == 1
        assert s.vc_class_of(GENERIC_MSI.type_named("m4")) == 1
        assert s.vc_class_of(GENERIC_MSI.backoff) == 1

    def test_reply_types_reserved(self):
        s = make("DR", PAT721, num_vcs=4)
        assert s.wants_reservation(GENERIC_MSI.type_named("m4"))
        assert s.wants_reservation(GENERIC_MSI.backoff)
        assert not s.wants_reservation(GENERIC_MSI.type_named("m1"))

    def test_qa_mode_uses_per_type_queues(self):
        s = make("DR", PAT271, num_vcs=16, queue_mode="per-type")
        assert s.num_queue_classes == 4
        # BRP shares the terminating reply's queue under QA.
        assert s.queue_class_of(GENERIC_MSI.backoff) == 3

    def test_origin_mapping(self):
        s = make("DR", PAT280, num_vcs=4)
        assert s.vc_class_of(GENERIC_ORIGIN.type_named("FRQ")) == 0
        assert s.vc_class_of(GENERIC_ORIGIN.type_named("TRP")) == 1



class TestProgressiveRecovery:
    def test_single_shared_network(self):
        s = make("PR", PAT721, num_vcs=4)
        assert s.vc_map.num_classes == 1
        assert s.vc_map.escape == (None,)
        assert s.num_queue_classes == 1
        assert s.vc_map.availability(0) == 4

    def test_qa_mode(self):
        s = make("PR", PAT271, num_vcs=16, queue_mode="per-type")
        assert s.num_queue_classes == 4
        assert s.vc_class_of(GENERIC_MSI.type_named("m3")) == 0

    def test_no_reservations(self):
        s = make("PR", PAT721, num_vcs=4)
        assert not s.wants_reservation(GENERIC_MSI.type_named("m4"))


class TestMakeReservations:
    class FakeBank:
        def __init__(self, frees):
            from repro.endpoint.queues import MessageQueue

            self.queues = [MessageQueue(cap) for cap in frees]

        def queue(self, cls):
            return self.queues[cls]

    def test_all_or_nothing_rollback(self):
        """The test names the queue that cannot take every reservation
        and reserves nothing; reserving without it fails loudly."""
        s = make("DR", PAT721, num_vcs=4)
        m3 = GENERIC_MSI.type_named("m3")
        m4 = GENERIC_MSI.type_named("m4")
        bank = self.FakeBank([4, 1])  # reply queue has one slot
        cont = (
            MessageSpec(m3, 5, (MessageSpec(m4, 5),)),
        )
        # Two reply-class reservations needed at node 5, one slot free.
        assert s.reservation_blocker(5, bank, cont) == 1
        assert bank.queue(1).reserved == 0
        with pytest.raises(SimulationError):
            s.make_reservations(5, bank, cont)

    def test_reserves_only_for_own_node(self):
        s = make("DR", PAT721, num_vcs=4)
        m4 = GENERIC_MSI.type_named("m4")
        bank = self.FakeBank([4, 4])
        cont = (MessageSpec(m4, 9),)
        assert s.reservation_blocker(5, bank, cont) is None
        s.make_reservations(5, bank, cont)
        assert bank.queue(1).reserved == 0  # dst 9 != node 5

    @staticmethod
    def reservations_fit(s, node, bank, cont) -> bool:
        """Reserve everything ``cont`` asks for; False if one did not fit."""
        try:
            s.make_reservations(node, bank, cont)
        except SimulationError:
            return False
        return True

    @pytest.mark.parametrize("reply_slots", [0, 1, 2, 3])
    @pytest.mark.parametrize("per_type", [False, True])
    def test_can_reserve_predicts_make_reservations(self, reply_slots, per_type):
        """The one reservation test is None exactly when every
        reservation then fits, several specs per queue included, and
        has no side effects."""
        s = make("DR", PAT721, num_vcs=4,
                 queue_mode="per-type" if per_type else "auto")
        m3 = GENERIC_MSI.type_named("m3")
        m4 = GENERIC_MSI.type_named("m4")
        # per-net: m3 and m4 share the reply queue; per-type: one each.
        bank = self.FakeBank([4, 4, reply_slots, 1] if per_type
                             else [4, reply_slots])
        cont = (MessageSpec(m3, 5, (MessageSpec(m4, 5),)), MessageSpec(m4, 9))
        before = [q.reserved for q in bank.queues]
        predicted = s.reservation_blocker(5, bank, cont) is None
        assert [q.reserved for q in bank.queues] == before
        assert predicted == self.reservations_fit(s, 5, bank, cont)

    @pytest.mark.parametrize("reply_slots", [0, 1, 2])
    def test_vacating_head_slot_backs_one_reservation(self, reply_slots):
        """With the head of the reply queue about to pop, its slot
        counts: the test passes exactly when the reservations fit once
        the head is gone."""
        s = make("DR", PAT721, num_vcs=4)
        m3 = GENERIC_MSI.type_named("m3")
        m4 = GENERIC_MSI.type_named("m4")
        bank = self.FakeBank([4, reply_slots + 1])
        head_q = bank.queue(1)
        head_q.push(Message(m3, src=9, dst=5))  # reply_slots left free
        cont = (MessageSpec(m3, 5, (MessageSpec(m4, 5),)),)
        predicted = s.reservation_blocker(5, bank, cont, vacating=head_q)
        assert predicted == (None if reply_slots >= 1 else 1)
        head_q.pop()
        assert (predicted is None) == self.reservations_fit(s, 5, bank, cont)

    def test_schemes_without_reply_preallocation_always_can(self):
        s = make("PR", PAT721, num_vcs=4)
        bank = self.FakeBank([0])
        cont = (MessageSpec(GENERIC_MSI.type_named("m4"), 5),)
        assert s.reservation_blocker(5, bank, cont) is None
        s.make_reservations(5, bank, cont)
        assert bank.queue(0).reserved == 0


class TestWalkSpecs:
    def test_walks_all_depths(self):
        m2 = GENERIC_MSI.type_named("m2")
        m4 = GENERIC_MSI.type_named("m4")
        tree = (MessageSpec(m2, 1, (MessageSpec(m4, 2),)), MessageSpec(m4, 3))
        names = [s.mtype.name for s in walk_specs(tree)]
        assert names == ["m2", "m4", "m4"]
