"""Scenario tests tied to specific claims in the paper's text."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimConfig
from repro.core.token import Token
from repro.protocol.chains import GENERIC_MSI
from repro.protocol.message import Message, MessageSpec, Transaction
from repro.protocol.transactions import PAT721
from repro.sim.engine import Engine
from tests.helpers import build_engine, record_transactions, stall_endpoint

M1 = GENERIC_MSI.type_named("m1")
M2 = GENERIC_MSI.type_named("m2")
M4 = GENERIC_MSI.type_named("m4")


class TestFigure1Ring:
    """Figure 1: separating request/reply networks on a ring avoids the
    cycle but halves per-message channel availability."""

    def test_sa_on_ring_partitions_channels(self):
        e = build_engine(dims=(4,), scheme="SA", pattern="PAT100",
                         num_vcs=4, load=0.0)
        # Two logical networks, one escape pair each, nothing shared.
        assert e.scheme.vc_map.num_classes == 2
        assert e.scheme.vc_map.availability(0) == 1

    def test_pr_on_ring_shares_everything(self):
        e = build_engine(dims=(4,), scheme="PR", pattern="PAT100",
                         num_vcs=4, load=0.0)
        assert e.scheme.vc_map.availability(0) == 4

    @pytest.mark.parametrize("scheme", ["SA", "PR"])
    def test_ring_traffic_flows(self, scheme):
        e = build_engine(dims=(4,), scheme=scheme, pattern="PAT100",
                         num_vcs=4, load=0.01, seed=2)
        w = e.run_measured(500, 1500)
        assert w.messages_delivered > 30
        assert e.quiesce(max_cycles=50_000)


class TestAppendixCase4:
    """Lemma Case 4: a rescued message generating *several* subordinates
    that all fail to enter the output queue — the token is reused for
    each before returning."""

    def test_multi_subordinate_rescue(self):
        e = build_engine(scheme="PR")
        home, nodes = 5, e.topology.num_nodes
        scheme = e.scheme
        ni = e.interfaces[home]

        # Head message with two request-class subordinates (like a
        # two-sharer invalidation).
        txn = Transaction(uid=991, requester=6, home=home, chain_length=3,
                          created_cycle=0)
        head = Message(
            M1, src=6, dst=home,
            continuation=(MessageSpec(M2, 9), MessageSpec(M2, 10)),
            transaction=txn,
        )
        txn.root = head
        txn.outstanding = 3
        txn.messages_used = 3
        head.vc_class = 0
        q = ni.in_bank.queue(0)
        q.push(head)

        # Fill the rest of the input queue and wedge the output side.
        def filler_txn(i):
            req = (home + 1 + i) % nodes
            if req == home:
                req = (req + 1) % nodes
            third = (home + 6 + i) % nodes
            while third in (home, req):
                third = (third + 1) % nodes
            return PAT721.build_transaction(req, home, third, 0, length=3)

        stall_endpoint(e, home, filler_txn)

        e.run(800)
        ctl = e.scheme.controller
        assert ctl.rescues >= 1
        assert head.consumed_cycle > 0
        # Both subordinates reached their destinations with no extras.
        assert txn.messages_used == 3
        assert ctl.token.state == Token.CIRCULATING
        e.run(2000)
        assert txn.completed


class TestSingleTokenUnderPressure:
    def test_many_wedged_nodes_resolved_sequentially(self):
        # Several NIs deadlocked at once: the single token must visit and
        # rescue them one at a time (Section 3: "only one
        # message-dependent deadlock can be resolved at a time").
        e = build_engine(scheme="PR")
        nodes = e.topology.num_nodes
        homes = (3, 9, 14)
        for home in homes:
            def factory(i, home=home):
                req = (home + 1 + i) % nodes
                if req == home:
                    req = (req + 1) % nodes
                third = (home + 7 + i) % nodes
                while third in (home, req):
                    third = (third + 1) % nodes
                return PAT721.build_transaction(req, home, third, 0, length=3)

            stall_endpoint(e, home, factory)
        e.run(3000)
        ctl = e.scheme.controller
        assert ctl.ni_captures >= len(homes)
        assert ctl.token.state == Token.CIRCULATING


@settings(max_examples=12, deadline=None)
@given(
    dims=st.sampled_from([(4,), (2, 2), (3, 3), (4, 4)]),
    scheme=st.sampled_from(["PR", "NONE"]),
    seed=st.integers(0, 50),
)
def test_conservation_property(dims, scheme, seed):
    """Random light-load runs always drain completely: every message
    injected is delivered exactly once and consumed exactly once."""
    e = Engine(SimConfig(dims=dims, scheme=scheme, pattern="PAT721",
                         load=0.004, seed=seed))
    txns = record_transactions(e)
    e.run(600)
    assert e.quiesce(max_cycles=80_000)
    total = e.stats.total
    assert total.messages_consumed == total.messages_delivered
    assert len(txns) == e.traffic.generated
    for txn in txns:
        assert txn.completed
