"""The invariant layer: conservation, ledgers, watchdog, quiesce dumps.

Each test corrupts (or wedges) a live engine in one specific way and
asserts that the corresponding check catches exactly that corruption —
the checks exist so that a regression in detection/recovery fails loudly
instead of shifting a throughput curve.
"""

import pytest

from repro.config import SimConfig
from repro.faults import FaultSpec
from repro.protocol.message import Message
from repro.sim.engine import Engine
from repro.sim.invariants import (
    InvariantChecker,
    QuiesceResult,
    capture_dump,
    conservation_delta,
    format_dump,
    live_message_uids,
)
from repro.util.errors import InvariantViolation, LivenessError


def busy_engine(**kwargs) -> Engine:
    defaults = dict(dims=(4, 4), scheme="PR", pattern="PAT271", num_vcs=4,
                    load=0.012, seed=7)
    defaults.update(kwargs)
    e = Engine(SimConfig(**defaults))
    e.run(800)
    return e


def checker(engine, **kwargs) -> InvariantChecker:
    return InvariantChecker(engine, **kwargs)


def some_populated_queue(engine):
    for ni in engine.interfaces:
        for bank in (ni.in_bank, ni.out_bank):
            for q in bank:
                if q.entries:
                    return q
    raise AssertionError("no populated queue at this load")  # pragma: no cover


class TestConservation:
    @pytest.mark.parametrize("scheme,pattern,vcs,load", [
        ("SA", "PAT721", 8, 0.012),
        ("DR", "PAT271", 4, 0.018),
        ("PR", "PAT271", 4, 0.018),  # heavy: rescues exercise DMB + lane
    ])
    def test_healthy_runs_balance_mid_flight(self, scheme, pattern, vcs, load):
        e = busy_engine(scheme=scheme, pattern=pattern, num_vcs=vcs, load=load)
        e.run(3200)  # mid-run, traffic still in the network
        assert conservation_delta(e) == 0
        assert len(live_message_uids(e)) > 0

    def test_killed_message_is_lost(self):
        e = busy_engine()
        chk = checker(e)
        some_populated_queue(e).entries.popleft()  # silently kill one
        with pytest.raises(InvariantViolation, match="1 message\\(s\\) lost"):
            chk.check_now(e.now)

    def test_conjured_message_is_duplicated(self):
        e = busy_engine()
        chk = checker(e)
        q = some_populated_queue(e)
        ghost = Message(q.entries[0].mtype, src=0, dst=1)  # no on_created
        q.entries.append(ghost)
        with pytest.raises(InvariantViolation, match="duplicated"):
            chk.check_now(e.now)

    def test_baseline_absorbs_hand_stuffed_state(self):
        # Tests (and scenarios) push messages directly into queues; a
        # checker attached afterwards must still balance.
        e = busy_engine()
        q = some_populated_queue(e)
        q.entries.append(Message(q.entries[0].mtype, src=0, dst=1))
        chk = checker(e)  # baseline snapshots the ghost
        chk.check_now(e.now)  # no raise


class TestLedgers:
    def test_occupancy_ledger_divergence(self):
        e = busy_engine()
        chk = checker(e)
        e.fabric._occ[0] += 1
        with pytest.raises(InvariantViolation, match="occupancy ledger"):
            chk.check_now(e.now)

    def test_negative_slot_accounting(self):
        e = busy_engine()
        chk = checker(e)
        e.interfaces[3].in_bank.queue(0).held = -1
        with pytest.raises(InvariantViolation, match="negative slot"):
            chk.check_now(e.now)

    def test_oversubscribed_queue(self):
        e = busy_engine()
        chk = checker(e)
        q = e.interfaces[3].in_bank.queue(0)
        q.reserved = q.capacity + 1
        with pytest.raises(InvariantViolation, match="oversubscribed"):
            chk.check_now(e.now)

    def test_held_token_without_holder(self):
        e = busy_engine()
        chk = checker(e)
        token = e.scheme.controller.token
        token.state = token.HELD
        token.holder = None
        with pytest.raises(InvariantViolation, match="no holder"):
            chk.check_now(e.now)

    def test_violation_carries_a_dump(self):
        e = busy_engine()
        chk = checker(e)
        e.fabric._occ[0] += 1
        with pytest.raises(InvariantViolation) as excinfo:
            chk.check_now(e.now)
        dump = excinfo.value.dump
        assert dump["cycle"] == e.now and dump["scheme"] == "PR"
        assert dump["reason"].startswith("invariant:")


class TestWatchdog:
    def _wedge(self, e):
        """Freeze every resource so nothing can ever move again."""
        e.fabric.stalled_links.update(link.lid for link in e.topology.links)
        e.fabric.stalled_ejects.update(range(e.topology.num_nodes))
        for ni in e.interfaces:
            ni.controller.stalled = True
        e.traffic.load = 0.0

    def test_total_wedge_raises_liveness_error(self):
        e = busy_engine(watchdog_timeout=500)
        self._wedge(e)
        with pytest.raises(LivenessError) as excinfo:
            e.run(5000)
        dump = excinfo.value.dump
        assert "liveness watchdog" in dump["reason"]
        assert dump["interfaces"]  # names the resources holding messages
        assert any(info["controller"]["stalled"]
                   for info in dump["interfaces"].values())
        # Wedged, not corrupted: every message is still accounted for.
        assert dump["conservation"]["delta"] == 0
        assert dump["conservation"]["live"] > 0

    def test_idle_system_never_trips(self):
        e = Engine(SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271",
                             num_vcs=4, load=0.0, seed=7,
                             watchdog_timeout=100))
        e.run(2000)  # empty throughout: idle is not death

    def test_drained_system_never_trips(self):
        e = busy_engine(watchdog_timeout=400)
        e.traffic.load = 0.0
        assert e.quiesce(100_000)
        e.run(2000)  # drained and idle afterwards

    def test_token_circulation_alone_is_not_progress(self):
        # PR's token keeps hopping stops even when the network is dead;
        # the watchdog must see through that, or a wedged PR run spins
        # forever looking "alive".
        e = busy_engine(watchdog_timeout=500)
        self._wedge(e)
        laps_before = e.scheme.controller.token.laps
        with pytest.raises(LivenessError):
            e.run(5000)
        assert e.scheme.controller.token.laps > laps_before


class TestQuiesce:
    def test_truthy_on_clean_drain(self):
        e = busy_engine()
        e.traffic.load = 0.0
        result = e.quiesce(100_000)
        assert result and result.ok
        assert result.dump is None
        assert repr(result) == "QuiesceResult(ok=True)"

    def test_failure_names_the_holding_resources(self):
        e = busy_engine(faults=(
            FaultSpec("consumer-stall", target=5, start=0),))  # permanent
        e.traffic.load = 0.0
        result = e.quiesce(3000)
        assert not result
        assert result.dump["reason"].startswith("quiesce failed")
        assert 5 in result.dump["interfaces"]
        assert result.dump["interfaces"][5]["controller"]["stalled"]
        rendered = repr(result)
        assert "NI 5" in rendered and "stalled" in rendered


class TestDumps:
    def test_dump_is_json_able_and_renders(self):
        import json

        e = busy_engine(faults=(
            FaultSpec("consumer-stall", target=5, start=0, duration=4000),))
        e.run(1200)
        dump = capture_dump(e, reason="probe")
        json.dumps(dump)  # plain data only: pickles across worker pools
        text = format_dump(dump)
        assert "probe" in text and "conservation:" in text
        assert "active fault: consumer-stall@5" in text
        assert "token:" in text  # PR section present

    def test_format_dump_renders_pr_token_state(self):
        e = busy_engine()
        token = e.scheme.controller.token
        dump = capture_dump(e, reason="probe")
        assert dump["token"]["state"] == token.state
        assert dump["token"]["pos"] == token.pos
        assert dump["token"]["captures"] == token.captures
        text = format_dump(dump)
        assert f"token: {token.state} at" in text
        assert f"captures={token.captures}" in text
        assert f"regen={token.regenerations}" in text

    def test_reservations_on_an_empty_queue_and_the_waiting_head_show(self):
        """The DR long-window wedge in one node: every reply slot reserved
        for this node's own outstanding transactions, so the reply queue
        is empty and full at once, and a 4-chain ``m1`` head (whose
        ``m3`` comes back here) can never start.  The dump must show the
        reservations and say what the head waits for."""
        from repro.protocol.transactions import PAT271

        e = Engine(SimConfig(dims=(4, 4), scheme="DR", pattern="PAT271",
                             num_vcs=4, load=0.0))
        ni = e.interfaces[5]
        replies = ni.in_bank.queue(1)
        replies.reserved = replies.capacity
        head = PAT271.build_transaction(3, 5, 9, 0, length=4).root
        ni.in_bank.queue(0).push(head)
        e.run(10)
        assert ni.controller.idle and ni.in_bank.queue(0).peek() is head
        dump = capture_dump(e, reason="probe")
        rows = {row["class"]: row for row in dump["interfaces"][5]["queues"]}
        assert rows[1]["in"] == "0+0h+16r/16" and rows[1]["in_head"] is None
        assert rows[0]["in_head_waits"] == "a reservation into input class 1"
        text = format_dump(dump)
        assert "class 1: in=0+0h+16r/16" in text
        assert ("head=m1 3->5 @0, waiting for a reservation into input"
                " class 1") in text
        # with one reply slot to reserve the same head starts at once
        replies.reserved -= 1
        e.run(1)
        assert not ni.controller.idle
        assert "waiting for" not in format_dump(capture_dump(e, reason="probe"))

    def test_head_waiting_for_an_output_slot_says_so(self):
        from repro.protocol.transactions import PAT721
        from tests.helpers import stall_endpoint

        e = Engine(SimConfig(dims=(4, 4), scheme="NONE", pattern="PAT721",
                             load=0.0))
        stall_endpoint(e, 5, make_txn=lambda i: PAT721.build_transaction(
            6, 5, 9, 0, length=3))
        e.run(5)
        row = capture_dump(e, reason="probe")["interfaces"][5]["queues"][0]
        assert row["in_head_waits"] == "an output slot in class 0"

    @pytest.mark.campaign
    def test_dr_long_window_wedge_dump_shows_the_reserved_reply_slots(self):
        """ROADMAP item 1's cell: DR/PAT271/4 VCs on 8x8 at load 0.012,
        seed 3, stops delivering near cycle 8000 with no detection; the
        watchdog's dump must show what no detector sees — reply queues
        empty yet fully reserved, heads waiting for a reservation."""
        e = Engine(SimConfig(dims=(8, 8), scheme="DR", pattern="PAT271",
                             num_vcs=4, load=0.012, seed=3,
                             watchdog_timeout=1500))
        with pytest.raises(LivenessError) as excinfo:
            e.run(12_000)
        assert 8000 < e.now < 10_000
        dump = excinfo.value.dump
        assert dump["first_deadlock_cycle"] is None
        wedged = [
            info for info in dump["interfaces"].values()
            if any(row["class"] == 1 and row["in"] == "0+0h+16r/16"
                   for row in info["queues"])
        ]
        assert wedged
        assert any(row["in_head_waits"] == "a reservation into input class 1"
                   for info in wedged for row in info["queues"])
        text = format_dump(dump)
        assert "class 1: in=0+0h+16r/16" in text
        assert "waiting for a reservation into input class 1" in text

    def test_untraced_dump_has_no_episodes(self):
        e = busy_engine()
        dump = capture_dump(e, reason="probe")
        assert "episodes" not in dump
        assert "recovery episodes" not in format_dump(dump)

    def test_traced_dump_carries_episode_timeline(self):
        from repro.telemetry import Tracer

        e = busy_engine(load=0.018)  # heavy: PR rescues fire
        e.attach_tracer(Tracer())
        e.run(2400)
        dump = capture_dump(e, reason="probe")
        assert dump["episodes"], "heavy PAT271 run must have recovered"
        text = format_dump(dump)
        assert f"recovery episodes: {len(dump['episodes'])}" in text
        last = dump["episodes"][-1]
        assert f"ep {last['index']}: form={last['formation_cycle']}" in text
        import json

        json.dumps(dump)  # episodes keep the dump JSON-able

    def test_checker_interval_wiring(self):
        e = busy_engine(invariants_every=250)
        assert e.invariants is not None
        e.run(1000)
        assert e.invariants.checks_run >= 4

    def test_no_config_means_no_checker(self):
        e = Engine(SimConfig(dims=(4, 4), load=0.004))
        assert e.invariants is None and e.faults is None
