"""Fault injection: spec parsing, injector mechanics, recovery proofs.

The recovery classes make hard promises — SA avoids, DR deflects at the
cost of one BRP per recovered transaction, PR recovers without ever
killing a message — and these tests prove each promise *under injected
faults*, not just under natural congestion.
"""

import pytest

from repro.config import SimConfig
from repro.core.token import Token
from repro.faults import EVENT_KINDS, FAULT_KINDS, FaultSpec, parse_fault
from repro.sim.engine import Engine
from repro.sim.invariants import capture_dump, conservation_delta
from repro.util.errors import ConfigurationError, InvariantViolation
from tests.helpers import record_transactions

SEED = 11
#: mid-fabric consumer stall used by most scenarios: long enough that
#: queues back up into the network, short enough that the run drains.
STALL = FaultSpec("consumer-stall", target=5, start=600, duration=2000)


def faulted_engine(scheme="PR", faults=(STALL,), **kwargs):
    defaults = dict(
        dims=(4, 4), scheme=scheme, pattern="PAT271", num_vcs=4,
        load=0.012, seed=SEED, faults=tuple(faults), watchdog_timeout=8000,
    )
    defaults.update(kwargs)
    return Engine(SimConfig(**defaults))


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("gamma-ray")

    def test_stateful_kind_needs_target(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("link-stall")

    def test_event_kinds_need_no_target(self):
        for kind in EVENT_KINDS:
            assert FaultSpec(kind, start=100).target == -1

    def test_negative_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("link-stall", target=0, start=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec("link-stall", target=0, duration=-1)

    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("link-stall", target=0, probability=1.5)
        with pytest.raises(ConfigurationError):
            # probabilistic episodes must end, or the first one is forever
            FaultSpec("link-stall", target=0, probability=0.1)
        FaultSpec("link-stall", target=0, probability=0.1, duration=40)

    def test_describe(self):
        assert STALL.describe() == "consumer-stall@5[start=600,dur=2000]"
        assert FaultSpec("token-loss", start=9).describe() == (
            "token-loss[start=9,event]"
        )
        spec = FaultSpec("link-stall", target=3, probability=0.001, duration=40)
        assert spec.describe() == "link-stall@3[p=0.001,dur=40]"

    def test_parse_round_trip(self):
        spec = parse_fault("consumer-stall:target=5,start=600,duration=2000")
        assert spec == STALL
        assert parse_fault("token-loss") == FaultSpec("token-loss")
        assert parse_fault("link-stall:target=3,p=0.001,duration=40") == (
            FaultSpec("link-stall", target=3, probability=0.001, duration=40)
        )
        # "prob" is accepted as an alias too
        assert parse_fault("link-stall:target=1,prob=0.5,duration=2") == (
            FaultSpec("link-stall", target=1, probability=0.5, duration=2)
        )

    @pytest.mark.parametrize("text", [
        "consumer-stall:target",          # no '='
        "consumer-stall:target=x",        # bad int
        "link-stall:p=zero,duration=1,target=0",  # bad float
        "link-stall:colour=red,target=0",  # unknown key
        "warp-core-breach",               # unknown kind
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_fault(text)

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            spec = (FaultSpec(kind) if kind in EVENT_KINDS
                    else FaultSpec(kind, target=0))
            assert kind in spec.describe()


class TestInjectorMechanics:
    def test_out_of_range_target_rejected_at_build(self):
        for kind, target in (("link-stall", 10_000), ("router-freeze", 99),
                             ("consumer-stall", 16), ("eject-stall", 16)):
            with pytest.raises(ConfigurationError):
                faulted_engine(faults=(FaultSpec(kind, target=target),))

    def test_token_faults_require_pr(self):
        with pytest.raises(ConfigurationError):
            faulted_engine(scheme="DR", faults=(FaultSpec("token-loss"),))

    def test_stall_applies_and_revokes_on_schedule(self):
        spec = FaultSpec("link-stall", target=3, start=50, duration=100)
        e = faulted_engine(load=0.0, faults=(spec,), watchdog_timeout=0)
        e.run(49)
        assert 3 not in e.fabric.stalled_links
        e.run(1)  # cycle 50: applied
        assert 3 in e.fabric.stalled_links
        assert e.faults.active_descriptions() == [spec.describe()]
        e.run(100)  # cycle 150: revoked
        assert 3 not in e.fabric.stalled_links
        assert e.faults.active_descriptions() == []
        assert e.faults.activation_counts() == {spec.describe(): 1}

    def test_router_freeze_stalls_outgoing_links(self):
        e = faulted_engine(
            load=0.0, watchdog_timeout=0,
            faults=(FaultSpec("router-freeze", target=5, start=10,
                              duration=20),),
        )
        out_links = {link.lid for link in e.topology.links if link.src == 5}
        assert out_links
        e.run(11)
        assert 5 in e.fabric.stalled_routers
        assert out_links <= e.fabric.stalled_links
        e.run(30)
        assert not e.fabric.stalled_routers and not e.fabric.stalled_links

    def test_consumer_stall_flag(self):
        e = faulted_engine(load=0.0, watchdog_timeout=0, faults=(
            FaultSpec("consumer-stall", target=5, start=10, duration=20),))
        e.run(11)
        assert e.interfaces[5].controller.stalled
        e.run(30)
        assert not e.interfaces[5].controller.stalled

    def test_probabilistic_schedule_is_deterministic(self):
        spec = FaultSpec("eject-stall", target=5, probability=0.01,
                         duration=25, start=100)
        runs = []
        for _ in range(2):
            e = faulted_engine(load=0.0, watchdog_timeout=0, faults=(spec,))
            e.run(3000)
            runs.append(e.faults.activation_counts())
        assert runs[0] == runs[1]
        assert runs[0][spec.describe()] > 1  # re-activates between episodes


class TestDeterminism:
    """Same config, two runs: identical dumps, identical counters."""

    def _one_run(self):
        e = faulted_engine()
        e.run(4000)
        ctl = e.scheme.controller
        return capture_dump(e, reason="determinism probe"), {
            "delivered": e.stats.total.messages_delivered,
            "created": e.stats.messages_created,
            "rescues": ctl.rescues,
            "token_laps": ctl.token.laps,
            "first_deadlock": e.stats.first_deadlock_cycle,
        }

    def test_faulted_runs_are_reproducible(self):
        dump_a, counters_a = self._one_run()
        dump_b, counters_b = self._one_run()
        assert counters_a == counters_b
        assert dump_a == dump_b  # uid-free by construction
        assert counters_a["rescues"] > 0  # the fault actually bit


class TestSchemeRecovery:
    """The headline guarantees, each proven under an injected fault."""

    def test_sa_never_deadlocks_under_consumer_stall(self):
        e = faulted_engine(scheme="SA", pattern="PAT721", num_vcs=8,
                           cwg_interval=50, invariants_every=250)
        e.run(4000)
        assert e.quiesce(100_000)
        assert e.cwg_knots_seen == 0          # avoidance truly held
        assert e.scheme.deadlocks_detected == 0
        assert conservation_delta(e) == 0
        assert e.invariants.checks_run > 0    # the claim was audited

    def test_dr_deflects_with_one_brp_per_recovery(self):
        # max_outstanding below the reply-queue capacity, as on the
        # Origin2000: admission preallocation cannot starve service-time
        # reservations, so the detector's in+out-full condition is
        # reachable and deflection unsticks it.
        e = faulted_engine(scheme="DR", max_outstanding=12,
                           invariants_every=250)
        txns = record_transactions(e)
        e.run(4000)
        ctl = e.scheme.controller
        assert ctl.deflections > 0
        assert e.stats.first_deadlock_cycle >= STALL.start
        assert e.quiesce(100_000)
        assert conservation_delta(e) == 0
        # Exactly one extra message (the BRP) per recovered transaction.
        assert sum(t.deflections for t in txns) == ctl.deflections
        for txn in txns:
            assert txn.messages_used == txn.chain_length + txn.deflections

    def test_pr_recovers_without_killing_messages(self):
        e = faulted_engine(invariants_every=250)
        txns = record_transactions(e)
        e.run(4000)
        ctl = e.scheme.controller
        assert ctl.rescues > 0
        assert e.quiesce(100_000)
        assert conservation_delta(e) == 0     # the no-kill guarantee
        for txn in txns:
            assert txn.messages_used == txn.chain_length  # no extras either

    def test_pr_regenerates_a_lost_token(self):
        e = faulted_engine(faults=(FaultSpec("token-loss", start=600),))
        e.run(4000)
        ctl = e.scheme.controller
        assert ctl.token_regenerations >= 1
        assert not ctl.token.lost              # back in circulation
        assert ctl.token.state in (Token.CIRCULATING, Token.HELD)
        assert e.quiesce(100_000)
        assert conservation_delta(e) == 0

    def test_token_duplication_trips_the_invariant(self):
        e = faulted_engine(faults=(FaultSpec("token-dup", start=600),),
                           invariants_every=50)
        with pytest.raises(InvariantViolation) as excinfo:
            e.run(1000)
        assert "uniqueness" in str(excinfo.value)
        assert excinfo.value.dump["token"]["duplicates"] == 1
