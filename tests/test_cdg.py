"""Tests for the static deadlock-freedom certifier (repro.analysis.cdg).

Three layers:

* structural — verdicts of the built-in registry, cycle/witness
  well-formedness, determinism;
* cross-validation — a statically CERTIFIED pair must never deadlock in
  simulation (property-tested over seeds, with the omniscient CWG
  ground-truth checker armed), and the shipped REFUTED examples must
  reproduce a deadlock the endpoint detector confirms;
* gate semantics — ``gate_failures`` flags exactly the mismatches and
  un-annotated refutations the ``labs-smoke`` CI job fails on.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    builtin_pairs,
    check,
    check_all,
    check_pair,
    gate_failures,
)
from repro.analysis.cdg import CERTIFIED, REFUTED
from repro.config import SimConfig
from repro.network.routing import (
    dimension_order_routing,
    partitioned_vc_map,
    tfar_vc_map,
    true_fully_adaptive_routing,
)
from repro.network.topology import Mesh2D, ring
from repro.sim.engine import Engine


class TestRegistry:
    def test_every_builtin_pair_matches_its_expectation(self):
        for report in check_all():
            assert report.verdict == report.expected, report.name

    def test_refuted_pairs_are_annotated(self):
        for pair in builtin_pairs():
            if pair.expected == REFUTED:
                assert pair.annotation, pair.name

    def test_gate_is_green_on_the_shipped_registry(self):
        assert gate_failures(check_all()) == []

    def test_names_unique(self):
        names = [pair.name for pair in builtin_pairs()]
        assert len(names) == len(set(names))

    def test_registry_covers_every_topology_kind(self):
        kinds = {check_pair(p).topology.split("(")[0]
                 for p in builtin_pairs()}
        assert kinds == {"Torus", "Mesh2D", "FullMesh", "IrregularGraph"}


class TestReports:
    def test_refuted_cycle_is_a_real_cycle(self):
        t = ring(8)
        report = check(t, true_fully_adaptive_routing(t, tfar_vc_map(2)))
        assert report.verdict == REFUTED
        cycle = report.cycle
        assert len(cycle) >= 2
        for (_, head), (tail, _) in zip(cycle, cycle[1:] + cycle[:1]):
            assert head == tail
        num_channels = len(t.links) * 2
        assert all(0 <= a < num_channels and 0 <= b < num_channels
                   for a, b in cycle)
        assert len(report.cycle_lines) == len(cycle)

    def test_certified_witness_is_a_duplicate_free_channel_list(self):
        t = ring(8)
        report = check(t, dimension_order_routing(t, partitioned_vc_map(2, 1)))
        assert report.verdict == CERTIFIED
        assert len(set(report.witness)) == len(report.witness)
        num_channels = len(t.links) * 2
        assert all(0 <= c < num_channels for c in report.witness)

    def test_full_cdg_condition_used_without_escape(self):
        t = ring(4)
        report = check(t, true_fully_adaptive_routing(t, tfar_vc_map(2)))
        assert report.condition == "full-cdg"
        assert report.num_escape_channels == 0

    def test_escape_condition_used_with_escape(self):
        t = Mesh2D((3, 3))
        report = check(t, dimension_order_routing(t, partitioned_vc_map(2, 1)))
        assert report.condition == "escape-extended"
        assert report.num_escape_channels > 0

    def test_check_is_deterministic(self):
        t = ring(6)
        routing = true_fully_adaptive_routing(t, tfar_vc_map(2))
        a = check(t, routing)
        b = check(t, routing)
        assert a.to_dict() == b.to_dict()

    def test_format_and_to_dict_roundtrip_core_fields(self):
        report = check_pair(builtin_pairs()[0])
        text = report.format()
        assert report.name in text and report.verdict in text
        payload = report.to_dict()
        assert payload["verdict"] == report.verdict
        assert payload["expected"] == report.expected


class TestGateSemantics:
    def test_mismatch_is_flagged(self):
        report = check_pair(builtin_pairs()[0])
        report = replace(report, expected=REFUTED)
        assert any("expected REFUTED" in p for p in gate_failures([report]))

    def test_unannotated_refutation_is_flagged(self):
        refuted = next(
            check_pair(p) for p in builtin_pairs() if p.expected == REFUTED
        )
        stripped = replace(refuted, annotation=None)
        assert any("un-annotated" in p for p in gate_failures([stripped]))
        assert gate_failures([refuted]) == []


#: SA realizes certified escape routing on each substrate; saturation
#: loads with the CWG ground-truth checker armed every 50 cycles.
_CERTIFIED_CONFIGS = {
    "torus": SimConfig(topology="torus", dims=(4, 4), scheme="SA",
                       pattern="PAT721", num_vcs=8, cwg_interval=50,
                       load=0.02),
    "mesh2d": SimConfig(topology="mesh2d", dims=(4, 4), scheme="SA",
                        pattern="PAT721", num_vcs=8, cwg_interval=50,
                        load=0.02),
    "irregular": SimConfig(topology="irregular", scheme="SA",
                           pattern="PAT721", num_vcs=8, cwg_interval=50,
                           load=0.02),
}


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(sorted(_CERTIFIED_CONFIGS)),
       seed=st.integers(1, 1_000))
def test_certified_pairs_never_deadlock_under_saturation(kind, seed):
    """CERTIFIED statically => no deadlock dynamically (any seed)."""
    engine = Engine(_CERTIFIED_CONFIGS[kind].with_(seed=seed))
    window = engine.run_measured(400, 1600)
    assert window.deadlocks + window.deadlocks_unresolved == 0
    assert engine.cwg_knots_seen == 0


def test_refuted_torus_example_deadlocks_and_detector_confirms():
    """REFUTED statically => the endpoint detector finds it dynamically."""
    engine = Engine(SimConfig(topology="torus", dims=(4, 4), scheme="PR",
                              pattern="PAT271", num_vcs=4, load=0.02,
                              seed=3))
    window = engine.run_measured(500, 2500)
    assert window.deadlocks + window.deadlocks_unresolved > 0


def test_refuted_irregular_example_deadlocks_and_detector_confirms():
    engine = Engine(SimConfig(topology="irregular", scheme="PR",
                              pattern="PAT271", num_vcs=4, load=0.02,
                              seed=3))
    window = engine.run_measured(500, 2500)
    assert window.deadlocks + window.deadlocks_unresolved > 0
