"""Tests for the pluggable detector protocol: endpoint / cmh / timeout.

Covers detector selection and scheme wiring, the Chandy-Misra-Haas
edge chase on an engineered two-node dependency cycle, the probe
overlay network, the timeout heuristic, probe visibility in telemetry
and stitched episodes, the None-hardened dump/episode rendering, and
the lab's ground-truth guarantees as properties:

* zero false negatives — CMH declares on a run the CWG checker marks
  deadlocked (deterministic saturated point);
* zero cycle-prover false positives / bounded timeout false positives
  on CWG-certified deadlock-free runs (hypothesis over the light end
  of the seeded smoke grid).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.cmh import CmhSite, ProbeNetwork
from repro.core.detection import DetectorPair, TimeoutSite
from repro.core.detectors import OVERHEAD_FIELDS
from repro.protocol.message import Message
from repro.protocol.probe import PROBE_TYPE, Probe
from repro.protocol.transactions import PAT721
from repro.sim.invariants import capture_dump, format_dump
from repro.telemetry import Tracer, stitch_episodes
from repro.telemetry import events as ev
from repro.telemetry.episodes import RecoveryEpisode, format_episodes
from repro.util.errors import ConfigurationError
from tests.helpers import build_engine, deliver_direct, stall_endpoint


def make_txn_factory(engine, home, length=3):
    def factory(i):
        n = engine.topology.num_nodes
        req = (home + 1 + i) % n
        third = (home + 5 + i) % n
        if third in (home, req):
            third = (third + 1) % n
        return PAT721.build_transaction(req, home, third, engine.now, length=length)

    return factory


def wedge_pair(engine, a, b):
    """Wedge nodes ``a`` and ``b`` into a mutual wait-for cycle.

    Each node gets the full endpoint-stall condition (input queue of
    non-terminating requests, full output queue, occupied injection
    channel), and every wedged output message is retargeted at the
    *other* node — so the CMH wait-for frontier of ``a`` points at
    ``b`` and vice versa: a genuine two-edge dependency cycle.
    """
    for node, other in ((a, b), (b, a)):
        stall_endpoint(engine, node, make_txn=make_txn_factory(engine, node))
        for msg in engine.interfaces[node].out_bank.queue(0).entries:
            msg.dst = other


def chase_until_declared(det, max_cycles=60):
    """Drive pre_step until any site declares; returns (cycle, site)."""
    for cycle in range(1, max_cycles):
        det.pre_step(cycle)
        for site in det.sites:
            if site.declared_at >= 0:
                return cycle, site
    return None, None


# ----------------------------------------------------------------------
# Detector selection and scheme wiring
# ----------------------------------------------------------------------
class TestDetectorSelection:
    @pytest.mark.parametrize(
        "name,site_cls",
        [("endpoint", DetectorPair), ("timeout", TimeoutSite),
         ("cmh", CmhSite)],
    )
    def test_config_selects_mechanism(self, name, site_cls):
        e = build_engine(scheme="NONE", detector=name)
        assert e.detector.kind == name
        assert {type(site) for site in e.detector.sites} == {site_cls}
        assert set(e.detector.overhead()) == set(OVERHEAD_FIELDS)
        described = e.detector.describe()
        assert described["detector"] == name
        assert described["sites"] == len(e.detector.sites)

    def test_endpoint_detector_reports_zero_probe_overhead(self):
        e = build_engine(scheme="NONE", detector="endpoint")
        e.run(50)
        assert all(v == 0 for v in e.detector.overhead().values())

    @pytest.mark.parametrize("scheme", ["DR", "PR", "NONE"])
    @pytest.mark.parametrize("detector", ["endpoint", "cmh", "timeout"])
    def test_every_recovery_scheme_runs_every_detector(self, scheme, detector):
        e = build_engine(scheme=scheme, detector=detector, load=0.01)
        e.run(60)
        assert e.detector.kind == detector

    def test_sa_rejects_non_default_detectors(self):
        for detector in ("cmh", "timeout"):
            with pytest.raises(ConfigurationError):
                build_engine(scheme="SA", num_vcs=8, detector=detector)

    def test_unknown_detector_rejected_at_config(self):
        with pytest.raises(ConfigurationError):
            SimConfig(dims=(4, 4), scheme="NONE", pattern="PAT721",
                      detector="oracle")

    def test_detector_thresholds_validated(self):
        for bad in (
            dict(timeout_threshold=0),
            dict(cmh_block_threshold=0),
            dict(cmh_probe_interval=0),
        ):
            with pytest.raises(ConfigurationError):
                SimConfig(dims=(4, 4), scheme="NONE", pattern="PAT721", **bad)


# ----------------------------------------------------------------------
# The probe overlay
# ----------------------------------------------------------------------
class TestProbeNetwork:
    def test_latency_is_min_hops_plus_one(self):
        e = build_engine(scheme="NONE")
        topo = e.topology
        net = ProbeNetwork(topo)
        for src, dst in ((0, 1), (0, 5), (3, 12)):
            hops = topo.min_hops(topo.router_of_node(src),
                                 topo.router_of_node(dst))
            assert net.latency(src, dst) == hops + 1
        # Cached second lookup agrees.
        assert net.latency(0, 5) == net.latency(0, 5)

    def test_calendar_preserves_send_order_per_cycle(self):
        e = build_engine(scheme="NONE")
        net = ProbeNetwork(e.topology)
        p1 = Probe(0, 0, 0, src=0, dst=1, started_cycle=10, sent_cycle=10)
        p2 = Probe(2, 0, 0, src=0, dst=1, started_cycle=10, sent_cycle=10)
        lat = net.send(p1, 10)
        assert net.send(p2, 10) == lat
        assert net.in_flight == 2
        assert net.deliveries(10 + lat - 1) == []
        assert net.deliveries(10 + lat) == [p1, p2]
        assert net.in_flight == 0
        assert net.deliveries(10 + lat) == []

    def test_forwarded_probe_keeps_chase_identity(self):
        p = Probe(3, 1, 2, src=3, dst=7, started_cycle=10, sent_cycle=10)
        f = p.forwarded(7, 9, 14)
        assert f.site == p.site == (3, 1, 2)
        assert (f.src, f.dst) == (7, 9)
        assert f.started_cycle == 10 and f.sent_cycle == 14
        assert f.forwards == p.forwards + 1
        assert f.message.mtype is PROBE_TYPE and f.message.size == 1


# ----------------------------------------------------------------------
# The CMH edge chase on an engineered dependency cycle
# ----------------------------------------------------------------------
class TestCmhChase:
    def test_engineered_cycle_declares(self):
        e = build_engine(scheme="NONE", detector="cmh")
        wedge_pair(e, 5, 6)
        det = e.detector
        declared, site = chase_until_declared(det)
        assert declared is not None, "probe never returned to its initiator"
        assert isinstance(site, CmhSite)
        # The latch is what scheme controllers see when they poll.
        assert site.step(declared) is True
        # Formation timestamp feeds episode/latency accounting.
        assert site.since == site.blocked_since >= 1
        assert det.probes_sent > 0
        assert det.probes_returned >= 1
        assert det.probe_hops > 0
        # Probes that hit unblocked bystander nodes die there.
        assert det.probes_dropped >= 1
        assert det.net.in_flight >= 0

    def test_declaration_needs_a_cycle_not_just_blocking(self):
        # One wedged node with no return edge: blocked forever, but the
        # chase finds no cycle, so CMH (unlike a timeout) stays silent.
        e = build_engine(scheme="NONE", detector="cmh")
        stall_endpoint(e, 5, make_txn=make_txn_factory(e, 5))
        det = e.detector
        for cycle in range(1, 120):
            det.pre_step(cycle)
        assert all(site.declared_at < 0 for site in det.sites)
        assert det.probes_sent > 0  # it did chase
        assert det.probes_returned == 0

    def test_progress_aborts_declaration_and_chase(self):
        e = build_engine(scheme="NONE", detector="cmh")
        wedge_pair(e, 5, 6)
        det = e.detector
        declared, site = chase_until_declared(det)
        assert declared is not None
        assert site.key in det._engaged
        # The wedge breaks: input-queue progress at the declared site.
        site.ni.in_bank.queue(site.in_cls).pop()
        det.pre_step(declared + 1)
        assert site.declared_at < 0
        assert site.blocked_since < 0
        assert site.key not in det._engaged
        assert site.step(declared + 1) is False

    def test_reset_rearms_and_the_chase_redeclares(self):
        e = build_engine(scheme="NONE", detector="cmh")
        wedge_pair(e, 5, 6)
        det = e.detector
        declared, site = chase_until_declared(det)
        assert declared is not None
        site.reset(declared)  # a recovery controller acted
        assert site.declared_at < 0
        assert site.key not in det._engaged
        # The wedge persists, so a fresh chase declares again.
        redeclared = None
        for cycle in range(declared + 1, declared + 80):
            det.pre_step(cycle)
            if site.declared_at >= 0:
                redeclared = cycle
                break
        assert redeclared is not None

    def test_stale_probe_cannot_declare(self):
        # A probe started before the site's current blocked span is a
        # leftover of an older chase and must be dropped, not returned.
        e = build_engine(scheme="NONE", detector="cmh")
        wedge_pair(e, 5, 6)
        det = e.detector
        det.pre_step(1)  # marks both sites blocked at cycle 1
        site = next(s for s in det.sites if s.ni.node == 5)
        det._engaged[site.key] = {5}
        stale = Probe(5, site.in_cls, site.out_cls, src=6, dst=5,
                      started_cycle=0, sent_cycle=0)
        det.net.send(stale, 1)
        before = det.probes_dropped
        for cycle in range(2, 2 + det.net.latency(6, 5) + 1):
            det.pre_step(cycle)
        assert site.declared_at < 0 or site.declared_at > 1
        assert det.probes_dropped > before


class TestCmhSelfDependence:
    """The three questions the Chandy-Misra-Haas implementations in
    SNIPPETS.md leave open, answered for :class:`CmhSite`.  A site's
    dependent set is ``CmhDetector._dependents``: the nodes its stuck
    output traffic is addressed to, *minus its own node* — a probe is a
    message on the overlay, and a node has no wire to itself."""

    @staticmethod
    def blocked_site(det, node):
        det.pre_step(1)
        site = next(s for s in det.sites if s.ni.node == node)
        assert site.blocked_since == 1  # idle in CMH's sense: blocked
        return site

    def test_dependent_set_containing_itself_declares_on_the_other_edge(self):
        # Self plus a real cycle through node 6: the self-edge is
        # dropped, the chase runs through 6 and declares exactly as it
        # would without it.  The self-edge neither helps nor hinders.
        e = build_engine(scheme="NONE", detector="cmh")
        wedge_pair(e, 5, 6)
        out = e.interfaces[5].out_bank.queue(0).entries
        for msg in list(out)[::2]:
            msg.dst = 5
        det = e.detector
        site = self.blocked_site(det, 5)
        assert 5 in site.ni.frontier_destinations(site.out_cls)
        assert det._dependents(site) == [6]
        declared, _ = chase_until_declared(det)
        assert declared is not None

    def test_site_depending_only_on_itself_never_declares(self):
        # Everything node 5 is stuck on is addressed to node 5: a
        # one-node cycle, and a real one (its output cannot drain until
        # its input does, and the reverse).  With the self-edge dropped
        # the dependent set is empty, so no probe is ever sent and CMH
        # stays silent — a blind spot, not a proof of liveness.  The
        # liveness watchdog is what reports this state.
        e = build_engine(scheme="NONE", detector="cmh")
        stall_endpoint(e, 5, make_txn=make_txn_factory(e, 5))
        ni = e.interfaces[5]
        for msg in ni.out_bank.queue(0).entries:
            msg.dst = 5
        e.fabric.injection_channel(5, 0).owner.dst = 5
        det = e.detector
        site = self.blocked_site(det, 5)
        assert site.ni.frontier_destinations(site.out_cls) == {5}
        assert det._dependents(site) == []
        for cycle in range(2, 200):
            det.pre_step(cycle)
        assert site.blocked_since == 1 and site.declared_at < 0
        assert det.probes_sent == 0

    def test_blocked_site_with_an_empty_dependent_set_never_declares(self):
        # Blocked on slots rather than on messages: the output queue is
        # full of *held* slots and holds no message, so there is no
        # destination to chase.  This is the shape of the DR reservation
        # wedge (ROADMAP item 1): blocked for ever with no wait-for edge
        # CMH can name.  It sends nothing and declares nothing; a knot
        # through slot ownership needs an oracle that models slots.
        e = build_engine(scheme="NONE", detector="cmh")
        ni = e.interfaces[5]
        in_q, out_q = ni.in_bank.queue(0), ni.out_bank.queue(0)
        factory = make_txn_factory(e, 5)
        while in_q.free_slots > 0:
            in_q.push(factory(len(in_q.entries)).root)
        out_q.held = out_q.capacity
        det = e.detector
        site = self.blocked_site(det, 5)
        assert det._dependents(site) == []
        for cycle in range(2, 200):
            det.pre_step(cycle)
        assert site.blocked_since == 1 and site.declared_at < 0
        assert det.probes_sent == 0


# ----------------------------------------------------------------------
# The timeout heuristic
# ----------------------------------------------------------------------
class TestTimeoutDetector:
    def _site(self, engine, node):
        site = engine.detector.by_node[node][0]
        assert isinstance(site, TimeoutSite)
        return site

    def test_fires_on_any_waiting_head(self):
        e = build_engine(scheme="NONE", detector="timeout",
                         timeout_threshold=30)
        # A single *terminating* message: the endpoint detector would
        # never fire on this (no continuation, queues not stressed).
        msg = Message(e.protocol.types[0], src=0, dst=5)
        deliver_direct(e, 5, msg)
        site = self._site(e, 5)
        fired = [c for c in range(1, 80) if site.step(c)]
        assert fired and fired[0] > 30
        endpoint = DetectorPair(
            ni=e.interfaces[5], in_cls=0, out_cls=0, threshold=30,
            require_request_child=False,
        )
        assert not any(endpoint.step(c) for c in range(80, 200))

    def test_queue_progress_resets_the_clock(self):
        e = build_engine(scheme="NONE", detector="timeout",
                         timeout_threshold=30)
        deliver_direct(e, 5, Message(e.protocol.types[0], src=0, dst=5))
        site = self._site(e, 5)
        for cycle in range(1, 20):
            assert not site.step(cycle)
        # A version bump (second arrival) restarts the countdown.
        deliver_direct(e, 5, Message(e.protocol.types[0], src=1, dst=5))
        fired = [c for c in range(20, 100) if site.step(c)]
        assert fired and fired[0] > 50

    def test_empty_queue_never_fires(self):
        e = build_engine(scheme="NONE", detector="timeout",
                         timeout_threshold=10)
        site = self._site(e, 5)
        assert not any(site.step(c) for c in range(1, 60))


# ----------------------------------------------------------------------
# Telemetry: probe events and episode attribution
# ----------------------------------------------------------------------
class TestProbeTelemetry:
    def test_probe_traffic_visible_in_trace_and_episodes(self):
        e = build_engine(scheme="NONE", detector="cmh")
        tracer = Tracer(level="message")
        e.attach_tracer(tracer)
        wedge_pair(e, 5, 6)
        for cycle in range(1, 60):
            e.scheme.step(cycle)
        kinds = {kind for _, kind, _ in tracer.events}
        assert ev.PROBE_SEND in kinds
        assert ev.PROBE_RETURN in kinds
        send = next(p for _, k, p in tracer.events if k == ev.PROBE_SEND)
        assert {"initiator", "src", "dst", "in_cls", "out_cls"} <= set(send)
        episodes = stitch_episodes(tracer)
        assert episodes
        first = episodes[0]
        assert first.probes > 0
        assert first.formation_cycle is not None
        assert first.detection_latency is not None
        assert first.detection_latency >= 0
        assert first.to_dict()["probes"] == first.probes

    def test_probeless_detectors_emit_no_probe_events(self):
        e = build_engine(scheme="NONE", detector="endpoint")
        tracer = Tracer(level="message")
        e.attach_tracer(tracer)
        stall_endpoint(e, 5, make_txn=make_txn_factory(e, 5))
        for cycle in range(1, 60):
            e.scheme.step(cycle)
        probe_kinds = {ev.PROBE_SEND, ev.PROBE_FORWARD,
                       ev.PROBE_RETURN, ev.PROBE_DROP}
        assert not any(k in probe_kinds for _, k, _ in tracer.events)


# ----------------------------------------------------------------------
# None-hardened rendering (dump + episode table)
# ----------------------------------------------------------------------
class TestRenderingHardening:
    def test_format_dump_without_any_detection(self):
        e = build_engine(scheme="NONE", detector="cmh", load=0.004, seed=3)
        e.run(80)
        dump = capture_dump(e, reason="unit")
        assert dump["first_deadlock_cycle"] is None
        assert dump["detector"] == "cmh"
        text = format_dump(dump)
        assert "detector: cmh, first detection: none" in text

    def test_format_dump_with_detection_cycle(self):
        e = build_engine(scheme="NONE", detector="endpoint")
        stall_endpoint(e, 5, make_txn=make_txn_factory(e, 5))
        for cycle in range(1, 60):
            e.scheme.step(cycle)
        dump = capture_dump(e, reason="unit")
        assert dump["first_deadlock_cycle"] is not None
        assert "first detection: cycle" in format_dump(dump)

    def test_format_episodes_with_unknown_formation(self):
        # A detector firing with no onset history (e.g. zero live
        # messages) yields a formation-less episode; every latency
        # column must degrade to "-" instead of raising.
        epi = RecoveryEpisode(index=0, formation_cycle=None,
                              detection_cycle=42)
        table = format_episodes([epi])
        row = table.splitlines()[-1]
        assert "42" in row and "-" in row
        assert epi.detection_latency is None
        assert epi.to_dict()["detection_latency"] is None

    def test_stitcher_handles_detect_event_without_since(self):
        epi = _feed_detect_payload({"node": 5})
        assert epi.formation_cycle is None
        assert epi.detection_cycle == 7

    def test_stitcher_backfills_formation_from_later_event(self):
        epi = _feed_detect_payload({"node": 5}, then={"node": 5, "since": 3})
        assert epi.formation_cycle == 3


def _feed_detect_payload(payload, then=None):
    from repro.telemetry.episodes import _Stitcher

    stitcher = _Stitcher()
    stitcher.feed(7, ev.DETECT, payload, lambda mid: "?")
    if then is not None:
        stitcher.feed(8, ev.DETECT, then, lambda mid: "?")
    assert len(stitcher.episodes) == 1
    return stitcher.episodes[0]


# ----------------------------------------------------------------------
# Ground-truth guarantees (satellite: zero-FN / bounded-FP properties)
# ----------------------------------------------------------------------
def test_cmh_declares_on_cwg_deadlocked_run():
    """Zero false negatives: the saturated detection-only point wedges
    into real CWG knots, and CMH's first detection is finite."""
    e = build_engine(scheme="NONE", num_vcs=4, load=0.02, seed=1,
                     detector="cmh", cwg_interval=25)
    e.run(4000)
    assert e.cwg_knots_seen > 0, "ground-truth point no longer wedges"
    assert e.stats.first_deadlock_cycle >= 0
    overhead = e.detector.overhead()
    assert overhead["probes_sent"] > 0
    assert overhead["probes_returned"] > 0


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    load=st.sampled_from([0.002, 0.004, 0.006]),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_no_false_alarms_on_certified_deadlock_free_runs(seed, load):
    """On a CWG-certified deadlock-free run, the cycle-proving
    detectors (endpoint, cmh) report nothing and the timeout
    heuristic's false positives stay bounded by the site count.
    Detection is pure observation on NONE, so the data plane —
    knots and deliveries — must also be identical across detectors."""
    knots, delivered, detections, sites = {}, {}, {}, {}
    for detector in ("endpoint", "cmh", "timeout"):
        e = build_engine(scheme="NONE", num_vcs=4, load=load, seed=seed,
                         detector=detector, cwg_interval=25)
        e.run(1200)
        knots[detector] = e.cwg_knots_seen
        delivered[detector] = e.stats.total.messages_delivered
        detections[detector] = e.scheme.deadlocks_detected
        sites[detector] = len(e.detector.sites)
    assert len(set(knots.values())) == 1
    assert len(set(delivered.values())) == 1
    if knots["endpoint"] == 0:
        assert detections["endpoint"] == 0
        assert detections["cmh"] == 0
        assert detections["timeout"] <= sites["timeout"]
