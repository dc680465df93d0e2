"""The telemetry subsystem: tracer, samplers, exporters, episode stitching.

The tracer is attached to real engines running the fault-campaign cells
(the same configurations the fault campaign traces), so the tests
pin the properties the subsystem promises: deterministic traces across
identically seeded runs, valid Perfetto JSON, ring-buffer bounds, and
episode timelines whose detection cycle matches ``SimStats``.
"""

import csv
import json

import pytest

from repro.config import SimConfig
from repro.faults import FaultSpec
from repro.sim.engine import Engine
from repro.telemetry import (
    MetricsSampler,
    Tracer,
    export_perfetto,
    export_timeseries_csv,
    export_timeseries_json,
    format_episodes,
    stitch_episodes,
    to_perfetto,
    validate_perfetto,
)
from repro.telemetry import events as ev
from repro.util.errors import ConfigurationError

FAULT = FaultSpec("consumer-stall", target=5, start=600, duration=2000)


def traced_engine(scheme="PR", level="flit", sample_every=0, seed=11,
                  cycles=4000, capacity=None, **kwargs):
    defaults = dict(dims=(4, 4), scheme=scheme, pattern="PAT271", num_vcs=4,
                    load=0.012, seed=seed, faults=(FAULT,))
    defaults.update(kwargs)
    engine = Engine(SimConfig(**defaults))
    tracer_kw = {} if capacity is None else {"capacity": capacity}
    tracer = Tracer(level=level, sample_every=sample_every, **tracer_kw)
    engine.attach_tracer(tracer)
    engine.run(cycles)
    return engine, tracer


@pytest.fixture(scope="module")
def pr_run():
    return traced_engine("PR", sample_every=100)


@pytest.fixture(scope="module")
def dr_run():
    return traced_engine("DR", max_outstanding=12)


def kinds(tracer):
    return {kind for _, kind, _ in tracer.events}


class TestTracerConfig:
    def test_rejects_unknown_level(self):
        with pytest.raises(ConfigurationError, match="trace level"):
            Tracer(level="packet")

    def test_rejects_negative_sampling(self):
        with pytest.raises(ConfigurationError, match="sample_every"):
            Tracer(sample_every=-1)

    def test_rejects_empty_ring(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            Tracer(capacity=0)

    def test_unattached_engine_has_no_tracer(self):
        engine = Engine(SimConfig(dims=(4, 4), load=0.004))
        assert engine.tracer is None
        assert engine.fabric.tracer is None
        assert all(ni.tracer is None for ni in engine.interfaces)

    def test_attach_wires_every_hook_site(self, pr_run):
        engine, tracer = pr_run
        assert engine.tracer is tracer
        assert engine.fabric.tracer is tracer
        assert engine.scheme.tracer is tracer
        assert engine.scheme.controller.tracer is tracer
        assert engine.scheme.controller.token.tracer is tracer
        assert all(ni.tracer is tracer for ni in engine.interfaces)
        assert all(ni.controller.tracer is tracer for ni in engine.interfaces)


class TestRingBuffer:
    def test_capacity_bounds_the_ring(self):
        _, tracer = traced_engine("PR", capacity=500, cycles=2000)
        assert len(tracer.events) == 500
        assert tracer.events_recorded > 500
        assert tracer.dropped_events == tracer.events_recorded - 500

    def test_unbounded_smoke_run_drops_nothing(self, pr_run):
        _, tracer = pr_run
        assert tracer.dropped_events == 0
        assert tracer.events_recorded == len(tracer.events)

    def test_local_ids_are_dense_and_stable(self, pr_run):
        _, tracer = pr_run
        mids = {p["mid"] for _, k, p in tracer.events if k == ev.CREATED}
        assert mids == set(range(len(mids)))
        # Labels are uid-free: "<TYPE> <src>-><dst> @<cycle>".
        assert all("->" in tracer.label_of(mid) for mid in mids)


class TestTraceLevels:
    def test_flit_level_records_grants_and_token_hops(self, pr_run):
        _, tracer = pr_run
        assert ev.VC_GRANT in kinds(tracer)
        assert ev.TOKEN_HOP in kinds(tracer)

    def test_message_level_omits_flit_detail(self):
        _, tracer = traced_engine("PR", level="message", cycles=2500)
        assert ev.VC_GRANT not in kinds(tracer)
        assert ev.TOKEN_HOP not in kinds(tracer)
        assert ev.CREATED in kinds(tracer)


class TestLifecycleEvents:
    def test_full_lifecycle_recorded(self, pr_run):
        _, tracer = pr_run
        seen = kinds(tracer)
        for kind in (ev.CREATED, ev.ADMITTED, ev.INJECTED, ev.DELIVERED,
                     ev.CONSUMED, ev.BLOCKED, ev.UNBLOCKED):
            assert kind in seen, f"missing {kind}"

    def test_fault_lifecycle_recorded(self, pr_run):
        _, tracer = pr_run
        faults = [(c, k) for c, k, _ in tracer.events
                  if k in (ev.FAULT_APPLIED, ev.FAULT_REVOKED)]
        assert (600, ev.FAULT_APPLIED) in faults
        assert any(k == ev.FAULT_REVOKED and c >= 2600 for c, k in faults)

    def test_blocked_events_are_deduplicated(self, pr_run):
        _, tracer = pr_run
        # A frontier stays blocked for many cycles but opens one episode:
        # every BLOCKED for a mid must be closed before the next one.
        open_mids = set()
        for _, kind, payload in tracer.events:
            if kind == ev.BLOCKED:
                assert payload["mid"] not in open_mids
                open_mids.add(payload["mid"])
            elif kind == ev.UNBLOCKED:
                open_mids.discard(payload["mid"])


class TestSchemeEvents:
    def test_dr_records_detection_and_deflection(self, dr_run):
        engine, tracer = dr_run
        seen = kinds(tracer)
        assert ev.DETECT in seen and ev.DEFLECT in seen
        deflects = [p for _, k, p in tracer.events if k == ev.DEFLECT]
        assert len(deflects) == engine.scheme.recoveries
        # The deflection consumes the head and creates the BRP: both
        # lifecycle records must exist for the span to close.
        consumed = {p["mid"] for _, k, p in tracer.events if k == ev.CONSUMED}
        created = {p["mid"] for _, k, p in tracer.events if k == ev.CREATED}
        for d in deflects:
            assert d["head_mid"] in consumed
            assert d["brp_mid"] in created

    def test_pr_records_token_recovery(self, pr_run):
        engine, tracer = pr_run
        seen = kinds(tracer)
        assert ev.TOKEN_CAPTURE in seen and ev.TOKEN_RELEASE in seen
        captures = sum(1 for _, k, _ in tracer.events if k == ev.TOKEN_CAPTURE)
        assert captures == engine.scheme.controller.token.captures


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        _, t1 = traced_engine("PR", sample_every=100, cycles=2500)
        _, t2 = traced_engine("PR", sample_every=100, cycles=2500)
        assert list(t1.events) == list(t2.events)
        assert t1.samples == t2.samples
        assert json.dumps(to_perfetto(t1)) == json.dumps(to_perfetto(t2))


class TestEpisodes:
    def test_empty_tracer_stitches_nothing(self):
        tracer = Tracer()
        assert stitch_episodes(tracer) == []
        assert format_episodes([]) == "no recovery episodes"

    def test_detection_matches_stats(self, pr_run):
        engine, tracer = pr_run
        episodes = stitch_episodes(tracer)
        assert episodes
        assert episodes[0].detection_cycle == engine.stats.first_deadlock_cycle

    def test_dr_episodes_resolve_at_detection(self, dr_run):
        _, tracer = dr_run
        episodes = stitch_episodes(tracer)
        assert episodes
        for epi in episodes:
            # DR's deflection is both detection and resolution.
            assert epi.resolution_latency == 0
            assert epi.extra_messages  # the BRPs
            assert epi.detection_latency > 0  # the detector threshold

    def test_episode_timeline_is_ordered(self, pr_run):
        _, tracer = pr_run
        for epi in stitch_episodes(tracer):
            assert epi.formation_cycle <= epi.detection_cycle
            if epi.resolved:
                assert epi.detection_cycle <= epi.resolution_cycle
            if epi.drained:
                assert epi.resolved
                assert epi.resolution_cycle <= epi.drain_cycle

    def test_to_dict_round_trips_as_json(self, pr_run):
        _, tracer = pr_run
        episodes = stitch_episodes(tracer)
        dicts = [epi.to_dict() for epi in episodes]
        assert json.loads(json.dumps(dicts)) == dicts

    def test_format_renders_one_row_per_episode(self, pr_run):
        _, tracer = pr_run
        episodes = stitch_episodes(tracer)
        text = format_episodes(episodes)
        assert text.count("\n") == len(episodes) + 1  # header + rule
        assert "detect" in text and "drain" in text


class TestSamplers:
    def test_sampling_cadence(self, pr_run):
        engine, tracer = pr_run
        assert len(tracer.samples) == 4000 // 100
        assert [s["cycle"] for s in tracer.samples[:3]] == [100, 200, 300]

    def test_sample_shape(self, pr_run):
        engine, tracer = pr_run
        sample = tracer.samples[10]
        for key in ("busy_links", "channel_utilization", "flit_occupancy",
                    "live_messages", "blocked_frontiers", "ni_occupancy"):
            assert key in sample
        assert len(sample["ni_occupancy"]) == engine.topology.num_nodes
        assert 0.0 <= sample["channel_utilization"] <= 1.0
        # PR runs expose the token's position.
        assert "token_pos" in sample and "token_state" in sample

    def test_live_messages_tracks_conservation(self, pr_run):
        engine, tracer = pr_run
        sampler = MetricsSampler(engine)
        sample = sampler.sample(engine.now)
        stats = engine.stats
        assert sample["live_messages"] == (
            stats.messages_created - stats.total.messages_consumed
        )


class TestExporters:
    def test_perfetto_is_valid_and_loadable(self, pr_run, tmp_path):
        _, tracer = pr_run
        path = tmp_path / "trace.json"
        trace = export_perfetto(tracer, path)
        validate_perfetto(trace)
        assert json.loads(path.read_text()) == trace
        assert trace["otherData"]["trace_level"] == "flit"

    def test_perfetto_valid_for_dr(self, dr_run, tmp_path):
        _, tracer = dr_run
        validate_perfetto(export_perfetto(tracer, tmp_path / "dr.json"))

    def test_truncated_ring_still_exports_balanced_spans(self):
        _, tracer = traced_engine("PR", capacity=400, cycles=2500)
        assert tracer.dropped_events > 0
        validate_perfetto(to_perfetto(tracer))

    def test_counter_events_match_samples(self, pr_run):
        _, tracer = pr_run
        trace = to_perfetto(tracer)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"
                    and e["name"] == "live_messages"]
        assert len(counters) == len(tracer.samples)

    def test_csv_export(self, pr_run, tmp_path):
        _, tracer = pr_run
        path = tmp_path / "series.csv"
        export_timeseries_csv(tracer, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(tracer.samples)
        assert int(rows[0]["cycle"]) == 100
        assert int(rows[5]["ni_occupied"]) >= 0

    def test_json_export(self, pr_run, tmp_path):
        _, tracer = pr_run
        path = tmp_path / "series.json"
        export_timeseries_json(tracer, path)
        payload = json.loads(path.read_text())
        assert payload["sample_every"] == 100
        assert len(payload["samples"]) == len(tracer.samples)
