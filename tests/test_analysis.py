"""Tests for per-type breakdowns and the coupling monitor."""

from repro.sim.stats import format_breakdown, type_breakdown
from repro.telemetry.samplers import run_with_monitor
from tests.helpers import build_engine


class TestTypeBreakdown:
    def test_types_present_and_consistent(self):
        e = build_engine(scheme="PR", load=0.005, seed=3)
        e.run(2000)
        rows = type_breakdown(e.stats)
        assert "m1" in rows and "m4" in rows
        total = sum(r["delivered"] for r in rows.values())
        assert total == e.stats.total.messages_delivered
        for r in rows.values():
            assert r["mean_latency"] >= r["mean_network_time"] > 0
            assert r["mean_queue_wait"] >= 0

    def test_replies_longer_than_requests(self):
        # 20-flit replies take longer in the network than 4-flit requests.
        e = build_engine(scheme="PR", load=0.005, seed=3)
        e.run(3000)
        rows = type_breakdown(e.stats)
        assert rows["m4"]["mean_network_time"] > rows["m1"]["mean_network_time"]

    def test_format_breakdown_renders(self):
        e = build_engine(scheme="PR", load=0.005, seed=3)
        e.run(1000)
        text = format_breakdown(e.stats)
        assert "m1" in text and "latency" in text


class TestOccupancyMonitor:
    def test_sampling_counts(self):
        e = build_engine(scheme="PR", load=0.008, seed=3)
        mon = run_with_monitor(e, 1000, interval=100)
        assert mon.samples == 10
        assert sum(mon.occupancy_by_type.values()) >= 0

    def test_coupling_zero_when_empty(self):
        e = build_engine(scheme="PR", load=0.0)
        mon = run_with_monitor(e, 200, interval=50)
        assert mon.coupling_index() == 0.0

    def test_shared_queues_couple_more_than_per_type(self):
        # The Figure 10/11 mechanism, measured directly: shared queues
        # mix heterogeneous types; per-type (QA) queues cannot.
        shared = build_engine(scheme="PR", pattern="PAT271", num_vcs=16,
                              load=0.016, seed=3)
        mon_shared = run_with_monitor(shared, 2500, interval=50)
        qa = build_engine(scheme="PR", pattern="PAT271", num_vcs=16,
                          load=0.016, seed=3, queue_mode="per-type")
        mon_qa = run_with_monitor(qa, 2500, interval=50)
        assert mon_qa.coupling_index() == 0.0
        assert mon_shared.coupling_index() > 0.2
