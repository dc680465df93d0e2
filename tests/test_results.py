"""Tests for result containers, sweeps and stats aggregation."""

import json

from repro import SimConfig
from repro.sim.results import RunResult, SweepResult, burton_normal_form
from repro.sim.stats import WindowCounters
from repro.sim.sweep import run_point, run_sweep


def mk_point(load, thr, lat):
    return RunResult(
        scheme="PR", pattern="PAT721", num_vcs=4, load=load, cycles=1000,
        messages_delivered=100, throughput_fpc=thr, mean_latency=lat,
        latency_max=3 * int(lat) + 1, deadlocks=0, normalized_deadlocks=0.0,
        transactions_completed=40, mean_txn_latency=2 * lat,
    )


class TestContainers:
    def test_run_result_roundtrips_json(self):
        p = mk_point(0.004, 0.1, 25.0)
        d = json.loads(json.dumps(p.to_dict()))
        assert d["scheme"] == "PR" and d["throughput_fpc"] == 0.1

    def test_sweep_accessors(self):
        s = SweepResult("x", [mk_point(0.002, 0.05, 20), mk_point(0.004, 0.11, 26)])
        assert s.loads() == [0.002, 0.004]
        assert s.saturation_throughput() == 0.11
        assert burton_normal_form(s) == [(0.05, 20), (0.11, 26)]

    def test_empty_sweep(self):
        assert SweepResult("e").saturation_throughput() == 0.0


class TestWindowCounters:
    def test_metrics(self):
        w = WindowCounters(start_cycle=100, end_cycle=200)
        w.messages_delivered = 10
        w.flits_delivered = 120
        w.latency_sum = 300.0
        w.deadlocks = 2
        assert w.cycles == 100
        assert w.mean_latency() == 30.0
        assert w.throughput_fpc(4) == 120 / (4 * 100)
        assert w.normalized_deadlocks() == 0.2

    def test_zero_division_guards(self):
        w = WindowCounters()
        assert w.mean_latency() == 0.0
        assert w.normalized_deadlocks() == 0.0
        assert w.cycles == 1


class TestSweep:
    def test_run_point_structure(self):
        cfg = SimConfig(scheme="PR", pattern="PAT721", num_vcs=4, load=0.004,
                        seed=3)
        p = run_point(cfg, warmup=300, measure=600)
        assert p.scheme == "PR" and p.load == 0.004
        assert p.messages_delivered > 0
        assert p.throughput_fpc > 0
        assert p.mean_latency > 0

    def test_sweep_orders_loads_and_labels(self):
        cfg = SimConfig(scheme="PR", pattern="PAT721", num_vcs=4, seed=3)
        s = run_sweep(cfg, [0.004, 0.002], warmup=200, measure=400,
                      stop_past_saturation=False)
        assert s.loads() == [0.002, 0.004]
        assert s.label == "PR/PAT721/4vc"

    def test_sweep_stops_past_saturation(self):
        cfg = SimConfig(scheme="DR", pattern="PAT721", num_vcs=4, seed=3)
        loads = [0.002, 0.006, 0.010, 0.014, 0.018, 0.022, 0.026,
                 0.030, 0.034]
        s = run_sweep(cfg, loads, warmup=800, measure=1500)
        # The sweep must cut off once throughput collapses.
        assert len(s.points) < len(loads)
