"""Tests of the benchmark's own arithmetic and contract.

Run with ``pytest bench/`` (outside tier-1: ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import spec
from bench.compare import verdict
from bench.stats import quartile_spread, spread, tail_percentile
from bench.trace import PhaseClock, Recorder, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    rec = Recorder("w/r0")
    root = rec.add("pass", 0.0, 10.0, None)
    slice_ = rec.add("sim.engine", 1.0, 9.0, root.id)
    rec.add("traffic", 1.0, 3.0, slice_.id)
    rec.add("endpoint", 3.0, 6.5, slice_.id)
    own = self_times(rec.spans)
    assert own == {
        "pass": pytest.approx(2.0),
        "sim.engine": pytest.approx(2.5),
        "traffic": pytest.approx(2.0),
        "endpoint": pytest.approx(3.5),
    }
    assert sum(own.values()) == pytest.approx(10.0)
    assert {s.tag for s in rec.spans} == {"w/r0"}


def test_self_time_never_negative_for_concurrent_children():
    rec = Recorder("w/r0")
    root = rec.add("farm.manager.run", 0.0, 1.0, None)
    rec.add("farm.run_shard", 0.0, 0.9, root.id)
    rec.add("farm.run_shard", 0.0, 0.9, root.id)  # a second host, overlapping
    assert self_times(rec.spans)["farm.manager.run"] == 0.0


def test_phase_clock_emits_one_span_per_phase_per_slice():
    rec, clock = Recorder("w/r0"), PhaseClock()
    calls = []
    step = clock.wrap("traffic", calls.append)
    other = clock.wrap("core", calls.append)
    piece = rec.open("sim.engine")
    for i in range(5):
        step(i)
    other(0)
    piece.end = piece.start + 1.0
    clock.flush(rec, piece)
    children = [s for s in rec.spans if s.parent == piece.id]
    assert [(s.name, s.count) for s in children] == [("traffic", 5), ("core", 1)]
    assert children[0].start == piece.start
    assert children[1].start == children[0].end  # laid end to end
    assert clock.total_calls == {"traffic": 5, "core": 1}
    assert not clock.seconds and not clock.calls
    assert len(calls) == 6  # the wrapped callables still ran


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected_p", [
    (400, 95.0),   # 20 samples beyond p95
    (200, 95.0),   # exactly 10 beyond
    (100, 90.0),   # p95 would leave 5: fall back to p90
    (25, 60.0),
    (19, 50.0),    # no percentile above the median qualifies
    (3, 50.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    values = list(range(1, n + 1))
    p, value = tail_percentile(values)
    assert p == pytest.approx(expected_p)
    if p > 50.0:
        assert sum(1 for v in values if v > value) >= 10
        assert sum(1 for v in values if v > value) < 10 + max(1, n // 20)


def test_spreads():
    assert spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)
    values = [10.0 + i for i in range(10)]
    assert 0.0 < quartile_spread(values) < spread(values)


# ----------------------------------------------------------------------
# names and the manifest
# ----------------------------------------------------------------------
def test_names_are_well_formed_and_unique():
    names = (spec.WORKLOAD_NAMES + spec.END_TO_END_NAMES
             + spec.PER_LAYER_NAMES)
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u)
               for u in spec.UNITS.values())
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(m.moves for m in spec.PER_LAYER)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_benchmark_json_matches_spec_exactly():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert manifest == spec.benchmark_json()


def test_baseline_digests_agree_where_the_work_is_the_same():
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text("utf-8"))
    assert baseline["claim"] is None
    assert baseline["seed"] == spec.GOLDEN_SEED
    recorded = {
        name: entry["stats_digest"]
        for name, entry in baseline["workloads"].items()
    }
    assert set(recorded) == set(spec.WORKLOAD_NAMES)
    # one cell, two backends; one campaign, two schedulers
    assert recorded["ref-sat-8x8"] == recorded["vec-sat-8x8"]
    assert recorded["sweep-cold-pool"] == recorded["farm-local2"]


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _cell(*values):
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "spread": spread(values),
            "values": list(values)}


def test_compare_verdicts():
    base = _cell(1.00, 1.01, 1.02)
    assert verdict(base, _cell(1.05, 1.06, 1.07), "lower", 0.10) == "ok"
    assert verdict(base, _cell(1.15, 1.16, 1.17), "lower", 0.10) == "worse"
    assert verdict(base, _cell(0.85, 0.86, 0.87), "higher", 0.10) == "worse"
    assert verdict(base, _cell(1.15, 1.16, 1.17), "higher", 0.10) == "ok"
    noisy = _cell(0.9, 1.3, 1.5)
    assert verdict(base, noisy, "lower", 0.10) == "unresolved"
    # wide spread, but every run of B better than every run of A
    assert verdict(noisy, _cell(0.5, 0.6, 0.8), "lower", 0.10) == "ok"


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def _run_bench(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *argv], cwd=cwd, text=True,
        capture_output=True, timeout=170,
    )


def test_quick_sweep_warm_reports_every_end_to_end_metric(tmp_path):
    proc = _run_bench(ROOT, "--quick", "--workload", "sweep-warm",
                      "--seed", "11", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(spec.END_TO_END_NAMES)
    for name, cell in line["metrics"].items():
        assert cell["value"] > 0 and cell["unit"] == spec.UNITS[name]
    assert "failed_frac" in proc.stdout
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["results.json"]  # temp dirs are gone


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "sweep-warm", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
