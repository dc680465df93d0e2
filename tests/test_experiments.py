"""Tests for the experiment harness (tiny custom scale for speed)."""

import pytest

from repro.config import SimConfig
from repro.experiments import (
    SCALES,
    Scale,
    cdg_lab,
    detection_lab,
    faults,
    table1_responses,
    table3_distributions,
    topologies,
)
from repro.experiments.common import (
    MAX_LOAD_BY_VCS,
    LabScale,
    get_scale,
    load_grid,
    valid_schemes,
)
from repro.service.scenarios import SCENARIOS
from repro.sim.sweep import curve_labels, run_sweeps, split_curves
from repro.telemetry import Tracer

TINY = Scale("tiny", warmup=300, measure=600, sweep_points=2,
             trace_duration=6000)


def curve(scale, **cell) -> list[SimConfig]:
    """One figure curve: ``cell`` on the 8x8 torus over the scale's grid
    up to its VC count's load ceiling."""
    config = SimConfig(**cell)
    return [config.with_(load=load) for load in
            load_grid(scale, MAX_LOAD_BY_VCS[config.num_vcs])]


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"smoke", "paper"}
        assert SCALES["paper"].measure == 30_000  # the paper's window

    def test_get_scale_passthrough(self):
        assert get_scale(TINY) is TINY
        assert get_scale("smoke") is SCALES["smoke"]

    def test_load_grid(self):
        grid = load_grid(TINY, 0.01)
        assert grid == [0.005, 0.01]
        assert all(x <= MAX_LOAD_BY_VCS[4] for x in load_grid(TINY, 0.016))


class TestValidSchemes:
    def test_pat100_at_4vcs(self):
        assert valid_schemes("PAT100", 4) == ["SA", "PR"]

    def test_pat721_at_4vcs(self):
        assert valid_schemes("PAT721", 4) == ["DR", "PR"]

    def test_pat721_at_8vcs(self):
        assert valid_schemes("PAT721", 8) == ["SA", "DR", "PR"]

    def test_pat280_at_4vcs(self):
        # Three types used: SA needs 6 VCs, DR and PR are fine.
        assert valid_schemes("PAT280", 4) == ["DR", "PR"]

    def test_pat280_at_8vcs(self):
        assert valid_schemes("PAT280", 8) == ["SA", "DR", "PR"]


class TestSweepScheme:
    def test_label_and_points(self):
        [sweep] = run_sweeps(curve(TINY, scheme="PR", pattern="PAT721",
                                   num_vcs=4, seed=3),
                             TINY.warmup, TINY.measure)
        assert sweep.label == "PR/PAT721/4vc"
        assert 1 <= len(sweep.points) <= 2
        assert all(p.scheme == "PR" for p in sweep.points)

    def test_qa_label(self):
        [label] = curve_labels(split_curves(curve(
            TINY, scheme="PR", pattern="PAT721", num_vcs=4, seed=3,
            queue_mode="per-type")))
        assert label.startswith("PR-QA/")

    @pytest.mark.parametrize("scheme, num_vcs",
                             [("SA", 8), ("DR", 4), ("PR", 4)])
    def test_curve_equal_on_both_backends(self, scheme, num_vcs):
        """A figure curve, 8x8 torus, light load to past saturation:
        the default backend draws the reference's curve."""
        short = Scale("short", warmup=500, measure=1000, sweep_points=3,
                      trace_duration=6000)
        vector, reference = (
            run_sweeps(curve(short, scheme=scheme, pattern="PAT721",
                             num_vcs=num_vcs, seed=3, **kwargs),
                       short.warmup, short.measure)[0]
            for kwargs in ({}, {"backend": "reference"})
        )
        assert vector.to_dict() == reference.to_dict()
        assert len(vector.points) == 3


class TestCharacterizationExperiments:
    def test_table1_runs_at_tiny_scale(self):
        rows = table1_responses.run(TINY)
        assert set(rows) == {"fft", "lu", "radix", "water"}
        for dist in rows.values():
            assert sum(dist.values()) == pytest.approx(1.0)

    def test_table3_structure(self):
        rows = table3_distributions.run("smoke")
        assert set(rows) == {"PAT100", "PAT721", "PAT451", "PAT271", "PAT280"}
        for row in rows.values():
            assert len(row["closed_form"]) == 4
            assert len(row["monte_carlo"]) == 4

    def test_runner_rejects_unknown_experiment(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["bogus"])


#: the shortest fault campaign whose PR cells still detect and
#: regenerate every lost token.
FAULTS_TINY = LabScale("tiny", run_cycles=1500, fault_start=300,
                       fault_duration=800, quiesce_cycles=100_000)
#: none-heavy first wedges into CWG knots after ~3,000 cycles; before
#: that, the endpoint detector's early declarations count as false
#: positives.
DETECTION_TINY = LabScale("tiny", run_cycles=3500, fault_start=300,
                          fault_duration=800, quiesce_cycles=100_000)


class TestLabs:
    """The engine-driving labs end to end.  Each raises when a guarantee
    it enforces breaks, so a run that returns is most of the check."""

    def test_topologies_and_cdg_lab_at_smoke(self):
        rows = topologies.run("smoke")
        assert len(rows) == 9
        assert all(r["lost"] == 0 for r in rows)
        result = cdg_lab.run("smoke")
        assert all(r["deadlocks"] for r in result["refuted"])
        assert len(result["certified"]) == 3

    def test_faults_campaign_and_traced_cells(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rows = faults.run(FAULTS_TINY)
        assert len(rows) == 39
        assert all(r["token_regenerations"]
                   for r in rows if r["model"] == "token-loss")
        traced = [r for r in rows if "episodes" in r]
        assert [(r["substrate"], r["scheme"], r["model"]) for r in traced] \
            == [("torus4x4", "DR", "consumer-stall"),
                ("torus4x4", "PR", "consumer-stall")]
        # PR detects, so episode 0 was checked against the detect column
        assert traced[1]["detect_latency"] is not None
        assert traced[1]["episodes"]
        assert sorted(p.name for p in (tmp_path / "results/telemetry")
                      .iterdir()) == ["DR_consumer-stall_tiny.json",
                                      "PR_consumer-stall_tiny.json"]

    def test_faults_raises_when_a_traced_row_differs(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        row = faults._run_cell("torus4x4", "PR", "consumer-stall",
                               FAULTS_TINY, 11)
        applied = Tracer.fault_applied

        def perturbing(self, description, now):
            applied(self, description, now)
            self.engine.stats.total.messages_delivered += 1

        monkeypatch.setattr(Tracer, "fault_applied", perturbing)
        with pytest.raises(RuntimeError, match="differs from the untraced"):
            faults._trace_cell(row, FAULTS_TINY, 11)

    def test_detection_lab(self):
        rows = detection_lab.run(DETECTION_TINY)
        assert len(rows) == 12
        heavy = [r for r in rows if r["cell"] == "none-heavy"]
        assert all(r["cwg_knots_seen"] for r in heavy)
        assert all(r["lost"] == 0 for r in rows if r["cell"].endswith("stall"))


class TestRunnerCli:
    def test_unknown_experiment_exits_nonzero(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as excinfo:
            runner.main(["bogus"])
        assert excinfo.value.code not in (0, None)

    def test_failed_experiment_returns_nonzero(self, monkeypatch, capsys):
        from repro.experiments import runner

        class Broken:
            @staticmethod
            def main(scale):
                raise RuntimeError("regeneration broke")

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", Broken)
        assert runner.main(["table1"]) == 1
        assert "table1" in capsys.readouterr().err

    def test_successful_run_returns_zero(self, monkeypatch, capsys):
        from repro.experiments import runner

        class Fine:
            @staticmethod
            def main(scale):
                print(f"ran at {scale}")

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", Fine)
        assert runner.main(["paper", "table1"]) == 0
        assert "ran at paper" in capsys.readouterr().out

    def test_parse_args_execution_flags(self):
        from repro.experiments import runner

        scale, names, execution = runner.parse_args(
            ["paper", "fig8", "--workers", "4", "--no-cache",
             "--cache-dir=/tmp/alt"]
        )
        assert scale == "paper" and names == ["fig8"]
        assert execution.workers == 4
        assert execution.use_cache is False
        assert execution.cache_dir == "/tmp/alt"

    def test_parse_args_defaults(self):
        from repro.experiments import runner

        scale, names, execution = runner.parse_args([])
        assert scale == "smoke"
        assert names == [*runner.EXPERIMENTS, *SCENARIOS]
        assert execution.workers == 1 and execution.use_cache is True

    def test_parse_args_rejects_bad_workers(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.parse_args(["--workers", "zero"])
