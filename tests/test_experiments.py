"""Tests for the experiment harness (tiny custom scale for speed)."""

import pytest

from repro.config import SimConfig
from repro.experiments import (
    SCALES,
    Scale,
    table1_responses,
    table3_distributions,
)
from repro.experiments.common import (
    MAX_LOAD_BY_VCS,
    get_scale,
    load_grid,
    valid_schemes,
)
from repro.service.scenarios import SCENARIOS
from repro.sim.sweep import curve_labels, run_sweeps, split_curves

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
