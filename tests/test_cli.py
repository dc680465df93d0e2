"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.config import SimConfig
from repro.util.options import from_args


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "PR" and args.num_vcs == 4

    def test_dims_parsing(self):
        args = build_parser().parse_args(["run", "--dims", "4x4x2"])
        assert from_args(SimConfig, args).dims == (4, 4, 2)

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "XYZ"])

    def test_fault_flags_build_specs(self):
        args = build_parser().parse_args([
            "run", "--fault", "consumer-stall:target=5,start=600,duration=100",
            "--fault", "token-loss:start=900",
            "--invariants-every", "250", "--watchdog", "8000",
        ])
        cfg = from_args(SimConfig, args, load=0.001)
        assert [f.kind for f in cfg.faults] == ["consumer-stall", "token-loss"]
        assert cfg.invariants_every == 250 and cfg.watchdog_timeout == 8000

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fault", "nonsense-kind"])


class TestCommands:
    def test_run_command(self, capsys):
        rc = main(["run", "--dims", "4x4", "--load", "0.004",
                   "--warmup", "200", "--measure", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "per-type breakdown" in out

    def test_sweep_command_with_json(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--dims", "4x4", "--loads", "0.002,0.004",
            "--warmup", "200", "--measure", "400", "--json", str(path),
            "--no-early-stop", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        data = json.loads(path.read_text())
        assert len(data["points"]) == 2
        assert data["points"][0]["load"] == 0.002

    def test_faulted_run_reports_activations(self, capsys):
        rc = main([
            "run", "--scheme", "PR", "--pattern", "PAT271", "--vcs", "4",
            "--dims", "4x4", "--load", "0.012", "--warmup", "1000",
            "--measure", "3000", "--invariants-every", "250",
            "--watchdog", "8000",
            "--fault", "consumer-stall:target=5,start=600,duration=2000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "consumer-stall@5" in out and "activated 1x" in out
        # faults, invariants and the watchdog all run on the kernel
        assert "engine              : vector\n" in out

    def test_wedged_run_exits_3_with_dump(self, capsys):
        # Stall every consumer permanently: the watchdog must convert the
        # hang into a diagnosed failure instead of spinning to --measure.
        argv = ["run", "--scheme", "DR", "--pattern", "PAT271", "--vcs", "4",
                "--dims", "4x4", "--load", "0.012", "--warmup", "500",
                "--measure", "8000", "--watchdog", "800"]
        for node in range(16):
            argv += ["--fault", f"consumer-stall:target={node},start=200"]
        rc = main(argv)
        assert rc == 3
        err = capsys.readouterr().err
        assert "FAILED" in err and "liveness watchdog" in err
        assert "controller=stalled" in err

    def test_run_json_to_stdout(self, capsys):
        rc = main([
            "run", "--scheme", "PR", "--pattern", "PAT271", "--vcs", "4",
            "--dims", "4x4", "--load", "0.012", "--warmup", "600",
            "--measure", "2000", "--json", "-",
            "--fault", "consumer-stall:target=5,start=600,duration=1200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[:out.index("\n}") + 2])
        assert payload["scheme"] == "PR" and payload["dims"] == [4, 4]
        assert payload["window"]["messages_delivered"] > 0
        assert "throughput_fpc" in payload["window"]
        assert payload["by_type"]  # per-type breakdown is present
        assert payload["faults"] == {
            "consumer-stall@5[start=600,dur=1200]": 1
        }
        assert payload["first_deadlock_cycle"] > 0
        assert payload["episodes"][0]["detection_cycle"] == (
            payload["first_deadlock_cycle"]
        )

    def test_run_json_on_vector_backend(self, tmp_path, capsys):
        """--json on the vector backend is the reference's document but
        for the engine it names, recovery episodes included (it used to
        drop them silently), and so are the trace and the time series."""
        base = [
            "run", "--scheme", "PR", "--pattern", "PAT271", "--vcs", "4",
            "--dims", "4x4", "--load", "0.02", "--warmup", "600",
            "--measure", "2000", "--sample-every", "100",
        ]
        out = {}
        for backend in ("reference", "vector"):
            paths = [tmp_path / f"{backend}.{ext}"
                     for ext in ("json", "trace.json", "csv")]
            assert main(base + [
                "--backend", backend, "--json", str(paths[0]),
                "--trace", str(paths[1]), "--timeseries", str(paths[2]),
            ]) == 0
            out[backend] = [p.read_text() for p in paths]
            payload = json.loads(out[backend][0])
            assert payload.pop("backend") == backend
            assert f"engine              : {backend}\n" in (
                capsys.readouterr().out)
            out[backend][0] = payload
        assert out["reference"] == out["vector"]
        assert out["vector"][0]["episodes"]

    def test_run_flit_trace_on_vector_backend_equals_reference(self, tmp_path,
                                                               capsys):
        traces = []
        for backend in ("vector", "reference"):
            traces.append(tmp_path / f"{backend}.json")
            assert main(["run", "--dims", "4x4", "--backend", backend,
                         "--warmup", "200", "--measure", "600", "--trace",
                         str(traces[-1]), "--trace-level", "flit"]) == 0
            assert f"engine              : {backend}\n" in (
                capsys.readouterr().out)
        assert traces[0].read_text() == traces[1].read_text()
        assert '"vc_grant"' in traces[0].read_text()

    @pytest.mark.parametrize("argv,says", [
        (["--dims", "2", "--pattern", "PAT721"],
         "pattern PAT721 needs at least 3 nodes, the network has 2"),
        (["--pattern", "FOO"], "unknown pattern 'FOO'"),
    ])
    def test_run_refused_by_the_engine_is_one_line_exit_2(self, argv, says,
                                                          capsys):
        assert main(["run", "--measure", "100", *argv]) == 2
        assert capsys.readouterr().err == f"repro run: error: {says}\n"

    def test_run_trace_and_timeseries_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        series = tmp_path / "run.csv"
        rc = main([
            "run", "--dims", "4x4", "--load", "0.004", "--warmup", "200",
            "--measure", "600", "--trace", str(trace), "--trace-level",
            "flit", "--sample-every", "50", "--timeseries", str(series),
        ])
        assert rc == 0
        from repro.telemetry import validate_perfetto

        validate_perfetto(json.loads(trace.read_text()))
        header = series.read_text().splitlines()[0]
        assert header.startswith("cycle,busy_links,")
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out and f"wrote {series}" in out

    def test_trace_command(self, tmp_path, capsys):
        path = tmp_path / "lu.trace"
        rc = main(["trace", "lu", str(path), "--duration", "3000"])
        assert rc == 0
        from repro.traffic.trace import read_trace

        assert len(read_trace(path)) > 0

    def test_experiments_command(self, capsys):
        rc = main(["experiments", "smoke", "table3"])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out

    def test_experiments_command_takes_the_runners_arguments(self, capsys):
        """A name with no scale, as ``python -m repro.experiments.runner
        table3`` takes it: one parser for both."""
        assert main(["experiments", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out


class TestCdgCheck:
    def test_list_names_every_builtin_pair(self, capsys):
        from repro.analysis import builtin_pairs

        assert main(["cdg-check", "--list"]) == 0
        out = capsys.readouterr().out
        for pair in builtin_pairs():
            assert pair.name in out

    def test_registry_gate_green_with_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "cdg_report.json"
        rc = main(["cdg-check", "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 gate failure(s)" in out
        payload = json.loads(path.read_text("utf-8"))
        from repro.analysis import builtin_pairs

        assert {r["name"] for r in payload} == {
            p.name for p in builtin_pairs()
        }
        refuted = next(r for r in payload if r["verdict"] == "REFUTED")
        assert refuted["cycle"] and refuted["annotation"]

    def test_single_pair_by_name(self, capsys):
        assert main(["cdg-check", "ring8-dor"]) == 0
        out = capsys.readouterr().out
        assert "verdict CERTIFIED" in out and "witness" in out

    def test_unknown_pair_rejected(self, capsys):
        assert main(["cdg-check", "nope"]) == 2
        assert "unknown pair" in capsys.readouterr().err

    def test_adhoc_refuted_pair_exits_nonzero(self, capsys):
        rc = main(["cdg-check", "--routing", "tfar", "--topology", "torus",
                   "--dims", "4", "--vcs", "2"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict REFUTED" in out and "dependency cycle" in out

    def test_adhoc_certified_mesh(self, capsys):
        rc = main(["cdg-check", "--routing", "duato", "--topology", "mesh2d",
                   "--dims", "3x3", "--vcs", "4"])
        assert rc == 0
        assert "verdict CERTIFIED" in capsys.readouterr().out

    def test_run_accepts_topology_flags(self, capsys):
        rc = main(["run", "--topology", "fullmesh", "--dims", "2x4",
                   "--load", "0.004", "--warmup", "200", "--measure", "500"])
        assert rc == 0
        assert "FullMesh" in capsys.readouterr().out


def _default_runs_import(module: str) -> None:
    """Fail if ``import repro.cli`` plus an untraced run on each backend,
    in a fresh interpreter, loads ``module``."""
    code = (
        "import sys; import repro.cli\n"
        "from repro.config import SimConfig\n"
        "from repro.sim.engine import build_engine\n"
        "for backend in ('reference', 'vector'):\n"
        "    build_engine(SimConfig(dims=(4, 4), backend=backend)).run(10)\n"
        f"sys.exit({module!r} in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr or f"{module} was imported"


class TestStartUp:
    def test_default_runs_never_import_networkx(self):
        """0.13 s and 15 MiB of every process, for graph functions (CWG,
        CDG search, ``to_networkx``) that no default run calls."""
        _default_runs_import("networkx")

    def test_untraced_runs_never_import_telemetry(self):
        """Tracers, samplers and Perfetto export load on first use;
        ``from repro.sim import run_with_monitor`` still works."""
        _default_runs_import("repro.telemetry")

    def test_serve_loads_the_kernel_before_it_takes_jobs(self, monkeypatch,
                                                         capsys):
        """No job pays the compile; without a compiler the service still
        starts and says its jobs will run on the reference engine."""
        from repro.service import http
        from repro.sim.vector import kernel

        calls = []

        async def run_service(**kwargs):
            calls.append("serve")

        def load_kernel():
            calls.append("load")
            raise kernel.KernelBuildError("no C compiler found")

        monkeypatch.setattr(http, "run_service", run_service)
        monkeypatch.setattr(kernel, "load_kernel", load_kernel)
        assert main(["serve", "--port", "0"]) == 0
        assert calls == ["load", "serve"]
        err = capsys.readouterr().err
        assert "no C compiler found" in err
        assert "jobs will run on the reference engine" in err
