"""The CI pipeline definition must stay valid and cover the right steps."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
REQUIREMENTS = REPO / "requirements-ci.txt"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text("utf-8"))


def setup_python_steps(job):
    return [s for s in job["steps"] if "setup-python" in (s.get("uses") or "")]


class TestWorkflow:
    def test_parses_and_has_jobs(self, workflow):
        assert workflow["name"] == "CI"
        # YAML 1.1 reads the `on:` trigger key as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers and "push" in triggers
        assert set(workflow["jobs"]) == {
            "lint", "typecheck", "test", "smoke-benchmark", "fault-smoke",
            "backend-equivalence", "detection-smoke", "farm-smoke",
            "topology-smoke", "cdg-certify", "service-smoke", "bench-smoke",
        }

    def test_concurrency_cancels_superseded_runs(self, workflow):
        conc = workflow["concurrency"]
        assert conc["cancel-in-progress"] is True
        # Group must be per-ref so unrelated branches don't cancel each
        # other, only newer pushes to the same ref.
        assert "github.ref" in conc["group"]

    def test_every_job_caches_pip_on_the_pinned_requirements(self, workflow):
        for name, job in workflow["jobs"].items():
            steps = setup_python_steps(job)
            assert steps, f"{name}: no setup-python step"
            for step in steps:
                with_ = step["with"]
                assert with_.get("cache") == "pip", f"{name}: pip cache off"
                assert with_.get("cache-dependency-path") == "requirements-ci.txt", name
            runs = " ".join(s.get("run") or "" for s in job["steps"])
            assert "pip install -r requirements-ci.txt" in runs, name

    def test_requirements_file_is_fully_pinned(self):
        lines = [
            line.strip() for line in REQUIREMENTS.read_text("utf-8").splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
        assert lines, "requirements-ci.txt is empty"
        for line in lines:
            assert "==" in line, f"unpinned CI dependency: {line}"

    def test_python_matrix(self, workflow):
        matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_lint_runs_ruff(self, workflow):
        steps = workflow["jobs"]["lint"]["steps"]
        assert any("ruff check" in (s.get("run") or "") for s in steps)

    def test_typecheck_runs_mypy_on_package(self, workflow):
        steps = workflow["jobs"]["typecheck"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        assert "mypy src/repro" in runs

    def test_test_job_runs_pytest_with_src_on_path(self, workflow):
        steps = workflow["jobs"]["test"]["steps"]
        run_step = next(
            s for s in steps if "python -m pytest" in (s.get("run") or "")
        )
        assert run_step["env"]["PYTHONPATH"] == "src"

    def test_smoke_job_exercises_runner_and_parallel_sweep(self, workflow):
        steps = workflow["jobs"]["smoke-benchmark"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        # the paper's nine acceptance tests (Table 1 among them)
        assert "python -m pytest -m paper -q" in runs
        assert "--workers 4" in runs
        # the process-kill worker is started on a real runner too
        assert "--point-timeout" in runs
        # one flag per dataclass that no add_argument call spells: they
        # exist because SimConfig / ExecutionConfig declare the field
        assert "repro.cli run --dims 4x4 --max-outstanding 12" in runs
        sweeps = [line for line in runs.split("python -m ") if "sweep" in line]
        assert any("--hosts local:2" in line and "--no-cache" in line
                   for line in sweeps)

    def test_smoke_job_checks_the_sweep_resume_is_all_cached(self, workflow):
        steps = workflow["jobs"]["smoke-benchmark"]["steps"]
        [run] = [s["run"] for s in steps
                 if "--cache-dir .repro_cache" in (s.get("run") or "")]
        first, resume = [
            line for line in run.split("python -m ")
            if line.startswith("repro.cli sweep") and ".repro_cache" in line
        ]
        # The same sweep twice on one cache; the second run's progress
        # (stderr) is captured and its final line must say all 3 cached.
        assert first.split("--cache-dir")[0] == resume.split("--cache-dir")[0]
        assert "2> resume.err" in resume
        assert 'tail -n 1 resume.err | grep -F "[3/3] 3 cached"' in resume

    def test_fault_smoke_runs_campaign_and_faulted_cli(self, workflow):
        steps = workflow["jobs"]["fault-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        assert "repro.experiments.runner smoke faults" in runs
        assert "--fault consumer-stall:" in runs
        assert "--watchdog" in runs and "--invariants-every" in runs
        # faults, not the observers, keep the run on the reference engine
        assert "grep -Eq '^engine +: reference \\(fault injection'" in runs

    def test_detection_smoke_runs_lab_and_cmh_cli(self, workflow):
        steps = workflow["jobs"]["detection-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        # The lab's run() raises on any broken guarantee, so the
        # runner's exit code is the gate.
        assert "repro.experiments.runner smoke detection_lab" in runs
        # And one end-to-end CMH run through the CLI, with the CWG
        # ground-truth checker armed alongside the probes.
        assert "--detector cmh" in runs
        assert "--cwg-interval" in runs
        for step in steps:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_farm_smoke_runs_chaos_suite_and_cli_campaign(self, workflow):
        steps = workflow["jobs"]["farm-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        # the robustness suite (tests/test_farm.py, test_parallel.py,
        # test_cache_concurrency.py) is the `test` matrix's; this job
        # keeps the CLI leg, which proves the operator path end to end
        assert "pytest" not in runs
        assert "farm plan" in runs and "farm run" in runs
        assert "--chaos crash:" in runs and "--chaos hang:" in runs
        assert "--hang-timeout" in runs
        assert "farm resume" in runs
        # the resume is checked, not just run: nothing left to compute,
        # and the entries it read keep the layout operators rely on
        after_resume = runs[runs.index("farm resume"):]
        assert "farm status" in after_resume
        assert '"3/3 points cached, 0 to compute"' in after_resume
        assert 'glob.glob(".repro_cache/*.json")' in after_resume
        assert 'next(iter(json.loads(e))) == "result"' in after_resume
        assert 'e.count("\\n") == 1' in after_resume
        for step in steps:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_topology_smoke_runs_campaign_and_file_topology_cli(self, workflow):
        steps = workflow["jobs"]["topology-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        # The campaign's run() raises on any broken guarantee (drain,
        # conservation, SA knot-freedom), so the runner exit code gates.
        assert "repro.experiments.runner smoke topologies" in runs
        # And one end-to-end run on a JSON-loaded irregular graph.
        assert "--topology file" in runs
        assert "--topology-file" in runs
        assert "--watchdog" in runs and "--invariants-every" in runs
        # with invariants and watchdog armed it runs on the kernel
        assert "grep -Eq '^engine +: vector$'" in runs
        # And a 1024-router torus through a real subprocess: on the
        # kernel, with the child's peak RSS bounded.
        assert '"--dims", "32x32"' in runs and '"--scheme", "PR"' in runs
        assert r'r"^engine\s*: vector$"' in runs
        assert "resource.RUSAGE_CHILDREN" in runs and "rss < 200" in runs
        for step in steps:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_cdg_certify_gates_on_registry_and_uploads_witnesses(self, workflow):
        job = workflow["jobs"]["cdg-certify"]
        runs = " ".join(s.get("run") or "" for s in job["steps"])
        # No pair arguments: the whole built-in registry is audited, and
        # cdg-check exits 1 on a mismatch or un-annotated REFUTED pair.
        assert "repro.cli cdg-check" in runs
        assert "--json cdg_report.json" in runs
        upload = next(
            s for s in job["steps"] if "upload-artifact" in (s.get("uses") or "")
        )
        # Witness orderings / refutation cycles must survive a red run.
        assert upload["if"] == "always()"
        assert upload["with"]["path"] == "cdg_report.json"
        for step in job["steps"]:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_service_smoke_runs_suite_and_http_flow(self, workflow):
        job = workflow["jobs"]["service-smoke"]
        runs = " ".join(s.get("run") or "" for s in job["steps"])
        # The deterministic suite (framing, backpressure, job manager)
        # is the `test` matrix's; this job keeps only what needs a real
        # subprocess.
        assert "pytest" not in runs
        test_runs = " ".join(
            s.get("run") or "" for s in workflow["jobs"]["test"]["steps"]
        )
        assert "python -m pytest" in test_runs
        # The operator path: a real serve process, a scenario submitted
        # over HTTP, SSE progress + samples asserted, and a clean drain
        # (server exit code 0).
        assert '"serve"' in runs
        assert "client.submit(" in runs
        assert "stream_events" in runs
        assert '"sample" in kinds' in runs and '"done" in kinds' in runs
        # The job ran on the vector backend and traced nothing: the
        # trace is built by the first request, served from the file by
        # the second, and is the one the reference engine produces for
        # the same campaign — also for a fully cached job.
        assert 'job["backends"] == ["vector"]' in runs
        assert '"untraced" not in job' in runs
        assert "assert not os.path.exists(trace_file)" in runs
        assert runs.count("client.trace(jid)") == 2
        assert "st_mtime_ns == built" in runs
        assert 'in_process("ci_reference_cache", backend="reference")' in runs
        # the cached resubmission is the campaign as the library builds
        # it (no engine named), so it is the server's job
        assert 'in_process(".repro_cache")' in runs
        assert "cached.id == jid" in runs
        assert "trace == reference_trace" in runs
        assert "cached.computed == 0" in runs
        assert "cached_trace == trace" in runs
        assert "client.shutdown()" in runs
        assert "srv.wait" in runs
        upload = next(
            s for s in job["steps"] if "upload-artifact" in (s.get("uses") or "")
        )
        assert upload["if"] == "always()"
        assert upload["with"]["path"] == "service_trace.json"
        for step in job["steps"]:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_bench_smoke_runs_quick_mode_and_the_benchmarks_tests(self, workflow):
        job = workflow["jobs"]["bench-smoke"]
        runs = [s.get("run") or "" for s in job["steps"]]
        # The repository's one benchmark command in smoke mode (its exit
        # code carries the correctness checks), then its own tests,
        # which tier-1 does not collect (testpaths = tests).
        assert "python3 -m bench --quick" in runs
        assert "python -m pytest bench/ -q" in runs
        assert runs.index("python3 -m bench --quick") < runs.index(
            "python -m pytest bench/ -q"
        )
        upload = next(
            s for s in job["steps"] if "upload-artifact" in (s.get("uses") or "")
        )
        assert upload["if"] == "always()"
        assert upload["with"]["path"] == "bench/out/results.json"

    def test_bench_smoke_gates_the_vector_speedup_floor(self, workflow):
        """The one thing the old ``engine-speedup`` job pinned, on the
        layered benchmark's numbers: same cell, both backends, 2.0x."""
        job = workflow["jobs"]["bench-smoke"]
        runs = [s.get("run") or "" for s in job["steps"]]
        [gate] = [r for r in runs if "2.0 * ref" in r]
        assert runs.index("python3 -m bench --quick") < runs.index(gate)
        assert "bench/out/results.json" in gate
        assert "ref-sat-8x8" in gate and "vec-sat-8x8" in gate
        assert "sim_cycles_per_s" in gate
        assert "assert vec >= 2.0 * ref" in gate

    def test_backend_equivalence_runs_default_and_campaign_grid(self, workflow):
        steps = workflow["jobs"]["backend-equivalence"]["steps"]
        runs = [s.get("run") or "" for s in steps if s.get("run")]
        eq_runs = [r for r in runs if "tests/test_backend_equivalence.py" in r]
        # This job runs the full seeded smoke campaign grid (pytest -m
        # campaign, deselected from the default suite by pyproject
        # addopts); the default ladder/property pass of the same file is
        # collected by the `test` matrix (testpaths = tests).
        assert eq_runs and all("-m campaign" in r for r in eq_runs)
        test_runs = [s.get("run") or ""
                     for s in workflow["jobs"]["test"]["steps"]]
        assert "python -m pytest -x -q" in test_runs
        for step in steps:
            if step.get("run") and "pytest" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_gitignore_covers_generated_dirs(self):
        gitignore = (WORKFLOW.parents[2] / ".gitignore").read_text("utf-8")
        for entry in ("*.egg-info/", "__pycache__/", ".pytest_cache/",
                      ".hypothesis/", ".repro_cache/",
                      "results/"):
            assert entry in gitignore
