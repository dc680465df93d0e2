"""Tests for repro.farm: planning, health, chaos, the manager, transports.

The campaign under test is tiny (4x4 torus, 100+200 cycles) so every
test's farm run finishes in well under a second per point; the
robustness machinery — retries, quarantine, hang abandonment,
speculation, resume — is exercised with injected faults and compared
bit-for-bit against serial ``run_points``.
"""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.config import ExecutionConfig, SimConfig
from repro.farm import (
    CampaignSpec,
    ChaosWorker,
    ExternalWorker,
    FarmManager,
    FarmPolicy,
    FarmWorker,
    HostHealth,
    LocalPoolWorker,
    SSHHostWorker,
    ShardJob,
    ShardOutcome,
    ShardTransportError,
    parse_hosts,
    parse_worker_fault,
    plan_shards,
)
from repro.farm.chaos import InjectedWorkerCrash, WorkerFaultSpec
from repro.farm.health import HEALTHY, PROBATION, QUARANTINED, SUSPECT
from repro.farm.remote import execute_job, serve_job_dir
from repro.sim.parallel import (
    ResultCache,
    point_key,
    resolve_points,
    run_points,
)
from repro.telemetry import Tracer
from repro.telemetry.export import PID_FARM, to_perfetto
from repro.util.backoff import BackoffPolicy
from repro.util.errors import ConfigurationError, SweepExecutionError

WARMUP = 100
MEASURE = 200
LOADS = (0.002, 0.004, 0.006, 0.008, 0.01)

#: a policy tuned so failure-path tests never wait on real backoff.
FAST = dict(
    backoff=BackoffPolicy(base=0.01, factor=2.0, cap=0.05),
    probation=0.05,
)


def tiny_configs(loads=LOADS):
    return tuple(SimConfig(dims=(4, 4), load=load) for load in loads)


def tiny_spec(loads=LOADS, shard_size=2, **kwargs):
    return CampaignSpec(configs=tiny_configs(loads), warmup=WARMUP,
                        measure=MEASURE, shard_size=shard_size, **kwargs)


def serial_results(loads=LOADS):
    return run_points(list(tiny_configs(loads)), WARMUP, MEASURE)


class CountingWorker(FarmWorker):
    """Wraps a worker, counting the points actually dispatched to it."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.points_run = 0

    def run_shard(self, job):
        self.points_run += len(job.shard.points)
        return self.inner.run_shard(job)


class TestPlanning:
    def test_plan_shards_contiguous_chunks(self):
        shards = plan_shards([3, 5, 7, 9, 11], 2)
        assert [s.points for s in shards] == [(3, 5), (7, 9), (11,)]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_plan_shards_validates_size(self):
        with pytest.raises(ConfigurationError):
            plan_shards([1, 2], 0)

    def test_campaign_spec_round_trip(self, tmp_path):
        spec = tiny_spec(name="trip")
        spec.save(tmp_path / "camp")
        loaded = CampaignSpec.load(tmp_path / "camp")
        assert loaded == spec
        assert loaded.point_keys() == spec.point_keys()

    def test_campaign_spec_load_missing_dir(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CampaignSpec.load(tmp_path / "nope")

    def test_campaign_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(configs=(), warmup=WARMUP, measure=MEASURE)
        with pytest.raises(ConfigurationError):
            tiny_spec(shard_size=0)

    def test_resolve_cached_partitions_points(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        done = run_points(list(spec.configs[:2]), WARMUP, MEASURE,
                          cache=cache)
        progress = resolve_points(spec.configs, WARMUP, MEASURE, cache)
        assert progress.keys == spec.point_keys()
        assert progress.total == len(LOADS)
        assert progress.cached == 2
        assert progress.missing == [2, 3, 4]
        assert progress.results[:2] == done
        assert progress.results[2:] == [None, None, None]


class TestHostHealth:
    def test_escalation_healthy_suspect_quarantined(self):
        h = HostHealth("w", suspect_after=1, quarantine_after=2,
                       probation_ms=100)
        assert h.state == HEALTHY and h.can_dispatch(0)
        assert h.record_failure(0, "boom") == SUSPECT
        assert h.can_dispatch(0)  # suspect hosts still take work
        assert h.record_failure(0, "boom") == QUARANTINED
        assert not h.can_dispatch(50)
        assert h.can_dispatch(100)  # probation delay elapsed

    def test_probe_success_restores_fully(self):
        h = HostHealth("w", quarantine_after=1, probation_ms=100)
        h.record_failure(0)
        h.begin_probation(100)
        assert h.state == PROBATION
        assert not h.can_dispatch(100)  # the probe is already in flight
        assert h.record_success(150) == HEALTHY
        assert h.consecutive_failures == 0

    def test_failed_probe_doubles_the_delay_capped(self):
        h = HostHealth("w", quarantine_after=1, probation_ms=100,
                       probation_cap_ms=300)
        h.record_failure(0)
        h.begin_probation(100)
        h.record_failure(100)
        assert h.state == QUARANTINED
        assert h.quarantined_until == 300  # 100 + doubled delay
        h.begin_probation(300)
        h.record_failure(300)
        assert h.quarantined_until == 600  # capped at 300ms, not 400
        # recovery resets the delay to its initial value
        h.begin_probation(600)
        h.record_success(600)
        h.record_failure(700)
        assert h.quarantined_until == 700 + 100

    def test_rank_prefers_healthy(self):
        healthy, suspect = HostHealth("a"), HostHealth("b")
        suspect.record_failure(0)
        assert healthy.rank() < suspect.rank()


class TestWorkerFaults:
    def test_parse_round_trip(self):
        spec = parse_worker_fault("crash:host=w0,at=1,count=2")
        assert spec == WorkerFaultSpec(kind="crash", host="w0", at=1, count=2)
        assert parse_worker_fault("hang:duration=0.5").duration == 0.5
        assert parse_worker_fault("garbage") == WorkerFaultSpec(kind="garbage")

    def test_parse_rejects_nonsense(self):
        for text in ("meltdown", "crash:at", "crash:at=x", "crash:when=3"):
            with pytest.raises(ConfigurationError):
                parse_worker_fault(text)

    def test_applies_window(self):
        spec = WorkerFaultSpec(kind="crash", host="w0", at=1, count=2)
        assert not spec.applies("w0", 0)
        assert spec.applies("w0", 1) and spec.applies("w0", 2)
        assert not spec.applies("w0", 3)
        assert not spec.applies("w1", 1)
        assert WorkerFaultSpec(kind="crash").applies("anyone", 0)

    def test_chaos_worker_crashes_on_schedule(self):
        inner = LocalPoolWorker("w0")
        chaos = ChaosWorker(inner, [parse_worker_fault("crash:at=0")])
        spec = tiny_spec(loads=(0.004,), shard_size=1)
        job = ShardJob(shard=plan_shards([0], 1)[0],
                       configs=spec.configs, warmup=WARMUP, measure=MEASURE)
        with pytest.raises(InjectedWorkerCrash):
            chaos.run_shard(job)
        # second dispatch is past the fault window and runs the real thing
        outcome = chaos.run_shard(job)
        assert outcome.ok and list(outcome.results) == [0]
        assert chaos.activations == ["crash[any,at=0]"]


class TestWireProtocol:
    def test_execute_job_round_trips_results(self):
        spec = tiny_spec(loads=(0.004, 0.006), shard_size=2)
        job = ShardJob(shard=plan_shards([0, 1], 2)[0],
                       configs=spec.configs, warmup=WARMUP, measure=MEASURE)
        # through JSON, as the ssh pipe and the job dir both do
        payload = json.loads(json.dumps(execute_job(job.to_wire())))
        outcome = ShardOutcome.from_wire(payload)
        assert outcome.ok
        assert list(outcome.results) == [0, 1]
        assert outcome.results[0] == serial_results((0.004, 0.006))[0]

    def test_execute_job_folds_errors_into_the_document(self):
        answer = execute_job({"warmup": 100})  # no points/measure
        assert answer["ok"] is False and answer["error"]

    def test_from_wire_rejects_malformed_documents(self):
        for payload in ({}, {"ok": True}, {"ok": True, "results": {"x": 3}}):
            with pytest.raises(ShardTransportError):
                ShardOutcome.from_wire(payload)
        refusal = ShardOutcome.from_wire({"ok": False, "error": "died"})
        assert not refusal.ok and refusal.error == "died"


class TestFarmManager:
    def test_farm_matches_serial_run(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        manager = FarmManager(
            [LocalPoolWorker(f"w{i}") for i in range(3)], cache=cache,
        )
        assert manager.run(spec) == serial_results()
        report = manager.report()
        assert report["computed"] == len(LOADS)
        assert report["cached"] == 0 and report["failed"] == []
        # every point landed in the cache under its own key
        assert all(cache.get(k) is not None for k in spec.point_keys())

    def test_chaos_campaign_is_bit_identical(self, tmp_path):
        """Crash + garbage workers: results never diverge from serial,
        the dead host is quarantined, and it all shows in the trace.

        w0 crashes instantly on every dispatch, so while w1 grinds a
        real shard every pending shard can only go to w0 — it reaches
        its second consecutive failure (quarantine) deterministically.
        """
        spec = tiny_spec()
        tracer = Tracer()
        cache = ResultCache(tmp_path / "cache")
        workers = [
            ChaosWorker(LocalPoolWorker("w0"),
                        [parse_worker_fault("crash:host=w0,count=99")]),
            ChaosWorker(LocalPoolWorker("w1"),
                        [parse_worker_fault("garbage:host=w1,at=0")]),
        ]
        manager = FarmManager(
            workers, cache=cache, tracer=tracer,
            policy=FarmPolicy(retries=6, **FAST),
        )
        assert manager.run(spec) == serial_results()
        attribution = manager.attribution()
        assert attribution["w0"]["state"] == QUARANTINED
        assert attribution["w0"]["shards_ok"] == 0
        # the corrupted outcome was rejected before it reached the cache
        assert "invalid results" in attribution["w1"]["last_error"]
        assert attribution["w1"]["shards_ok"] == 3  # every real shard
        kinds = {kind for _, kind, _ in tracer.events}
        assert {"farm_dispatch", "farm_shard_failed", "farm_backoff",
                "farm_suspect", "farm_quarantine", "farm_shard_done",
                "farm_merge"} <= kinds

    def test_hung_dispatch_is_abandoned_and_redispatched(self, tmp_path):
        spec = tiny_spec(loads=(0.004, 0.006), shard_size=2)
        workers = [
            ChaosWorker(LocalPoolWorker("w0"),
                        [parse_worker_fault("hang:host=w0,at=0,duration=5")]),
            LocalPoolWorker("w1"),
        ]
        manager = FarmManager(
            workers, cache=ResultCache(tmp_path / "cache"),
            policy=FarmPolicy(retries=2, hang_timeout=0.2, **FAST),
        )
        start = time.monotonic()
        assert manager.run(spec) == serial_results((0.004, 0.006))
        assert time.monotonic() - start < 5.0  # did not wait out the hang
        assert "hang:" in manager.attribution()["w0"]["last_error"]

    def test_straggler_is_speculatively_redispatched(self, tmp_path):
        # w1 sits on its shard for 2s with no hang_timeout armed; once
        # the queue drains, the manager must clone the shard onto the
        # idle fast host and take the first answer.
        spec = tiny_spec(loads=LOADS, shard_size=2)
        tracer = Tracer()
        workers = [
            LocalPoolWorker("w0"),
            ChaosWorker(LocalPoolWorker("w1"),
                        [parse_worker_fault("hang:host=w1,at=0,duration=2")]),
        ]
        manager = FarmManager(
            workers, cache=ResultCache(tmp_path / "cache"), tracer=tracer,
            policy=FarmPolicy(retries=2, straggler_factor=2.0,
                              straggler_min=0.05, **FAST),
        )
        start = time.monotonic()
        assert manager.run(spec) == serial_results()
        assert time.monotonic() - start < 2.0
        redispatches = [p for _, kind, p in tracer.events
                        if kind == "farm_redispatch"]
        assert redispatches and redispatches[0]["straggler"] == "w1"

    def test_resume_skips_cached_points(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        # a "killed" campaign left 3 of 5 points behind
        run_points(list(spec.configs[:3]), WARMUP, MEASURE, cache=cache)
        counting = CountingWorker(LocalPoolWorker("w0"))
        manager = FarmManager([counting], cache=cache)
        assert manager.run(spec) == serial_results()
        assert counting.points_run == 2  # only the missing points ran
        report = manager.report()
        assert report["cached"] == 3 and report["computed"] == 2
        # a second run is pure cache
        counting.points_run = 0
        assert FarmManager([counting], cache=cache).run(spec) \
            == serial_results()
        assert counting.points_run == 0

    def test_exhausted_retries_report_per_host_attribution(self, tmp_path):
        spec = tiny_spec(loads=(0.004,), shard_size=1)
        workers = [
            ChaosWorker(LocalPoolWorker(f"w{i}"),
                        [parse_worker_fault("crash:count=99")])
            for i in range(2)
        ]
        manager = FarmManager(
            workers, cache=ResultCache(tmp_path / "cache"),
            policy=FarmPolicy(retries=2, **FAST),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            manager.run(spec)
        message = str(excinfo.value)
        assert "per-host attribution" in message
        assert "w0" in message and "w1" in message
        assert excinfo.value.attribution["w0"]["shards_failed"] >= 1
        assert list(excinfo.value.failures) == [0]
        # the failure is sticky in the report too
        assert manager.report()["failed"] == [0]

    def test_campaign_completes_on_survivors(self, tmp_path):
        # one permanently dead host, one healthy: graceful degradation
        spec = tiny_spec()
        workers = [
            ChaosWorker(LocalPoolWorker("dead"),
                        [parse_worker_fault("crash:host=dead,at=0,count=99")]),
            LocalPoolWorker("alive"),
        ]
        manager = FarmManager(
            workers, cache=ResultCache(tmp_path / "cache"),
            policy=FarmPolicy(retries=4, **FAST),
        )
        assert manager.run(spec) == serial_results()
        attribution = manager.attribution()
        assert attribution["alive"]["shards_ok"] == 3
        assert attribution["dead"]["shards_ok"] == 0

    def test_manager_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FarmManager([], cache=None)
        with pytest.raises(ConfigurationError):
            FarmManager([LocalPoolWorker("same"), LocalPoolWorker("same")],
                        cache=None)
        with pytest.raises(ConfigurationError):
            FarmPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            FarmPolicy(hang_timeout=0.0)
        with pytest.raises(ConfigurationError):
            FarmPolicy(straggler_factor=1.0)

    def test_farm_trace_exports_to_perfetto(self, tmp_path):
        spec = tiny_spec()
        quarantined = threading.Event()

        class QuarantineWatch(Tracer):
            def farm_event(self, kind, now_ms, **payload):
                super().farm_event(kind, now_ms, **payload)
                if kind == "farm_quarantine":
                    quarantined.set()

        class AfterQuarantine(LocalPoolWorker):
            """Healthy, but answers nothing until w0 is quarantined: w0
            takes (and crashes) dispatches while this host is busy, so
            the quarantine does not depend on who finishes first."""

            def run_shard(self, job):
                assert quarantined.wait(timeout=30)
                return super().run_shard(job)

        tracer = QuarantineWatch()
        workers = [
            ChaosWorker(LocalPoolWorker("w0"),
                        [parse_worker_fault("crash:host=w0,at=0,count=3")]),
            AfterQuarantine("w1"),
        ]
        manager = FarmManager(
            workers, cache=ResultCache(tmp_path / "cache"), tracer=tracer,
            policy=FarmPolicy(retries=4, **FAST),
        )
        manager.run(spec)
        events = to_perfetto(tracer)["traceEvents"]
        farm = [e for e in events if e["pid"] == PID_FARM]
        # the farm process and each host got a named track
        names = {e["args"]["name"] for e in farm if e["ph"] == "M"}
        assert {"farm", "campaign", "w0", "w1"} <= names
        # dispatch->completion pairs render as duration spans per host
        spans = [e for e in farm if e["ph"] == "X"]
        assert spans and all(e["name"].startswith("shard ") for e in spans)
        # the quarantine decision is visible as an instant
        assert any(e["ph"] == "i" and e["name"] == "farm_quarantine"
                   for e in farm)

    def test_unserved_transport_gives_up_with_the_manager(self, tmp_path):
        """One deadline per dispatch: ``hang_timeout`` is when the
        manager abandons it *and* when the job-dir transport stops
        polling, so no dispatch thread outlives the campaign by the old
        600 s ``job_timeout``."""
        spec = tiny_spec(loads=LOADS[:3], shard_size=1)
        workers = [
            ExternalWorker("ext0", tmp_path / "nobody-serves",
                           poll_interval=0.01),
            LocalPoolWorker("w1"),
        ]
        manager = FarmManager(
            workers, cache=ResultCache(tmp_path / "cache"),
            policy=FarmPolicy(retries=4, hang_timeout=0.3, **FAST),
        )
        assert manager.run(spec) == serial_results(LOADS[:3])
        attribution = manager.attribution()
        assert attribution["w1"]["shards_ok"] == 3
        assert attribution["ext0"]["shards_ok"] == 0
        assert attribution["ext0"]["shards_failed"] >= 1
        # manager and transport give up at the same moment; whichever
        # notices first words the one charge
        error = attribution["ext0"]["last_error"]
        assert "hang: no answer in 0.3s" in error or "within 0.3s" in error
        # every ext dispatch thread has returned, or does within its own
        # 0.3 s deadline (generously bounded for a loaded machine)
        give_up = time.monotonic() + 10
        while time.monotonic() < give_up and any(
                t.name.startswith("farm") for t in threading.enumerate()):
            time.sleep(0.02)
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("farm")]


def _pipe_command():
    """Run ``repro.farm.remote`` in-process-equivalent via a subprocess
    whose import path is pinned to this checkout — the ssh transport
    minus the ssh."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return [
        sys.executable, "-c",
        f"import sys; sys.path.insert(0, {src!r});"
        " from repro.farm.remote import main; raise SystemExit(main([]))",
    ]


class TestTransports:
    def test_ssh_worker_full_wire_round_trip(self, tmp_path):
        spec = tiny_spec(loads=(0.004, 0.006), shard_size=2)
        worker = SSHHostWorker("pipe", command=_pipe_command())
        manager = FarmManager(
            [worker], cache=ResultCache(tmp_path / "cache"),
        )
        assert manager.run(spec) == serial_results((0.004, 0.006))

    def test_ssh_worker_dead_pipe_is_a_transport_error(self):
        worker = SSHHostWorker(
            "dead", command=[sys.executable, "-c", "import sys; sys.exit(3)"],
        )
        job = ShardJob(shard=plan_shards([0], 1)[0],
                       configs=tiny_configs((0.004,)),
                       warmup=WARMUP, measure=MEASURE)
        with pytest.raises(ShardTransportError, match="exit 3"):
            worker.run_shard(job)

    def test_ssh_worker_garbage_stdout_is_a_transport_error(self):
        worker = SSHHostWorker(
            "noise", command=[sys.executable, "-c", "print('not json')"],
        )
        job = ShardJob(shard=plan_shards([0], 1)[0],
                       configs=tiny_configs((0.004,)),
                       warmup=WARMUP, measure=MEASURE)
        with pytest.raises(ShardTransportError, match="unreadable"):
            worker.run_shard(job)

    def test_external_worker_through_job_dir(self, tmp_path):
        root = tmp_path / "ext"
        agent = threading.Thread(
            target=serve_job_dir, args=(root,),
            kwargs=dict(idle_timeout=30, poll_interval=0.01), daemon=True,
        )
        agent.start()
        try:
            spec = tiny_spec(loads=(0.004, 0.006), shard_size=1)
            worker = ExternalWorker("ext0", root, poll_interval=0.01)
            manager = FarmManager(
                [worker], cache=ResultCache(tmp_path / "cache"),
            )
            assert manager.run(spec) == serial_results((0.004, 0.006))
        finally:
            (root / "stop").write_text("", "utf-8")
            agent.join(timeout=10)
        assert not agent.is_alive()


class TestParseHosts:
    def test_parses_every_kind(self):
        workers = parse_hosts("local,local:4,ssh:nodeA,ext:/tmp/jobs")
        assert [type(w).__name__ for w in workers] == [
            "LocalPoolWorker", "LocalPoolWorker", "SSHHostWorker",
            "ExternalWorker",
        ]
        assert workers[1].workers == 4
        assert workers[2].host == "nodeA"
        assert str(workers[3].root) == "/tmp/jobs"
        # names are unique, so one machine can appear twice
        assert len({w.name for w in workers}) == 4

    def test_rejects_nonsense(self):
        for text in ("", "warp:9", "local:0", "local:x", "ssh:", "ext:"):
            with pytest.raises(ConfigurationError):
                parse_hosts(text)


class TestFarmExecutor:
    """The farm behind the run_points contract (sweeps, experiments)."""

    def test_farm_width_counts_local_slots(self):
        # a local worker takes one dispatch per process, a remote
        # transport one at a time however wide the far machine is
        workers = parse_hosts("local:3,local,ssh:nodeA,ext:/tmp/jobs")
        assert [w.slots for w in workers] == [3, 1, 1, 1]
        chaos = ChaosWorker(workers[0], [])
        assert chaos.slots == 3

    def test_ordered_and_bit_identical_to_run_points(self):
        loads = LOADS[:3]
        got = run_points(
            tiny_configs(loads), WARMUP, MEASURE,
            workers=parse_hosts("local,local"),
        )
        assert got == serial_results(loads)

    def test_wide_host_takes_a_dispatch_per_slot(self, tmp_path):
        # one local:2 host: two shards in flight at once, one process each
        spec = tiny_spec(loads=LOADS[:4], shard_size=1)
        tracer = Tracer()
        [worker] = parse_hosts("local:2")
        manager = FarmManager([worker], cache=ResultCache(tmp_path / "c"),
                              tracer=tracer)
        assert manager.run(spec) == serial_results(LOADS[:4])
        inflight = peak = 0
        for _, kind, _ in tracer.events:
            if kind == "farm_dispatch":
                inflight += 1
                peak = max(peak, inflight)
            elif kind == "farm_shard_done":
                inflight -= 1
        assert peak == 2

    def test_run_sweep_routes_through_farm(self, tmp_path):
        from repro.sim.sweep import run_sweep

        execution = ExecutionConfig(
            farm_hosts="local:2,local",
            cache_dir=str(tmp_path / "cache"),
        )
        config = SimConfig(dims=(4, 4))
        loads = list(LOADS[:3])
        farmed = run_sweep(config, loads, WARMUP, MEASURE,
                           execution=execution)
        serial = run_sweep(config, loads, WARMUP, MEASURE,
                           execution=ExecutionConfig(use_cache=False))
        assert farmed.points == serial.points
        # the farm populated the shared per-point cache
        cache = ResultCache(execution.cache_dir)
        for load in loads:
            key = point_key(config.with_(load=load), WARMUP, MEASURE)
            assert cache.get(key) is not None

    def test_runner_accepts_hosts_flag(self, capsys):
        from repro.experiments import runner

        _, _, execution = runner.parse_args(["--hosts", "local:2,local"])
        assert execution.farm_hosts == "local:2,local"
        # the same two rejections as ever, now argparse's: exit status
        # 2 and a message naming the flag (and, for a bad spec, why)
        for argv, why in ((["--hosts"], "expected one argument"),
                          (["--hosts", "warp:9"], "unknown host kind")):
            with pytest.raises(SystemExit) as excinfo:
                runner.parse_args(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "--hosts" in err and why in err

    def test_execution_config_rejects_blank_hosts(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(farm_hosts="  ")


class TestOneScheduler:
    """Every front end executes through the same manager: the same tiny
    campaign yields equal results and byte-identical cache files
    whichever way it comes in."""

    @staticmethod
    def _cache_files(root):
        return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}

    def test_every_front_end_agrees(self, tmp_path):
        import asyncio

        from repro.service.jobs import JobManager

        loads = LOADS[:3]
        configs = list(tiny_configs(loads))
        spec = tiny_spec(loads, shard_size=2)
        runs = {}

        def through_run_points(name, **kwargs):
            cache = ResultCache(tmp_path / name)
            runs[name] = run_points(configs, WARMUP, MEASURE, cache=cache,
                                    **kwargs)

        through_run_points("serial", workers=1)
        through_run_points("processes", workers=3)
        through_run_points("timed", workers=1, timeout=60.0)

        chaotic = [
            LocalPoolWorker("steady", workers=2),
            ChaosWorker(LocalPoolWorker("flaky"),
                        [parse_worker_fault("crash:host=flaky,at=0"),
                         parse_worker_fault("garbage:host=flaky,at=1")]),
        ]
        runs["farm"] = FarmManager(
            chaotic, cache=ResultCache(tmp_path / "farm"),
            policy=FarmPolicy(retries=4, **FAST),
        ).run(spec)

        async def through_the_service():
            manager = JobManager(cache_dir=tmp_path / "service",
                                 jobs_dir=tmp_path / "jobs")
            await manager.start()
            try:
                job, _ = manager.submit(spec)
                while job.state not in ("done", "failed", "cancelled"):
                    await asyncio.sleep(0.02)
                assert job.state == "done", job.error
                return job.results
            finally:
                await manager.shutdown()

        runs["service"] = asyncio.run(through_the_service())

        assert all(results == runs["serial"] for results in runs.values())
        reference = self._cache_files(tmp_path / "serial")
        assert sorted(reference) == sorted(
            f"{key}.json" for key in spec.point_keys()
        )
        for name in runs:
            assert self._cache_files(tmp_path / name) == reference, name


class TestFarmCLI:
    def test_plan_run_status_cycle(self, tmp_path, capsys):
        from repro.cli import main

        camp = str(tmp_path / "camp")
        cache = str(tmp_path / "cache")
        assert main(["farm", "plan", camp, "--dims", "4x4",
                     "--loads", "0.004,0.006", "--warmup", str(WARMUP),
                     "--measure", str(MEASURE), "--shard-size", "1"]) == 0
        assert main(["farm", "run", camp, "--hosts", "local,local",
                     "--cache-dir", cache,
                     "--trace", str(tmp_path / "trace.json")]) == 0
        out = capsys.readouterr().out
        assert "2 computed" in out
        trace = json.loads((tmp_path / "trace.json").read_text("utf-8"))
        assert any(e.get("pid") == PID_FARM for e in trace["traceEvents"])
        state = json.loads((Path(camp) / "state.json").read_text("utf-8"))
        assert state["computed"] == 2 and state["failed"] == []
        assert main(["farm", "status", camp, "--cache-dir", cache]) == 0
        assert "2/2 points cached" in capsys.readouterr().out
        # resume finds everything in cache
        assert main(["farm", "resume", camp, "--hosts", "local",
                     "--cache-dir", cache]) == 0
        assert "0 computed" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["unknown-field", "torn"])
    @pytest.mark.parametrize("command", ["run", "resume", "status"])
    def test_unreadable_plan_is_one_line_and_exit_2(
            self, tmp_path, capsys, damage, command):
        """A plan another version wrote (a config key this one lacks) or
        a torn file is a usage error naming the problem, not a traceback."""
        from repro.cli import main

        camp = tmp_path / "camp"
        tiny_spec().save(camp)
        path = camp / "campaign.json"
        if damage == "unknown-field":
            payload = json.loads(path.read_text("utf-8"))
            payload["configs"][0]["retired_knob"] = "x"
            path.write_text(json.dumps(payload), "utf-8")
            expected = "retired_knob"
        else:
            text = path.read_text("utf-8")
            path.write_text(text[: len(text) // 2], "utf-8")
            expected = str(path)
        capsys.readouterr()
        args = ["farm", command, str(camp),
                "--cache-dir", str(tmp_path / "cache")]
        if command != "status":
            args += ["--hosts", "local"]
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and expected in err[0], err
