"""Campaign service tests: scenarios, SSE, jobs, HTTP API, shutdown.

The slow-client/backpressure and framing tests run at the broker level
(deterministic, no sockets); the API round-trip tests run a real
``CampaignServer`` on an ephemeral port with the blocking client in a
thread, exactly as the CLI uses it.
"""

import asyncio
import json
import threading

import pytest

from repro.experiments.common import Scale
from repro.farm.plan import CampaignSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import CampaignServer
from repro.service.jobs import JobManager, job_id_for
from repro.service.scenarios import (
    SCENARIOS,
    build_campaign,
    describe_scenarios,
    get_scenario,
    scenario_names,
)
from repro.service.sse import EventBroker, format_sse, parse_sse
from repro.sim import sweep as sweep_module
from repro.sim.engine import build_engine, resolve_backend
from repro.sim.parallel import ResultCache, point_key, run_points
from repro.sim.sweep import run_point
from repro.sim.vector.fabric import H_TRACE
from repro.telemetry import Tracer, to_perfetto
from repro.util.errors import ConfigurationError, SimulationError

#: tiny windows keep every service test interactive-fast while still
#: simulating real traffic (deliveries > 0 at these loads).
TINY = Scale("tiny", warmup=100, measure=200, sweep_points=2,
             trace_duration=1000)


def tiny_campaign(load: float = 0.008, seed: int = 3,
                  points: int = 2) -> CampaignSpec:
    from repro.config import SimConfig

    configs = tuple(
        SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271", num_vcs=4,
                  load=load + 0.002 * i, seed=seed)
        for i in range(points)
    )
    return CampaignSpec(configs=configs, warmup=TINY.warmup,
                        measure=TINY.measure, name="tiny")


def pinned(spec: CampaignSpec, backend: str) -> CampaignSpec:
    """``spec`` with every point's engine named, not left to ``auto``."""
    return CampaignSpec(
        configs=tuple(c.with_(backend=backend) for c in spec.configs),
        warmup=spec.warmup, measure=spec.measure,
        name=f"{spec.name}-{backend}",
    )


def traced_run(spec: CampaignSpec, idx: int, level: str = "message",
               sample_every: int = 50) -> Tracer:
    """Point ``idx`` of ``spec`` run here, under a full tracer."""
    tracer = Tracer(level=level, sample_every=sample_every, capacity=20_000)
    build_engine(spec.configs[idx], tracer).run_measured(
        spec.warmup, spec.measure)
    return tracer


def eager_job_trace(spec: CampaignSpec, indices, **tracer_kwargs) -> bytes:
    """The document the service wrote at the end of every in-process job
    before traces were built on request, kept as the reference: each
    point's stand-alone Perfetto trace, copied event by event into the
    point's pid block with its process names prefixed."""
    events = []
    other = {"points": len(indices)}
    for idx in indices:
        config = spec.configs[idx]
        trace = to_perfetto(traced_run(spec, idx, **tracer_kwargs))
        base = 1000 * (idx + 1)
        label = f"point{idx} load={config.load:g} {config.scheme}"
        for event in trace["traceEvents"]:
            ev = dict(event)
            ev["pid"] = base + ev["pid"]
            if event.get("ph") == "M" and event.get("name") == "process_name":
                ev["args"] = {"name": f"{label}: {event['args']['name']}"}
            events.append(ev)
        other[f"point{idx}"] = trace["otherData"]
    doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


class TestScenarioRegistry:
    def test_every_name_resolves(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            assert scenario.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-scenario")

    def test_backend_of_every_scenario(self):
        """Every scenario, fault storms and CWG cells included, runs on
        the kernel of a host that builds it, and the listing says so."""
        for entry in describe_scenarios():
            name = entry["name"]
            configs = build_campaign(name, TINY).configs
            # the library declares no engine; the one function decides
            assert {c.backend for c in configs} == {"auto"}, name
            assert {resolve_backend(c) for c in configs} == {
                ("vector", None)}, name
            assert entry["backend"] == "vector", name
            assert entry["backend_reason"] is None, name

    def test_one_point_has_one_key_whichever_front_end_built_it(
            self, tmp_path, monkeypatch, capsys):
        """``baseline-pr`` as the library, ``repro sweep``, ``farm plan``
        and the experiment runner build it: the same configs, so the same
        cache entries — a campaign computed by one is cached for all."""
        from repro.cli import main
        from repro.experiments import runner

        library = build_campaign("baseline-pr", TINY)
        keys = [point_key(c, TINY.warmup, TINY.measure)
                for c in library.configs]
        cell = ["--dims", "4x4", "--scheme", "PR", "--pattern", "PAT271",
                "--vcs", "4", "--loads", "0.008,0.016",
                "--warmup", str(TINY.warmup), "--measure", str(TINY.measure)]
        cache = tmp_path / "cache"

        assert main(["sweep", *cell, "--no-early-stop",
                     "--cache-dir", str(cache)]) == 0
        assert sorted(p.stem for p in cache.glob("*.json")) == sorted(keys)

        assert main(["farm", "plan", str(tmp_path / "camp"), *cell]) == 0
        planned = CampaignSpec.load(tmp_path / "camp")
        assert planned.configs == library.configs

        swept = []
        monkeypatch.setattr(
            runner, "run_sweeps",
            lambda configs, warmup, measure, **kwargs: swept.extend(configs),
        )
        runner.run_campaign("baseline-pr", TINY)
        assert tuple(swept) == library.configs

        warm = ResultCache(cache)
        run_points(list(library.configs), TINY.warmup, TINY.measure,
                   cache=warm)
        assert (warm.hits, warm.misses) == (len(keys), 0)

    def test_one_campaign_for_every_front_end(self, monkeypatch):
        """``fig11`` as the library builds it, as the runner runs it and
        as ``tests/test_paper.py`` runs it: one list of point keys, and
        the paper tests use every CPU they may."""
        import os

        from repro.experiments import runner
        from tests.test_paper import figure_curves

        def keys(configs, warmup, measure):
            return [point_key(c, warmup, measure) for c in configs]

        library = build_campaign("fig11", TINY)
        ran = []
        monkeypatch.setattr(
            runner, "run_sweeps",
            lambda configs, warmup, measure, **kwargs: ran.append(
                (keys(configs, warmup, measure), kwargs["execution"])),
        )
        runner.run_campaign("fig11", TINY)
        figure_curves("fig11", TINY)
        (by_runner, _), (by_paper_test, execution) = ran
        assert keys(library.configs, library.warmup, library.measure) \
            == by_runner == by_paper_test
        assert execution.workers == len(os.sched_getaffinity(0))

    def test_expected_categories_present(self):
        categories = {s.category for s in SCENARIOS.values()}
        assert {"figure", "ablation", "synthetic", "splash", "adversarial",
                "faults", "cdg"} <= categories

    def test_every_scenario_builds_nonempty_campaign(self):
        for name in scenario_names():
            spec = build_campaign(name, TINY)
            assert len(spec.configs) > 0, name
            assert spec.warmup == TINY.warmup
            assert spec.name == f"{name}@tiny"

    @pytest.mark.parametrize("name", scenario_names())
    def test_first_point_of_each_scenario_runs(self, name):
        spec = build_campaign(name, TINY)
        result = run_point(spec.configs[0], spec.warmup, spec.measure)
        assert result.cycles == TINY.measure

    def test_describe_is_json_roundtrippable(self):
        listing = describe_scenarios()
        assert json.loads(json.dumps(listing)) == listing
        assert {entry["name"] for entry in listing} == set(scenario_names())

    def test_campaign_spec_roundtrips_through_json(self):
        for name in scenario_names():
            spec = build_campaign(name, TINY)
            clone = CampaignSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert clone.point_keys() == spec.point_keys()

    def test_seed_and_window_overrides(self):
        spec = build_campaign("baseline-pr", TINY, seed=99, warmup=50,
                              measure=75)
        assert all(c.seed == 99 for c in spec.configs)
        assert (spec.warmup, spec.measure) == (50, 75)

    def test_same_inputs_same_job_id(self):
        a = build_campaign("baseline-pr", TINY, seed=7)
        b = build_campaign("baseline-pr", TINY, seed=7)
        c = build_campaign("baseline-pr", TINY, seed=8)
        assert job_id_for(a) == job_id_for(b)
        assert job_id_for(a) != job_id_for(c)


class TestSseFraming:
    def test_roundtrip_single_event(self):
        wire = format_sse("progress", {"done": 3}, event_id=7)
        [(event, data, event_id)] = parse_sse(wire.decode().splitlines())
        assert event == "progress"
        assert json.loads(data) == {"done": 3}
        assert event_id == 7

    def test_multiline_data_split_and_rejoined(self):
        wire = format_sse("log", "line one\nline two")
        assert wire.count(b"data:") == 2
        [(_, data, _)] = parse_sse(wire.decode().splitlines())
        assert data == "line one\nline two"

    def test_comments_ignored_and_frames_delimited(self):
        stream = (
            b": keepalive\n\n" + format_sse("a", "1", 1)
            + format_sse("b", "2", 2)
        )
        events = list(parse_sse(stream.decode().splitlines()))
        assert [(e, d) for e, d, _ in events] == [("a", "1"), ("b", "2")]

    def test_parses_byte_lines(self):
        wire = format_sse("x", {"k": "v"})
        events = list(parse_sse(wire.splitlines()))
        assert events[0][0] == "x"


class TestBrokerBackpressure:
    def test_fanout_and_replay(self):
        broker = EventBroker()
        broker.publish("t", "early", {"n": 1})
        sub = broker.subscribe("t")

        async def drain_one():
            return await sub.get()

        _, event, data = asyncio.run(drain_one())
        assert (event, data) == ("early", {"n": 1})

    def test_slow_client_sees_gap_marker_not_stall(self):
        """A lagging subscriber loses oldest events and is told so."""
        broker = EventBroker(queue_size=4)
        sub = broker.subscribe("t")
        for n in range(10):  # 6 events overflow the bound of 4
            broker.publish("t", "tick", {"n": n})

        async def drain():
            seen = []
            while True:
                try:
                    seen.append(await asyncio.wait_for(sub.get(), 0.2))
                except (StopAsyncIteration, asyncio.TimeoutError):
                    return seen

        seen = asyncio.run(drain())
        events = [e for _, e, _ in seen]
        assert events[0] == "dropped"
        assert seen[0][2] == {"dropped": 6, "total": 6}
        # The bounded tail survived: the newest 4 ticks, in order.
        assert [d["n"] for _, e, d in seen if e == "tick"] == [6, 7, 8, 9]

    def test_fast_subscriber_unaffected_by_slow_one(self):
        broker = EventBroker(queue_size=2)
        slow = broker.subscribe("t")
        fast = broker.subscribe("t", queue_size=100)
        for n in range(50):
            broker.publish("t", "tick", {"n": n})

        async def drain(sub):
            out = []
            while True:
                try:
                    out.append(await asyncio.wait_for(sub.get(), 0.1))
                except (StopAsyncIteration, asyncio.TimeoutError):
                    return out

        fast_seen = asyncio.run(drain(fast))
        assert len([1 for _, e, _ in fast_seen if e == "tick"]) == 50
        assert slow.dropped == 48

    def test_close_topic_ends_streams(self):
        broker = EventBroker()
        sub = broker.subscribe("t")
        broker.publish("t", "only", {})
        broker.close_topic("t")

        async def drain_all():
            return [item async for item in sub]

        items = asyncio.run(drain_all())
        assert [e for _, e, _ in items] == ["only"]


class TestJobManager:
    def run_manager(self, tmp_path, coro_fn, **kwargs):
        async def body():
            manager = JobManager(
                cache_dir=tmp_path / "cache", jobs_dir=tmp_path / "jobs",
                sample_every=50, **kwargs,
            )
            await manager.start()
            try:
                return await coro_fn(manager)
            finally:
                await manager.shutdown()

        return asyncio.run(body())

    async def _wait_done(self, manager, job, timeout=120.0):
        deadline = asyncio.get_event_loop().time() + timeout
        while job.state not in ("done", "failed", "cancelled"):
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.02)
        return job

    def test_runner_reads_a_finished_job(self, tmp_path, monkeypatch):
        """The service computes every point of ``fig11``; the runner on
        the same cache then computes none, and draws each curve as the
        job's points cut by the one rule."""
        import functools

        from repro.config import ExecutionConfig
        from repro.experiments.runner import run_campaign
        from repro.sim.sweep import first_past_saturation, split_curves
        from tests.test_parallel import _boom

        scale = Scale("short", warmup=100, measure=200, sweep_points=4,
                      trace_duration=1000)
        spec = build_campaign("fig11", scale)

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            assert job.state == "done" and job.computed == len(spec.configs)
            return job.results

        results = iter(self.run_manager(tmp_path, body))
        monkeypatch.setattr(sweep_module, "run_points", functools.partial(
            run_points, point_fn=_boom))
        sweeps = run_campaign("fig11", scale, ExecutionConfig(
            cache_dir=str(tmp_path / "cache")))
        expected = []
        for curve in split_curves(spec.configs):
            points = [next(results) for _ in curve]
            stop = first_past_saturation(points)
            expected.append(points if stop is None else points[:stop + 1])
        assert [s.points for s in sweeps] == expected

    def test_execution_bit_identical_to_run_points(self, tmp_path):
        spec = tiny_campaign()

        async def body(manager):
            job, created = manager.submit(spec)
            assert created and job.state in ("queued", "running")
            await self._wait_done(manager, job)
            assert job.state == "done"
            return job.results

        service_results = self.run_manager(tmp_path, body)
        direct = run_points(list(spec.configs), spec.warmup, spec.measure)
        assert service_results == direct

    def test_resubmission_is_idempotent(self, tmp_path):
        spec = tiny_campaign()

        async def body(manager):
            job1, created1 = manager.submit(spec)
            job2, created2 = manager.submit(spec)
            assert job1.id == job2.id and job1 is job2
            assert created1 and not created2
            await self._wait_done(manager, job1)
            # Resubmitting after completion also reuses the record.
            job3, created3 = manager.submit(spec)
            assert job3 is job1 and not created3

        self.run_manager(tmp_path, body)

    def test_warm_cache_completes_without_executing(self, tmp_path):
        spec = tiny_campaign()

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            # Same campaign under a fresh id: drop the record so the
            # submission takes the dedup path, not the idempotency path.
            del manager.jobs[job.id]
            again, created = manager.submit(spec)
            assert created
            assert again.state == "done"  # instantly, from the cache
            assert again.cached_points == list(range(len(spec.configs)))
            assert again.computed == 0
            assert again.to_dict()["cached"] == len(spec.configs)
            return job.results, again.results

        first, second = self.run_manager(tmp_path, body)
        assert first == second

    def test_a_job_whose_topology_file_is_gone_still_lists(self, tmp_path):
        # Listing a job names each point's engine; deciding it reads no
        # topology file, so a file moved after the run breaks nothing.
        path = tmp_path / "square.json"
        path.write_text(json.dumps(
            {"routers": 4, "links": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
        base = tiny_campaign(points=1)
        spec = CampaignSpec(
            configs=tuple(c.with_(topology="file", topology_file=str(path))
                          for c in base.configs),
            warmup=base.warmup, measure=base.measure, name="square",
        )

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            path.unlink()
            return job, [j.to_dict() for j in manager.list_jobs()]

        job, listing = self.run_manager(tmp_path, body)
        assert job.state == "done"
        assert [entry["backends"] for entry in listing] == [["vector"]]

    def test_priority_orders_queued_jobs(self, tmp_path):
        low = tiny_campaign(seed=5)
        high = tiny_campaign(seed=6)

        async def body(manager):
            # Stall dispatch until both are queued: submit while the
            # loop is busy with a first job.
            first, _ = manager.submit(tiny_campaign(seed=7), priority=9)
            j_low, _ = manager.submit(low, priority=1)
            j_high, _ = manager.submit(high, priority=8)
            await self._wait_done(manager, j_low)
            await self._wait_done(manager, j_high)
            assert j_high.finished <= j_low.finished

        self.run_manager(tmp_path, body)

    def test_progress_and_samples_streamed(self, tmp_path):
        spec = tiny_campaign(points=1)

        async def body(manager):
            job, _ = manager.submit(spec)
            sub = manager.broker.subscribe(job.id)
            await self._wait_done(manager, job)
            return [(e, d) async for _, e, d in sub]

        events = self.run_manager(tmp_path, body)
        kinds = [e for e, _ in events]
        assert "status" in kinds and "done" in kinds
        progress = [d for e, d in events if e == "progress"]
        assert progress and progress[-1]["done"] == 1
        samples = [d for e, d in events if e == "sample"]
        assert samples, "traced execution must stream time series"
        assert all("cycle" in s and "live_messages" in s for s in samples)

    @pytest.mark.parametrize("kind", [
        dict(workers=1), dict(workers=2), dict(farm_hosts="local,local"),
    ], ids=["in-process", "processes", "farm-hosts"])
    def test_every_worker_kind_streams_the_same_progress(self, tmp_path,
                                                         kind):
        """One ``_execute``: whatever computes the points, progress is
        one event shape, published as each point lands."""
        spec = tiny_campaign(points=3)
        # one point already cached, so `done` starts above zero
        run_points([spec.configs[0]], spec.warmup, spec.measure,
                   cache=ResultCache(tmp_path / "cache"))

        async def body(manager):
            job, _ = manager.submit(spec)
            sub = manager.broker.subscribe(job.id)
            await self._wait_done(manager, job)
            return job, [(e, d) async for _, e, d in sub]

        job, events = self.run_manager(tmp_path, body, **kind)
        assert job.state == "done" and job.cached_points == [0]
        assert job.computed == 2
        assert job.results == run_points(
            list(spec.configs), spec.warmup, spec.measure
        )
        progress = [d for e, d in events if e == "progress"]
        assert all(set(d) == {"point", "done", "total", "cached", "load",
                              "scheme", "pattern", "elapsed_ms"}
                   for d in progress)
        assert sorted(d["point"] for d in progress) == [1, 2]
        assert [d["done"] for d in progress] == [2, 3]
        assert all(d["total"] == 3 and not d["cached"] for d in progress)
        assert all(d["load"] == spec.configs[d["point"]].load
                   for d in progress)
        # live, not replayed after the run: each point's wall time shows
        assert all(d["elapsed_ms"] > 0 for d in progress)
        kinds = [e for e, _ in events]
        assert kinds.index("progress") < kinds.index("done")
        samples = [d for e, d in events if e == "sample"]
        if kind == dict(workers=1):
            # the in-process kind also streams each point's time series
            assert {d["point"] for d in samples} == {1, 2}
        else:
            assert not samples
        # no kind traces while it runs; any of them can be asked later
        assert not (tmp_path / "jobs" / f"job-{job.id}.trace.json").exists()
        assert "trace" not in job.to_dict() and "untraced" not in job.to_dict()

    def test_vector_backend_job_is_traced(self, tmp_path):
        """No dark jobs: a vector job streams the samples and answers
        with the trace the same campaign produces on the reference
        engine."""
        reference = pinned(tiny_campaign(), "reference")
        vector = tiny_campaign()  # the default resolves to the kernel

        async def body(manager):
            out = []
            for spec in (reference, vector):
                job, _ = manager.submit(spec)
                sub = manager.broker.subscribe(job.id)
                await self._wait_done(manager, job)
                samples = [d async for _, e, d in sub if e == "sample"]
                out.append((job, samples, await manager.trace(job)))
            return out

        (ref_job, ref_samples, ref_trace), (vec_job, vec_samples, vec_trace) \
            = self.run_manager(tmp_path, body)
        assert ref_job.id != vec_job.id  # the key covers the declared backend
        assert vec_job.state == "done" and vec_job.results == ref_job.results
        assert vec_samples and vec_samples == ref_samples
        assert vec_trace == ref_trace
        assert ref_job.to_dict()["backends"] == ["reference"]
        assert vec_job.to_dict()["backends"] == ["vector"]

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_running_job_hooks_no_event_site_and_streams_the_tracers_samples(
            self, tmp_path, monkeypatch, backend):
        """A job pays for sampling only: no tracer on any event site
        (and the kernel's trace flag clear), yet the ``sample`` events
        are, payload for payload, what a full tracer samples."""
        spec = pinned(tiny_campaign(), backend)
        engines = []

        def recording_build(config, tracer=None):
            engines.append(build_engine(config, tracer))
            return engines[-1]

        monkeypatch.setattr(sweep_module, "build_engine", recording_build)

        async def body(manager):
            job, _ = manager.submit(spec)
            sub = manager.broker.subscribe(job.id)
            await self._wait_done(manager, job)
            return [d async for _, e, d in sub if e == "sample"]

        samples = self.run_manager(tmp_path, body)
        assert len(engines) == len(spec.configs)
        for engine in engines:
            assert engine.fabric.tracer is None
            assert engine.scheme.tracer is None
            assert engine.scheme.controller.tracer is None
            assert all(ni.tracer is None and ni.controller.tracer is None
                       for ni in engine.interfaces)
            if backend == "vector":
                assert engine.fabric._hdr[H_TRACE] == 0
        expected = []
        for idx in range(len(spec.configs)):
            for sample in traced_run(spec, idx).samples:
                expected.append({
                    "point": idx,
                    **{k: sample[k] for k in (
                        "cycle", "channel_utilization", "flit_occupancy",
                        "live_messages", "blocked_frontiers")},
                    "ni_occupied": sum(o for o, _, _ in sample["ni_occupancy"]),
                    "token_pos": sample["token_pos"],
                })
        assert samples and samples == expected

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    @pytest.mark.parametrize("kind", ["in-process", "processes", "cached"])
    def test_trace_on_request_is_the_traced_rerun_byte_for_byte(
            self, tmp_path, backend, kind):
        """Whatever computed the job's points — this process, worker
        processes, or nobody (every point cached) — the trace it answers
        with is the one an in-process traced run of the points gives."""
        spec = pinned(tiny_campaign(), backend)
        if kind == "cached":
            run_points(list(spec.configs), spec.warmup, spec.measure,
                       cache=ResultCache(tmp_path / "cache"))

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            path = manager.trace_file(job.id)
            assert not path.exists()  # nothing was traced on the way
            first = await manager.trace(job)
            assert path.read_bytes() == first
            stamp = path.stat().st_mtime_ns
            assert await manager.trace(job) == first  # now from the file
            assert path.stat().st_mtime_ns == stamp
            return job, first

        job, trace = self.run_manager(
            tmp_path, body, workers=2 if kind == "processes" else 1
        )
        assert job.state == "done"
        assert job.computed == (0 if kind == "cached" else 2)
        assert trace == eager_job_trace(spec, [0, 1])

    def test_flit_level_trace_of_a_vector_job_equals_the_reference(
            self, tmp_path):
        # the re-run is on the kernel, and by the equivalence contract
        # its flit-level trace is the reference engine's
        spec = tiny_campaign(points=1)

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            return job, await manager.trace(job)

        job, trace = self.run_manager(tmp_path, body, trace_level="flit")
        assert job.state == "done"
        assert job.to_dict()["backends"] == ["vector"]
        assert trace == eager_job_trace(pinned(spec, "reference"), [0],
                                        level="flit")
        assert any(e["name"] == "vc_grant"
                   for e in json.loads(trace)["traceEvents"])

    def test_perfetto_trace_written_and_valid(self, tmp_path):
        spec = tiny_campaign(points=2)

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            await manager.trace(job)
            return job

        job = self.run_manager(tmp_path, body)
        trace = json.loads(
            (tmp_path / "jobs" / f"job-{job.id}.trace.json").read_text()
        )
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["otherData"]["points"] == 2
        pids = {e["pid"] // 1000 for e in trace["traceEvents"]}
        assert pids == {1, 2}  # one pid block per point

    def test_one_point_trace_is_that_points_pid_block(self, tmp_path):
        spec = tiny_campaign(points=3)

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            one = await manager.trace(job, point=1)
            assert not manager.trace_file(job.id).exists()  # never stored
            with pytest.raises(ConfigurationError, match="finished point 3"):
                await manager.trace(job, point=3)
            return json.loads(one), json.loads(await manager.trace(job))

        one, whole = self.run_manager(tmp_path, body)
        assert one["traceEvents"] == [
            e for e in whole["traceEvents"] if e["pid"] // 1000 == 2
        ]
        assert one["otherData"] == {
            "points": 1, "point1": whole["otherData"]["point1"],
        }

    def test_concurrent_trace_requests_share_one_build(self, tmp_path,
                                                       monkeypatch):
        """Two requests for a trace not built yet run the points once,
        off the event loop: other coroutines keep running meanwhile."""
        spec = tiny_campaign(points=3)
        built = []

        def counting_build(config, tracer=None):
            built.append(config)
            return build_engine(config, tracer)

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            monkeypatch.setattr(sweep_module, "build_engine", counting_build)
            ticks = 0

            async def ticker():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0.001)
                    ticks += 1

            tick_task = asyncio.ensure_future(ticker())
            first, second = await asyncio.gather(
                manager.trace(job), manager.trace(job)
            )
            tick_task.cancel()
            assert first == second
            assert not manager._trace_builds  # the shared future is gone
            return ticks

        ticks = self.run_manager(tmp_path, body)
        assert built == list(spec.configs)
        assert ticks >= 3, "the event loop stalled while the trace was built"

    def test_trace_of_a_tampered_record_fails_naming_the_point(self,
                                                               tmp_path):
        """The re-run must reproduce the stored result; a record that
        says otherwise gets an error with the point's key, never a trace
        of a different run."""
        spec = tiny_campaign(points=2)

        async def first(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            return job.id

        jid = self.run_manager(tmp_path, first)
        record_path = tmp_path / "jobs" / f"job-{jid}.json"
        record = json.loads(record_path.read_text())
        record["results"][1]["messages_delivered"] += 1
        record_path.write_text(json.dumps(record))

        async def second(manager):  # a restart rehydrates the record
            job = manager.jobs[jid]
            with pytest.raises(SimulationError) as err:
                await manager.trace(job)
            assert not manager.trace_file(jid).exists()
            # the untouched point still answers
            assert await manager.trace(job, point=0)
            return str(err.value)

        message = self.run_manager(tmp_path, second)
        assert point_key(spec.configs[1], spec.warmup, spec.measure) in message
        assert "point 1" in message

    def test_failed_point_fails_job_with_error(self, tmp_path):
        from repro.config import SimConfig

        bad = CampaignSpec(
            configs=(SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271",
                               num_vcs=4, load=0.004, watchdog_timeout=1),),
            warmup=100, measure=200, name="doomed",
        )

        async def body(manager):
            job, _ = manager.submit(bad)
            await self._wait_done(manager, job)
            return job

        job = self.run_manager(tmp_path, body)
        assert job.state == "failed"
        assert job.error

    def test_shutdown_persists_queue_and_restart_resumes(self, tmp_path):
        first = tiny_campaign(seed=11)
        second = tiny_campaign(seed=12)

        async def body1():
            manager = JobManager(cache_dir=tmp_path / "cache",
                                 jobs_dir=tmp_path / "jobs")
            await manager.start()
            running, _ = manager.submit(first, priority=5)
            queued, _ = manager.submit(second, priority=1,
                                       scenario="tiny-named")
            while running.state == "queued":  # let dispatch pick it up
                await asyncio.sleep(0.01)
            await manager.shutdown(drain=True)
            # Drain finished the in-flight job; the queued one was
            # cancelled in memory but persisted for the next start.
            assert running.state == "done"
            assert queued.state == "cancelled"
            return running.id, queued.id

        ids = asyncio.run(body1())
        queue = json.loads((tmp_path / "jobs" / "queue.json").read_text())
        entries = queue["queued"]
        assert [e["scenario"] for e in entries] == ["tiny-named"]
        assert entries[0]["priority"] == 1

        async def body2():
            manager = JobManager(cache_dir=tmp_path / "cache",
                                 jobs_dir=tmp_path / "jobs")
            await manager.start()
            job = manager.jobs[ids[1]]
            await self._wait_done(manager, job)
            await manager.shutdown()
            return manager

        manager2 = asyncio.run(body2())
        # Restart rehydrated the finished record AND resumed the queue.
        assert manager2.jobs[ids[0]].state == "done"
        assert manager2.jobs[ids[1]].state == "done"
        assert manager2.jobs[ids[1]].scenario == "tiny-named"

    def test_restart_reads_job_records_but_not_their_traces(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        from repro.service.jobs import Job

        spec = tiny_campaign()
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        writer = JobManager(cache_dir=tmp_path / "cache", jobs_dir=jobs_dir)
        job = Job(id=job_id_for(spec, spec.point_keys()), spec=spec,
                  state="done", results=[None] * len(spec.configs))
        writer._persist_record(job)
        # A trace requested before the restart sits beside the record and
        # matches the same ``job-*.json`` pattern.
        writer.trace_file(job.id).write_text('{"traceEvents": []}', "utf-8")

        read: list[str] = []
        real_read_text = Path.read_text

        def spy(self, *args, **kwargs):
            read.append(self.name)
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", spy)
        manager = JobManager(cache_dir=tmp_path / "cache", jobs_dir=jobs_dir)
        manager._load_records()
        assert manager.jobs[job.id].state == "done"
        assert read == [f"job-{job.id}.json"]


class ServerFixture:
    """A real CampaignServer on an ephemeral port, driven from a thread."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path

    def run(self, client_fn, **manager_kwargs):
        out, errs = {}, []

        async def main():
            manager = JobManager(
                cache_dir=self.tmp_path / "cache",
                jobs_dir=self.tmp_path / "jobs",
                sample_every=50, **manager_kwargs,
            )
            server = CampaignServer(manager, port=0)
            await server.start()

            def body():
                try:
                    client = ServiceClient(port=server.port, timeout=120)
                    out["result"] = client_fn(client)
                except BaseException as exc:  # surfaced after join
                    errs.append(exc)
                finally:
                    try:
                        ServiceClient(port=server.port).shutdown()
                    except Exception:
                        pass

            thread = threading.Thread(target=body)
            thread.start()
            try:
                await asyncio.wait_for(server.serve_forever(), timeout=180)
            finally:
                thread.join(timeout=30)

        asyncio.run(main())
        if errs:
            raise errs[0]
        return out["result"]


class TestHttpApi:
    def test_json_api_roundtrip(self, tmp_path):
        """submit -> watch stream -> results -> trace, over real HTTP."""
        spec = tiny_campaign(points=2)

        def body(client):
            health = client.health()
            assert health["ok"] is True
            names = {s["name"] for s in client.scenarios()}
            assert names == set(scenario_names())

            reply = client.submit(spec=spec.to_dict(), priority=4)
            assert reply["created"] is True
            jid = reply["job"]["id"]
            assert jid == job_id_for(spec)

            events = list(client.stream_events(jid))
            kinds = [e for e, _, _ in events]
            assert "progress" in kinds and "done" in kinds
            assert any(e == "sample" for e in kinds)

            job = client.job(jid, results=True)
            assert job["state"] == "done"
            assert len(job["results"]) == 2
            assert all(r is not None for r in job["results"])

            trace_file = tmp_path / "jobs" / f"job-{jid}.trace.json"
            assert not trace_file.exists()  # built by the first request
            trace = client.trace(jid)
            assert trace["otherData"]["points"] == 2
            assert json.loads(trace_file.read_text()) == trace
            assert client.trace(jid, point=1)["otherData"]["points"] == 1

            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False
            assert [j["id"] for j in client.jobs()] == [jid]
            return job["results"]

        results = ServerFixture(tmp_path).run(body)
        direct = run_points(list(spec.configs), spec.warmup, spec.measure)
        assert [r["load"] for r in results] == [d.load for d in direct]
        assert [r["throughput_fpc"] for r in results] == [
            d.throughput_fpc for d in direct
        ]

    def test_scenario_submission_by_name(self, tmp_path):
        def body(client):
            reply = client.submit("cdg-torus4x4-tfar", scale="smoke",
                                  warmup=100, measure=200, priority=1)
            jid = reply["job"]["id"]
            final = client.wait(jid)
            assert final["state"] == "done"
            assert final["scenario"] == "cdg-torus4x4-tfar"
            return final

        final = ServerFixture(tmp_path).run(body)
        assert final["total"] == 1

    def test_errors_are_json_with_status(self, tmp_path):
        def body(client):
            with pytest.raises(ServiceError) as nojob:
                client.job("feedfacecafe")
            with pytest.raises(ServiceError) as noscen:
                client.submit("not-a-scenario")
            with pytest.raises(ServiceError) as nothing:
                client._request("GET", "/api/nowhere")
            return nojob.value.status, noscen.value.status, \
                nothing.value.status

        s1, s2, s3 = ServerFixture(tmp_path).run(body)
        assert (s1, s2, s3) == (404, 400, 404)

    def test_trace_of_an_unfinished_job_is_a_409(self, tmp_path):
        def body(client):
            client.submit(spec=tiny_campaign(points=3).to_dict(), priority=5)
            # queued behind the first: cannot finish before it is asked
            waiting = client.submit(spec=tiny_campaign(seed=8).to_dict())
            jid = waiting["job"]["id"]
            with pytest.raises(ServiceError) as early:
                client.trace(jid)
            client.wait(jid)
            with pytest.raises(ServiceError) as bad_point:
                client._request("GET", f"/api/jobs/{jid}/trace?point=x")
            assert client.trace(jid)["otherData"]["points"] == 2
            return early.value, bad_point.value.status

        early, bad_point = ServerFixture(tmp_path).run(body)
        assert early.status == 409 and "queued" in str(early)
        assert bad_point == 400

    def test_trace_404_before_any_execution(self, tmp_path):
        spec = tiny_campaign(points=1)

        def body(client):
            reply = client.submit(spec=spec.to_dict())
            jid = reply["job"]["id"]
            client.wait(jid)
            # Resubmit through a cold manager path is covered in the
            # manager tests; here: unknown job id trace is a 404.
            with pytest.raises(ServiceError) as err:
                client.trace("0123456789ab")
            return err.value.status

        assert ServerFixture(tmp_path).run(body) == 404
