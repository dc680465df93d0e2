"""Asyncio campaign job manager: priorities, dedup, streaming, drain.

A *job* is one :class:`~repro.farm.plan.CampaignSpec` submitted for
execution.  The manager:

* assigns a **deterministic job id** — a digest of the campaign's
  per-point cache keys — so resubmitting the same campaign (same
  scenario, scale, seed, code version) is idempotent: the caller gets
  the existing job back instead of queueing duplicate work;
* **dedups before scheduling** through the shared
  :func:`repro.sim.parallel.resolve_points`, so points already in
  ``.repro_cache`` are filled instantly and never dispatched (a fully
  cached campaign completes without touching the executor at all);
* executes missing points through the **one scheduler**,
  :class:`repro.farm.FarmManager`, and only chooses its workers: an
  in-process worker whose point function attaches a sampler-only tap
  (default: live time-series streaming, on whichever engine each
  point resolves to), local worker processes (``workers > 1``) or
  farm hosts (``farm_hosts``) — the manager writes every point through
  the same cache keys, so results are bit-identical to ``run_sweep``
  whichever worker computes them;
* streams **progress / sample / status events** through an
  :class:`~repro.service.sse.EventBroker` topic per job id;
* builds a job's **Perfetto trace when it is asked for**
  (:meth:`JobManager.trace`): a trace is a pure function of a point, so
  no job pays for one while it runs, and a worker-process, farm-host or
  fully cached job has one like any other — the first request re-runs
  the points traced and checks every re-run against the stored result;
* **drains gracefully**: shutdown finishes the running job, then
  persists the still-queued submissions to ``queue.json`` so a
  restarted service resumes them (cached points making the resume
  cheap).
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.config import SimConfig
from repro.farm import (
    CampaignSpec,
    FarmManager,
    FarmWorker,
    LocalPoolWorker,
    parse_hosts,
)
from repro.sim.engine import resolve_backend
from repro.sim.parallel import (
    DEFAULT_CACHE_DIR,
    PointFn,
    PointResolution,
    ResultCache,
    point_key,
    resolve_points,
)
from repro.sim.results import RunResult
from repro.sim.sweep import run_point
from repro.telemetry import SampleTap, Tracer, to_perfetto
from repro.util.atomic import write_json_atomic
from repro.util.errors import ConfigurationError, SimulationError

#: name of the persisted submission queue inside the jobs directory.
QUEUE_FILENAME = "queue.json"

#: job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled"
)
_TERMINAL = (DONE, FAILED, CANCELLED)

#: ring-buffer size of each per-point tracer; bounds job trace memory.
TRACE_CAPACITY = 20_000


def job_id_for(spec: CampaignSpec,
               keys: Sequence[str] | None = None) -> str:
    """Deterministic job id: digest of the campaign's point cache keys.

    Two submissions naming the same points (keys already fold in the
    full config, the window and the code digest) collapse onto one job,
    whatever scenario name or priority they arrived with.  ``keys`` are
    ``spec.point_keys()`` for callers that already hold them.
    """
    blob = json.dumps(
        {"keys": list(keys) if keys is not None else spec.point_keys(),
         "warmup": spec.warmup, "measure": spec.measure},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class Job:
    """One submitted campaign and everything observable about it."""

    id: str
    spec: CampaignSpec
    priority: int = 0
    scenario: str | None = None
    state: str = QUEUED
    seq: int = 0
    #: point indices filled from the cache at submission (the dedup).
    cached_points: list[int] = field(default_factory=list)
    computed: int = 0
    error: str | None = None
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    results: list[RunResult | None] = field(default_factory=list)
    keys: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.spec.configs)

    @property
    def done_points(self) -> int:
        return len(self.cached_points) + self.computed

    def to_dict(self, with_results: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "scenario": self.scenario,
            "priority": self.priority,
            "state": self.state,
            "total": self.total,
            "cached": len(self.cached_points),
            "cached_points": list(self.cached_points),
            "computed": self.computed,
            "done_points": self.done_points,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "backends": sorted(
                {resolve_backend(c)[0] for c in self.spec.configs}
            ),
        }
        if with_results:
            out["results"] = [
                r.to_dict() if r is not None else None for r in self.results
            ]
            out["spec"] = self.spec.to_dict()
        return out


class JobManager:
    """Priority-ordered campaign execution with streaming telemetry."""

    def __init__(
        self,
        *,
        cache_dir: str | Path = DEFAULT_CACHE_DIR,
        jobs_dir: str | Path = "service_jobs",
        workers: int = 1,
        farm_hosts: str | None = None,
        sample_every: int = 200,
        trace_level: str = "message",
        broker=None,
    ) -> None:
        from repro.service.sse import EventBroker

        self.cache = ResultCache(cache_dir)
        self.jobs_dir = Path(jobs_dir)
        self.workers = workers
        self.farm_hosts = farm_hosts
        self.sample_every = sample_every
        self.trace_level = trace_level
        self.broker = broker if broker is not None else EventBroker()
        self.jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = 0
        self._wake = asyncio.Event()
        self._stopping = False
        self._task: asyncio.Task | None = None
        self.current: Job | None = None
        #: job id -> the one build of its trace file now in flight.
        self._trace_builds: dict[str, asyncio.Future] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Load persisted state and start the dispatch loop."""
        self._load_records()
        self._load_queue()
        self._task = asyncio.ensure_future(self._loop())

    async def shutdown(self, drain: bool = True) -> None:
        """Stop dispatching; with ``drain`` finish the running job first.

        Queued-but-unstarted jobs are persisted (and marked cancelled in
        memory) so a restarted manager resumes them idempotently.
        """
        self._stopping = True
        self._wake.set()
        if self._task is not None:
            if drain:
                await self._task
            else:
                self._task.cancel()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass
            self._task = None
        self._persist_queue()
        for job in self.jobs.values():
            if job.state == QUEUED:
                job.state = CANCELLED
                job.error = "service shut down before execution"
                self._publish_status(job)
                self.broker.close_topic(job.id)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec, priority: int = 0,
               scenario: str | None = None) -> tuple[Job, bool]:
        """Queue a campaign; returns ``(job, created)``.

        Identical campaigns collapse onto the existing job (``created``
        False) unless that job failed or was cancelled, in which case it
        is re-queued fresh.  A resubmission with a higher priority
        promotes a still-queued job.
        """
        keys = spec.point_keys()
        jid = job_id_for(spec, keys)
        existing = self.jobs.get(jid)
        if existing is not None and existing.state not in (FAILED, CANCELLED):
            if existing.state == QUEUED and priority > existing.priority:
                existing.priority = priority
                self._push(existing)
            return existing, False
        if existing is not None:
            # Re-queued: a trace built from the failed run's finished
            # points will not describe this one.
            self.trace_file(jid).unlink(missing_ok=True)

        resolution = resolve_points(
            spec.configs, spec.warmup, spec.measure, self.cache, keys=keys
        )
        self._seq += 1
        missing_set = set(resolution.missing)
        job = Job(
            id=jid, spec=spec, priority=priority, scenario=scenario,
            seq=self._seq, created=time.time(),
            cached_points=[
                i for i in range(resolution.total) if i not in missing_set
            ],
            results=resolution.results,
            keys=resolution.keys,
        )
        self.jobs[jid] = job
        if not resolution.missing:
            # Fully deduplicated: the cache already holds every point.
            job.state = DONE
            job.started = job.finished = job.created
            self._publish_status(job)
            self._publish(job, "done", job.to_dict())
            self._persist_record(job)
            self.broker.close_topic(job.id)
        else:
            self._push(job)
            self._publish_status(job)
            self._persist_queue()
            self._wake.set()
        return job, True

    def submit_scenario(self, name: str, priority: int = 0,
                        scale: str = "smoke", *, seed: int | None = None,
                        warmup: int | None = None,
                        measure: int | None = None) -> tuple[Job, bool]:
        """Build a named scenario's campaign and submit it."""
        from repro.service.scenarios import build_campaign

        spec = build_campaign(
            name, scale, seed=seed, warmup=warmup, measure=measure
        )
        return self.submit(spec, priority=priority, scenario=name)

    def list_jobs(self) -> list[Job]:
        return sorted(self.jobs.values(), key=lambda j: j.seq)

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, job.seq, job.id))

    def _pop_next(self) -> Job | None:
        while self._heap:
            _, _, jid = heapq.heappop(self._heap)
            job = self.jobs.get(jid)
            # Stale heap entries (re-prioritized or already run) skip.
            if job is not None and job.state == QUEUED:
                return job
        return None

    async def _loop(self) -> None:
        while not self._stopping:
            job = self._pop_next()
            if job is None:
                self._wake.clear()
                if self._stopping:
                    break
                await self._wake.wait()
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        self.current = job
        job.state = RUNNING
        job.started = time.time()
        self._publish_status(job)
        self._persist_queue()
        try:
            await self._execute(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            job.state = DONE
        finally:
            job.finished = time.time()
            self.current = None
        self._publish_status(job)
        self._publish(job, "done", job.to_dict())
        self._persist_record(job)
        self._persist_queue()
        self.broker.close_topic(job.id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _execute(self, job: Job) -> None:
        """Hand the job's missing points to the farm manager.

        The only choice made here is the worker list; dispatch, retries,
        cache writes and failure reports are the manager's, and every
        worker kind streams the same ``progress`` event as each point
        lands.
        """
        missing = [i for i, r in enumerate(job.results) if r is None]
        if not missing:
            return
        loop = asyncio.get_running_loop()
        workers: list[FarmWorker]
        if self.farm_hosts is not None:
            workers = parse_hosts(self.farm_hosts)
        elif self.workers > 1:
            workers = [LocalPoolWorker(workers=self.workers)]
        else:
            workers = [LocalPoolWorker(
                point_fn=self._sampled_point_fn(job, loop)
            )]

        def landed(idx: int, result: RunResult, elapsed: float) -> None:
            loop.call_soon_threadsafe(self._point_landed, job, idx, elapsed)

        manager = FarmManager(workers, cache=self.cache)
        await loop.run_in_executor(
            None,
            lambda: manager.run(
                # One point per dispatch, so progress is per point.
                replace(job.spec, shard_size=1),
                resolution=PointResolution(
                    keys=job.keys, results=job.results, missing=missing
                ),
                on_point=landed,
            ),
        )

    def _sampled_point_fn(self, job: Job,
                          loop: asyncio.AbstractEventLoop) -> PointFn:
        """The in-process worker's point function: ``run_point`` with a
        sampler-only tap attached.

        The tap reads the engine every ``sample_every`` cycles for the
        job's SSE stream and hooks no event site, so the point runs its
        untraced paths and its result is ``run_point``'s.
        """
        # first index of each distinct config (a point function is not
        # told which campaign index it computes)
        index = {config: idx for idx, config
                 in reversed(list(enumerate(job.spec.configs)))}

        def sampled_point(config: SimConfig, warmup: int,
                          measure: int) -> RunResult:
            idx = index[config]
            return run_point(config, warmup, measure, tracer=SampleTap(
                self.sample_every,
                lambda sample: loop.call_soon_threadsafe(
                    self._publish_sample, job, idx, sample
                ),
            ))

        return sampled_point

    def _point_landed(self, job: Job, idx: int, elapsed: float) -> None:
        """One computed point is in the cache: count it, tell the stream."""
        job.computed += 1
        config = job.spec.configs[idx]
        self._publish(job, "progress", {
            "point": idx,
            "done": job.done_points,
            "total": job.total,
            "cached": False,
            "load": config.load,
            "scheme": config.scheme,
            "pattern": config.pattern,
            "elapsed_ms": round(elapsed * 1e3),
        })

    def _publish_sample(self, job: Job, idx: int,
                        sample: dict[str, Any]) -> None:
        occ = sample.get("ni_occupancy", ())
        payload = {
            "point": idx,
            "cycle": sample["cycle"],
            "channel_utilization": sample["channel_utilization"],
            "flit_occupancy": sample["flit_occupancy"],
            "live_messages": sample["live_messages"],
            "blocked_frontiers": sample["blocked_frontiers"],
            "ni_occupied": sum(o for o, _, _ in occ),
        }
        if "token_pos" in sample:
            payload["token_pos"] = sample["token_pos"]
        self._publish(job, "sample", payload)

    # ------------------------------------------------------------------
    # Traces, on request
    # ------------------------------------------------------------------
    async def trace(self, job: Job, point: int | None = None) -> bytes:
        """The Perfetto document of a finished ``job``, or of one point.

        Nothing is traced while a job runs.  The first request for a
        job's document re-runs its finished points traced, off the event
        loop, and writes ``job-<id>.trace.json``; requests arriving
        meanwhile share that one build, later ones (and a restarted
        service) are served the file.  One point's document is built per
        request and never stored.
        """
        wanted = [i for i, r in enumerate(job.results)
                  if r is not None and point in (None, i)]
        if not wanted:
            raise ConfigurationError(
                f"job {job.id} has no finished point"
                + ("" if point is None else f" {point}")
            )
        loop = asyncio.get_running_loop()
        if point is not None:
            return await loop.run_in_executor(None, lambda: json.dumps(
                self._trace_points(job, wanted), separators=(",", ":")
            ).encode("utf-8"))
        path = self.trace_file(job.id)
        if not path.exists():
            build = self._trace_builds.get(job.id)
            if build is None:
                build = self._trace_builds[job.id] = loop.run_in_executor(
                    None, lambda: write_json_atomic(
                        path, self._trace_points(job, wanted),
                        separators=(",", ":"),
                    ))
                build.add_done_callback(
                    lambda _: self._trace_builds.pop(job.id, None)
                )
            # Shielded: a requester that disconnects must not cancel the
            # build the others are waiting for.
            await asyncio.shield(build)
        return await loop.run_in_executor(None, path.read_bytes)

    def _trace_points(self, job: Job, indices: list[int]) -> dict[str, Any]:
        """Re-run ``indices`` traced; their traces side by side.

        Point *k* owns the pid block ``1000*(k+1)`` and its process
        names say which point they belong to, so the document opens as
        one process group per point.  Every re-run must reproduce the
        stored result — a trace of a run that went differently would be
        a trace of something else — which makes each request a
        determinism check as well.
        """
        spec = job.spec
        events: list[dict[str, Any]] = []
        other: dict[str, Any] = {"points": len(indices)}
        for idx in indices:
            config = spec.configs[idx]
            tracer = Tracer(level=self.trace_level,
                            sample_every=self.sample_every,
                            capacity=TRACE_CAPACITY)
            if run_point(config, spec.warmup, spec.measure,
                         tracer=tracer) != job.results[idx]:
                raise SimulationError(
                    f"traced re-run of point {idx} (key "
                    f"{point_key(config, spec.warmup, spec.measure)}) does"
                    " not reproduce the job's stored result"
                )
            trace = to_perfetto(
                tracer, pid_base=1000 * (idx + 1),
                label=f"point{idx} load={config.load:g} {config.scheme}",
            )
            events += trace["traceEvents"]
            other[f"point{idx}"] = trace["otherData"]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _publish(self, job: Job, event: str, data: dict[str, Any]) -> None:
        self.broker.publish(job.id, event, data)

    def _publish_status(self, job: Job) -> None:
        self._publish(job, "status", job.to_dict())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _queue_path(self) -> Path:
        return self.jobs_dir / QUEUE_FILENAME

    def _record_path(self, jid: str) -> Path:
        return self.jobs_dir / f"job-{jid}.json"

    def trace_file(self, jid: str) -> Path:
        return self.jobs_dir / f"job-{jid}.trace.json"

    def _persist_queue(self) -> None:
        """Snapshot queued + running submissions for restart resume."""
        entries = [
            {"spec": job.spec.to_dict(), "priority": job.priority,
             "scenario": job.scenario}
            for job in self.list_jobs() if job.state in (QUEUED, RUNNING)
        ]
        write_json_atomic(self._queue_path(), {"queued": entries}, indent=1)

    def _load_queue(self) -> None:
        try:
            payload = json.loads(self._queue_path().read_text("utf-8"))
        except (OSError, ValueError):
            return
        for entry in payload.get("queued", ()):
            try:
                spec = CampaignSpec.from_dict(entry["spec"])
            except (KeyError, TypeError, ValueError):
                continue
            self.submit(spec, priority=int(entry.get("priority", 0)),
                        scenario=entry.get("scenario"))

    def _persist_record(self, job: Job) -> None:
        write_json_atomic(self._record_path(job.id),
                          job.to_dict(with_results=True), indent=1)

    def _load_records(self) -> None:
        """Rehydrate terminal job records written by earlier runs."""
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            if path.name.endswith(".trace.json"):
                continue  # a job's on-demand trace, not its record
            try:
                payload = json.loads(path.read_text("utf-8"))
                spec = CampaignSpec.from_dict(payload["spec"])
                results = [
                    RunResult(**r) if r is not None else None
                    for r in payload.get("results", ())
                ]
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if payload.get("state") not in _TERMINAL:
                continue
            self._seq += 1
            job = Job(
                id=payload["id"], spec=spec,
                priority=int(payload.get("priority", 0)),
                scenario=payload.get("scenario"),
                state=payload["state"], seq=self._seq,
                cached_points=list(payload.get("cached_points", ())),
                computed=int(payload.get("computed", 0)),
                error=payload.get("error"),
                created=payload.get("created", 0.0),
                started=payload.get("started"),
                finished=payload.get("finished"),
                results=results,
            )
            self.jobs[job.id] = job
