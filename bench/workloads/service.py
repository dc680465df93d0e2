"""``service-ladder``: the operator's end-to-end figure.

Set-up spawns ``python -m repro.cli serve --port 0 --workers 1`` on
fresh directories.  A pass submits the ``scheme-ladder`` scenario (9
points, the service's default traced in-process reference path) and
follows its SSE stream to ``done``, then fetches the results.  Job ids
are content hashes, so each pass submits under its own seed; pass 0 uses
``--seed`` itself and is the one the digest and the warm resubmit cover.
"""

from __future__ import annotations

import http.client
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bench.trace import Span
from bench.workloads.base import Env, PassOutcome, Workload, identity_failures
from repro.service.client import ServiceClient, ServiceError
from repro.service.scenarios import build_campaign
from repro.sim.results import RunResult

SCENARIO = "scheme-ladder"
WARMUP, MEASURE = 300, 1200
#: pass ``i`` submits under seed ``S + i * _SEED_STRIDE``.
_SEED_STRIDE = 7919
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class _Server:
    """One ``repro serve`` subprocess and a client bound to its port."""

    def __init__(self, jobs_dir: Path, cache_dir: Path) -> None:
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--jobs-dir", str(jobs_dir),
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, text=True,
        )
        announce = self.proc.stdout.readline()
        self.startup_s = perf_counter() - start
        match = re.search(r"http://[^:]+:(\d+)", announce)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise RuntimeError(f"serve did not announce a port: {announce!r}")
        self.client = ServiceClient(port=int(match.group(1)), timeout=120.0)

    def cpu_s(self) -> float:
        """user+sys of the live server (and children it reaped)."""
        try:
            stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        except OSError:
            return 0.0
        fields = stat.rsplit(")", 1)[1].split()
        return sum(int(f) for f in fields[11:15]) / _CLOCK_TICKS

    def stop(self) -> float:
        """Drain, wait for exit (kill if it will not), return seconds."""
        start = perf_counter()
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, http.client.HTTPException, ServiceError,
                    subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return perf_counter() - start


class ServiceLadder(Workload):
    name = "service-ladder"

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.measure = env.scaled(MEASURE)
        self.server: _Server | None = None

    def setup(self) -> None:
        self.cache_dir = self.env.tmp / "cache"
        self.server = _Server(self.env.tmp / "jobs", self.cache_dir)
        self.layers["service.startup_s"] = self.server.startup_s

    def extra_cpu_s(self) -> float:
        return self.server.cpu_s() if self.server is not None else 0.0

    def _campaign(self, seed: int):
        return build_campaign(
            SCENARIO, "smoke", seed=seed, warmup=WARMUP, measure=self.measure
        )

    def _submit_and_follow(self, client: ServiceClient, seed: int,
                           span: Span | None = None):
        """(final job dict with results, stream measurements)."""
        start = perf_counter()
        job_id = client.submit(
            SCENARIO, scale="smoke", seed=seed, warmup=WARMUP,
            measure=self.measure,
        )["job"]["id"]
        submitted = perf_counter()
        first_event = None
        events = dropped = 0
        point_ms = 0.0
        for event, data, _ in client.stream_events(job_id):
            if first_event is None:
                first_event = perf_counter()
            events += 1
            if event == "progress":
                point_ms += data.get("elapsed_ms", 0)
            elif event == "dropped":
                dropped += data.get("dropped", 0)
        streamed = perf_counter()
        job = client.job(job_id, results=True)
        end = perf_counter()
        wall = end - start
        if span is not None:
            add = self.env.recorder.add
            add("service.submit", start, submitted, span.id)
            add("service.stream_events", submitted, streamed, span.id, events)
            add("service.job", streamed, end, span.id)
        stream = {
            "service.submit_ms": (submitted - start) * 1e3,
            "service.first_event_ms": ((first_event or submitted) - start) * 1e3,
            "service.events_total": float(events),
            "service.events_per_s": events / wall,
            "service.dropped_events": float(dropped),
            "service.overhead_s": wall - point_ms / 1e3,
        }
        return job, stream

    def run_pass(self, index: int, span: Span | None) -> PassOutcome:
        seed = self.env.seed + index * _SEED_STRIDE
        configs = self._campaign(seed).configs
        n = len(configs)
        job, stream = self._submit_and_follow(self.server.client, seed, span)
        results = [RunResult(**r) for r in job["results"] if r is not None]
        if job["state"] != "done" or job["computed"] != n:
            failed = n
        else:
            failed = identity_failures(results, configs)
        outcome = PassOutcome(
            results, cycles=n * (WARMUP + self.measure), attempted=n,
            failed=failed,
        )
        if span is not None:
            outcome.extra = stream
        return outcome

    def finish(self, first: PassOutcome) -> tuple[int, int]:
        """Warm path: a second server on the same cache directory must
        answer pass 0's campaign from the cache alone, identically."""
        n = first.attempted
        self.layers["service.drain_s"] = self._stop()
        self.server = _Server(self.env.tmp / "jobs-warm", self.cache_dir)
        start = perf_counter()
        job, _ = self._submit_and_follow(self.server.client, self.env.seed)
        self.layers["service.warm_resubmit_ms"] = (perf_counter() - start) * 1e3
        results = [RunResult(**r) for r in job["results"] if r is not None]
        ok = (
            job["state"] == "done" and job["cached"] == job["total"] == n
            and results == first.results
        )
        return n, 0 if ok else n

    def _stop(self) -> float:
        server, self.server = self.server, None
        return server.stop() if server is not None else 0.0

    def close(self) -> None:
        self._stop()
