"""Farm workers: pluggable executors for one shard of a campaign.

A worker is anything with a ``name`` and a blocking
``run_shard(job) -> ShardOutcome`` — the manager calls it from a
dispatch thread, so a worker may take seconds or minutes, and up to
``slots`` calls run at once.  Three transports ship here:

``LocalPoolWorker``
    This machine.  One worker with no ``point_timeout`` computes in the
    dispatch thread (no fork, so closures work as point functions);
    otherwise it owns ``workers`` processes for the length of a run,
    one dispatch slot each, and a process that outlives
    ``point_timeout`` on one point is killed and replaced.
``SSHHostWorker``
    Pipes a JSON job document to ``python -m repro.farm.remote`` on a
    remote machine over plain ``ssh`` (stdlib :mod:`subprocess`, no new
    dependencies).  A custom ``command`` replaces the ssh prefix, which
    is also how tests exercise the full wire protocol without a daemon.
``ExternalWorker``
    The job-dir protocol for externally provisioned machines: the
    manager drops ``<root>/jobs/<job>.json``, the external agent
    (``repro.farm.remote --serve``) answers into
    ``<root>/results/<job>.json``; both sides rename atomically.

Workers *return results*; they never touch the campaign cache.  The
manager validates every outcome before a single byte reaches
``.repro_cache``, so a worker returning garbage is a health event, not
a corrupted campaign.

What a worker *raises* out of ``run_shard`` is the host's fault (crash,
transport loss) and the manager charges the host for it.  What a point
did — its function raised, it ran past ``point_timeout``, it took its
process down with it — comes back inside the :class:`ShardOutcome` as
``point_errors`` and costs only that shard an attempt.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import queue
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import SimConfig
from repro.farm.plan import Shard, config_to_dict
from repro.sim.parallel import PointFn
from repro.sim.results import RunResult
from repro.util.atomic import write_json_atomic
from repro.util.errors import ConfigurationError, PointTimeoutError

#: seconds an ssh/job-dir transport waits for an answer when the
#: campaign's policy sets no ``hang_timeout``.
TRANSPORT_TIMEOUT = 600.0


class ShardTransportError(RuntimeError):
    """A worker's transport failed: dead ssh pipe, unreadable result
    document, or an external agent that never answered.  The manager
    treats it exactly like a crashed worker: charge the host, retry the
    shard elsewhere."""


@dataclass(frozen=True)
class ShardJob:
    """One dispatch: a shard plus everything needed to compute it."""

    shard: Shard
    configs: tuple[SimConfig, ...]
    warmup: int
    measure: int
    #: campaign-unique dispatch ordinal (re-dispatches get fresh ids).
    dispatch_id: int = 0
    #: seconds after which nobody waits for this dispatch's answer: the
    #: manager's ``FarmPolicy.hang_timeout`` (it abandons the dispatch
    #: then), so the ssh and job-dir transports stop waiting then too.
    hang_timeout: float = TRANSPORT_TIMEOUT

    def __post_init__(self) -> None:
        if len(self.configs) != len(self.shard.points):
            raise ConfigurationError(
                "shard/config mismatch:"
                f" {len(self.shard.points)} points,"
                f" {len(self.configs)} configs"
            )

    def to_wire(self) -> dict[str, Any]:
        """The JSON job document of :mod:`repro.farm.remote`."""
        return {
            "warmup": self.warmup,
            "measure": self.measure,
            "points": {
                str(idx): config_to_dict(config)
                for idx, config in zip(self.shard.points, self.configs)
            },
        }


@dataclass
class ShardOutcome:
    """What a worker produced for one dispatch."""

    ok: bool
    #: campaign point index -> result (success only).
    results: dict[int, RunResult] = field(default_factory=dict)
    error: str = ""
    #: campaign point index -> what that point raised on a host that did
    #: its job; charged to the shard's retry budget, not to the host.
    point_errors: dict[int, BaseException] = field(default_factory=dict)
    #: campaign point index -> seconds inside the point function, from
    #: workers that measure it.
    elapsed: dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "ShardOutcome":
        """Parse a result document; malformed input raises
        :class:`ShardTransportError`."""
        try:
            if not payload["ok"]:
                return cls(ok=False, error=str(payload.get("error", "")))
            results = {
                int(idx): RunResult(**result)
                for idx, result in payload["results"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardTransportError(
                f"malformed result document: {exc!r}"
            ) from exc
        return cls(ok=True, results=results)


class FarmWorker:
    """Interface: named, blocking, ``slots`` shards at a time."""

    name: str
    #: dispatches the manager may have in flight on this worker at once.
    slots: int = 1

    def open(self) -> None:
        """Acquire what ``run_shard`` needs (optional).  The manager
        calls this from its own thread before any dispatch thread
        exists, and :meth:`close` when the run is over; a closed worker
        opens again on its next run."""

    def run_shard(self, job: ShardJob) -> ShardOutcome:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (optional)."""

    def describe(self) -> str:
        return f"{type(self).__name__}({self.name})"


class WorkerProcessDied(RuntimeError):
    """A local worker process exited while it held a point."""


def _default_point_fn() -> PointFn:
    from repro.sim.sweep import run_point

    return run_point


def _timed(point_fn: PointFn, config: SimConfig, warmup: int,
           measure: int) -> tuple[RunResult, float]:
    """One point plus the wall-clock seconds it took."""
    start = time.monotonic()
    result = point_fn(config, warmup, measure)
    return result, time.monotonic() - start


def _serve_points(conn) -> None:
    """Worker-process body: answer ``(point_fn, config, warmup,
    measure)`` requests with ``(ok, value)`` until the pipe closes."""
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            reply: tuple[bool, Any] = (True, _timed(*task))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # noqa: BLE001 - unpicklable outcome
            conn.send((False, RuntimeError(
                f"point outcome does not pickle ({exc!r}): {reply[1]!r}"
            )))


class _PointProcess:
    """One worker process and the pipe to it.

    The process is replaced whenever it had to be killed (a point ran
    past its timeout) or died on its own, until :meth:`retire`.
    """

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        #: held for the length of a :meth:`run`, so :meth:`retire`
        #: closes the pipe only once nobody is reading it.
        self._lock = threading.Lock()
        self._retired = False
        self._spawn()

    def _spawn(self) -> None:
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_serve_points, args=(child,), daemon=True
        )
        proc.start()
        child.close()
        # Published only once started: retire() may kill it at any time.
        self._conn, self._proc = conn, proc

    def _kill(self) -> None:
        # SIGKILL, not SIGTERM: a forked child inherits the parent's
        # Python-level signal handlers (the service installs one).
        self._proc.kill()
        self._proc.join()
        self._conn.close()

    def run(self, point_fn: PointFn, config: SimConfig, warmup: int,
            measure: int, *,
            timeout: float | None) -> tuple[RunResult, float]:
        with self._lock:
            if self._retired:
                raise WorkerProcessDied("worker closed")
            try:
                self._conn.send((point_fn, config, warmup, measure))
                if not self._conn.poll(timeout):
                    assert timeout is not None
                    raise PointTimeoutError(timeout, config)
                ok, value = self._conn.recv()
            except (EOFError, OSError, PointTimeoutError) as exc:
                self._kill()
                if not self._retired:
                    self._spawn()
                if isinstance(exc, PointTimeoutError):
                    raise
                raise WorkerProcessDied(
                    "worker process exited mid-point"
                ) from exc
        if not ok:
            raise value
        return value

    def retire(self) -> None:
        self._retired = True
        self._proc.kill()  # wakes a run() still waiting on this process
        with self._lock:
            self._kill()


class LocalPoolWorker(FarmWorker):
    """This machine, presented as one farm host of ``workers`` slots."""

    def __init__(self, name: str = "local", *, workers: int = 1,
                 point_timeout: float | None = None,
                 point_fn: PointFn | None = None) -> None:
        if workers < 1:
            raise ConfigurationError("a local worker needs >= 1 process")
        self.name = name
        self.workers = self.slots = workers
        self.point_timeout = point_timeout
        self.point_fn = point_fn
        #: nothing to fan out and nothing to kill: compute in the
        #: dispatch thread.
        self._in_process = workers == 1 and point_timeout is None
        self._lock = threading.Lock()
        self._procs: list[_PointProcess] = []
        self._idle: queue.SimpleQueue[_PointProcess] = queue.SimpleQueue()

    def open(self) -> None:
        with self._lock:
            if self._in_process or self._procs:
                return
            # The platform's default start method, like the process pool
            # this replaces: spawning two interpreters that import the
            # simulator costs more than a whole smoke sweep.
            ctx = multiprocessing.get_context()
            self._procs = [_PointProcess(ctx) for _ in range(self.workers)]
            self._idle = queue.SimpleQueue()
            for proc in self._procs:
                self._idle.put(proc)

    def close(self) -> None:
        with self._lock:
            procs, self._procs = self._procs, []
        for proc in procs:
            proc.retire()

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        point_fn = self.point_fn or _default_point_fn()
        if self._in_process:
            return self._run_each(job, functools.partial(_timed, point_fn))
        self.open()
        idle = self._idle
        proc = idle.get()
        try:
            return self._run_each(job, functools.partial(
                proc.run, point_fn, timeout=self.point_timeout
            ))
        finally:
            idle.put(proc)

    @staticmethod
    def _run_each(job: ShardJob, run) -> ShardOutcome:
        outcome = ShardOutcome(ok=True)
        for idx, config in zip(job.shard.points, job.configs):
            try:
                answer = run(config, job.warmup, job.measure)
            except Exception as exc:  # noqa: BLE001 - the point's failure
                return ShardOutcome(
                    ok=False, error=f"{type(exc).__name__}: {exc}",
                    point_errors={idx: exc},
                )
            outcome.results[idx], outcome.elapsed[idx] = answer
        return outcome


class SSHHostWorker(FarmWorker):
    """A remote host reached over ``ssh`` running the stdin/stdout
    protocol of :mod:`repro.farm.remote`."""

    def __init__(self, name: str, host: str = "", *,
                 python: str = "python3",
                 command: list[str] | None = None) -> None:
        self.name = name
        self.host = host or name
        if command is not None:
            self.command = list(command)
        else:
            self.command = [
                "ssh", "-o", "BatchMode=yes", "-o", "ConnectTimeout=10",
                self.host, f"{python} -m repro.farm.remote",
            ]

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        try:
            proc = subprocess.run(
                self.command,
                input=json.dumps(job.to_wire()).encode("utf-8"),
                capture_output=True,
                timeout=job.hang_timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ShardTransportError(
                f"{self.host}: no answer within {job.hang_timeout:g}s"
            ) from exc
        except OSError as exc:
            raise ShardTransportError(f"{self.host}: {exc}") from exc
        if proc.returncode != 0 and not proc.stdout.strip():
            tail = proc.stderr.decode("utf-8", "replace")[-500:]
            raise ShardTransportError(
                f"{self.host}: exit {proc.returncode}: {tail}"
            )
        try:
            payload = json.loads(proc.stdout.decode("utf-8"))
        except ValueError as exc:
            raise ShardTransportError(
                f"{self.host}: unreadable result document"
            ) from exc
        return ShardOutcome.from_wire(payload)


class ExternalWorker(FarmWorker):
    """An externally provisioned machine speaking the job-dir protocol.

    The manager writes ``<root>/jobs/<name>-<dispatch>.json`` and polls
    for the matching file under ``<root>/results/``.  Whoever serves the
    directory (``repro.farm.remote --serve``, a cron job, a human with a
    laptop) is invisible to the farm — only answer latency matters.
    """

    def __init__(self, name: str, root: str | Path, *,
                 poll_interval: float = 0.05) -> None:
        self.name = name
        self.root = Path(root)
        self.poll_interval = poll_interval

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        stem = f"{self.name}-{job.dispatch_id}.json"
        write_json_atomic(self.root / "jobs" / stem, job.to_wire())
        result_path = self.root / "results" / stem
        deadline = time.monotonic() + job.hang_timeout
        while time.monotonic() < deadline:
            if result_path.exists():
                try:
                    payload = json.loads(result_path.read_text("utf-8"))
                except (OSError, ValueError):
                    pass  # torn read is impossible post-rename; retry
                else:
                    return ShardOutcome.from_wire(payload)
            time.sleep(self.poll_interval)
        raise ShardTransportError(
            f"{self.name}: no result for {stem}"
            f" within {job.hang_timeout:g}s"
        )
