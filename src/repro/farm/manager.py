"""The farm manager: robust shard dispatch over unreliable workers.

This is the one place points are dispatched, retried, backed off, timed
out and recorded: :func:`repro.sim.parallel.run_points`, ``repro farm``
and the campaign service all resolve their batch against the cache and
hand what is missing to :class:`FarmManager.run`.  It executes one
:class:`CampaignSpec` across a set of
:class:`~repro.farm.workers.FarmWorker`\\ s — every point is computed
by the same deterministic ``run_point``, wherever it lands, and the
shared ``.repro_cache`` (atomic per-point JSON puts) is the only
coordination channel, so crashed managers resume and racing twins
converge for free.

Robustness machinery, in dispatch-loop order:

* **reap** — finished dispatches are validated before anything touches
  the cache; a worker returning garbage is a host-health event, not a
  corrupted campaign.
* **hang watch** — a dispatch silent past ``hang_timeout`` is abandoned
  (its late answer is discarded) and its shard re-queued.  This is for
  hosts the manager cannot kill; a local worker's ``point_timeout``
  kills the one wedged process instead and reports the point.  The
  number travels in the :class:`ShardJob`, so an ssh or job-dir
  transport stops waiting when the manager does: one deadline per
  dispatch, and the dispatch thread returns.
* **speculation** — once the queue is drained, shards running longer
  than ``straggler_factor`` x the median completed-shard time are
  speculatively re-dispatched to an idle host; first completion wins.
* **dispatch** — pending shards go to idle hosts in health order
  (healthy before suspect before quarantine probes), honouring each
  shard's seeded-jitter backoff deadline
  (:class:`~repro.util.backoff.BackoffPolicy`).
* **health** — per-host state machine (:mod:`repro.farm.health`):
  failures escalate healthy -> suspect -> quarantined, quarantined hosts
  earn probation probes on an exponentially growing schedule, and a
  campaign simply completes on the survivors.  Only what escapes
  ``run_shard`` (crash, transport loss, hang, rejected results) charges
  the host; a point that failed on a host that did its job
  (``ShardOutcome.point_errors``) charges the shard's retry budget
  alone.  If every retry budget is exhausted,
  :class:`~repro.util.errors.SweepExecutionError` reports the failed
  points — with the exception each one raised — *and* per-host
  attribution.

Every decision is recorded on the attached
:class:`~repro.telemetry.Tracer` (dispatch, heartbeat, quarantine,
re-dispatch, merge, ...) with millisecond timestamps, so a campaign
timeline exports to Perfetto like any simulation trace.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from repro.farm.health import PROBATION, QUARANTINED, SUSPECT, HostHealth
from repro.farm.plan import CampaignSpec, Shard, plan_shards
from repro.farm.workers import TRANSPORT_TIMEOUT, FarmWorker, ShardJob, ShardOutcome
from repro.sim.parallel import PointResolution, ResultCache, point_identity, resolve_points
from repro.sim.results import RunResult
from repro.telemetry import events as ev
from repro.util.backoff import BackoffPolicy
from repro.util.errors import ConfigurationError, SweepExecutionError

#: wall seconds between heartbeat events per busy host.
HEARTBEAT_INTERVAL = 0.25
#: longest the dispatch loop waits for a dispatch to finish before it
#: looks at its deadlines (backoff, hang, speculation) again.
TICK = 0.01


class ShardFailure(RuntimeError):
    """A shard dispatch failed: worker crash, transport loss, hang
    abandonment, or validation rejection.  Carried per point inside
    :class:`SweepExecutionError` when retry budgets run out."""


@dataclass
class _Dispatch:
    id: int
    shard: Shard
    host: str
    started_ms: int
    future: Future
    speculative: bool = False
    abandoned: bool = False


@dataclass
class _ShardState:
    shard: Shard
    attempts: int = 0
    status: str = "pending"  # pending | running | done | failed
    ready_at_ms: int = 0
    inflight: int = 0
    speculated: bool = False
    last_error: str = ""


@dataclass(frozen=True)
class FarmPolicy:
    """Robustness knobs of a farm run, separate from what it computes."""

    #: failed attempts after which a shard's points are reported lost.
    retries: int = 2
    #: backoff between a shard's retry dispatches (seeded jitter).
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.2, factor=2.0, cap=10.0)
    )
    #: seconds of dispatch silence before the manager abandons it and
    #: the ssh/job-dir transport stops waiting for it (None: the manager
    #: never abandons; transports wait ``workers.TRANSPORT_TIMEOUT``).
    hang_timeout: float | None = None
    #: speculative re-dispatch once a run exceeds this multiple of the
    #: median completed-shard time (queue must be drained first).
    straggler_factor: float = 3.0
    #: never speculate below this many seconds of runtime.
    straggler_min: float = 1.0
    #: first quarantine probation delay in seconds (doubles per failed
    #: probe, capped at 30x).
    probation: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("farm retries must be >= 0")
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ConfigurationError("hang_timeout must be positive")
        if self.straggler_factor <= 1.0:
            raise ConfigurationError("straggler_factor must exceed 1")


class FarmManager:
    """Dispatch a campaign's shards across workers until done or lost."""

    def __init__(
        self,
        workers: list[FarmWorker] | tuple[FarmWorker, ...],
        *,
        cache: ResultCache | None,
        policy: FarmPolicy | None = None,
        tracer=None,
        clock=time.monotonic,
    ) -> None:
        if not workers:
            raise ConfigurationError("a farm needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate worker names in {names}")
        self.workers = {w.name: w for w in workers}
        self.cache = cache
        self.policy = policy or FarmPolicy()
        self.tracer = tracer
        self._clock = clock
        self.health: dict[str, HostHealth] = {}
        self._report: dict = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        spec: CampaignSpec,
        *,
        resolution: PointResolution | None = None,
        on_point: Callable[[int, RunResult, float], None] | None = None,
    ) -> list[RunResult]:
        """Execute ``spec``; returns results in campaign point order.

        Cached points are never recomputed, so calling ``run`` again
        after a crash (or after this very call raised) *is* the resume
        operation.  Raises :class:`SweepExecutionError` with per-host
        attribution when points exhaust their retry budget or every
        host is lost.

        ``resolution`` is the caller's own
        :func:`~repro.sim.parallel.resolve_points` answer for ``spec``
        (keys are hashed once per campaign, not once per layer); its
        ``results`` are filled in place.  ``on_point(index, result,
        seconds)`` is called from this thread as each computed point
        lands, after its cache write.
        """
        pol = self.policy
        self._t0 = self._clock()
        self.health = {
            name: HostHealth(
                name=name,
                probation_ms=int(pol.probation * 1000),
                probation_cap_ms=int(pol.probation * 1000) * 30,
            )
            for name in self.workers
        }
        if resolution is None:
            resolution = resolve_points(
                spec.configs, spec.warmup, spec.measure, self.cache
            )
        shards = plan_shards(resolution.missing, spec.shard_size)
        # State of this run; the loop's steps below all work on it.
        self._spec = spec
        self._resolution = resolution
        self._states = {s.index: _ShardState(shard=s) for s in shards}
        self._failures: dict[int, tuple] = {}
        failures = self._failures
        self._on_point = on_point
        self._durations_ms: list[int] = []
        self._dispatch_seq = 0
        self._inflight: dict[int, _Dispatch] = {}
        self._busy: dict[str, int] = dict.fromkeys(self.workers, 0)
        self._last_heartbeat_ms = 0

        if shards:
            slots = sum(w.slots for w in self.workers.values())
            self._pool = ThreadPoolExecutor(
                max_workers=2 * slots + 2, thread_name_prefix="farm",
            )
            try:
                # Worker processes start here, from the manager's own
                # thread, before the pool has spawned a dispatch thread.
                for worker in self.workers.values():
                    worker.open()
                self._loop()
            finally:
                # Abandoned (hung) dispatch threads must not block the
                # campaign's end: a transport's thread returns at its
                # job.hang_timeout, one wedged inside a point never.
                self._pool.shutdown(wait=False, cancel_futures=True)
                for worker in self.workers.values():
                    worker.close()

        computed = resolution.total - resolution.cached - len(failures)
        self._emit(ev.FARM_MERGE, total=resolution.total,
                   cached=resolution.cached, computed=computed,
                   failed=len(failures))
        self._report = {
            "total": resolution.total,
            "cached": resolution.cached,
            "computed": computed,
            "failed": sorted(failures),
            "elapsed_ms": self._now_ms(),
            "hosts": self.attribution(),
        }
        if failures:
            raise SweepExecutionError(failures, attribution=self.attribution())
        return [r for r in resolution.results if r is not None]

    def attribution(self) -> dict:
        """Per-host summary blocks (state, shard counts, last error)."""
        return {name: h.summary() for name, h in self.health.items()}

    def report(self) -> dict:
        """Summary of the last :meth:`run` (for ``farm status``)."""
        return dict(self._report)

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while any(s.status in ("pending", "running")
                  for s in self._states.values()):
            now = self._now_ms()
            self._reap(now)
            self._watch_hangs(now)
            self._speculate(now)
            self._dispatch_pending(now)
            self._heartbeat(now)
            # Wake as soon as a dispatch finishes; the tick only bounds
            # how late a deadline (backoff, hang, straggler) is noticed.
            waiting = [d.future for d in self._inflight.values()]
            if waiting:
                wait(waiting, timeout=TICK, return_when=FIRST_COMPLETED)
            else:
                time.sleep(TICK)

    def _now_ms(self) -> int:
        return int((self._clock() - self._t0) * 1000)

    def _emit(self, kind: str, **payload) -> None:
        if self.tracer is not None:
            self.tracer.farm_event(kind, self._now_ms(), **payload)

    # -- reaping -------------------------------------------------------
    def _reap(self, now) -> None:
        for disp in [d for d in self._inflight.values() if d.future.done()]:
            del self._inflight[disp.id]
            if disp.abandoned:
                continue  # already charged when abandoned; answer discarded
            self._busy[disp.host] -= 1
            try:
                outcome = disp.future.result()
            except Exception as exc:  # worker crash / transport loss
                self._shard_failed(disp, f"{type(exc).__name__}: {exc}", now,
                                   exc=exc)
                continue
            if outcome.point_errors:
                # The host did its job; the point did not.
                self._shard_failed(disp, outcome.error, now,
                                   point_errors=outcome.point_errors)
                continue
            if not outcome.ok:
                self._shard_failed(
                    disp, outcome.error or "worker reported failure", now
                )
                continue
            reason = self._validate(disp.shard, outcome)
            if reason is not None:
                self._shard_failed(disp, f"invalid results: {reason}", now)
                continue
            self._shard_done(disp, outcome, now)

    def _shard_done(self, disp, outcome, now) -> None:
        spec, resolution = self._spec, self._resolution
        state = self._states[disp.shard.index]
        state.inflight -= 1
        self.health[disp.host].record_success(now)
        if state.status == "done":
            return  # the speculative twin already landed this shard
        elapsed = now - disp.started_ms
        self._durations_ms.append(elapsed)
        share = elapsed / 1000 / len(disp.shard.points)
        for idx in disp.shard.points:
            result = outcome.results[idx]
            # First completion wins through the cache's atomic put: a
            # racing twin writes byte-identical content, so whichever
            # rename lands last changes nothing.
            if self.cache is not None:
                self.cache.put(resolution.keys[idx], spec.configs[idx],
                               spec.warmup, spec.measure, result)
            resolution.results[idx] = result
            if self._on_point is not None:
                self._on_point(idx, result, outcome.elapsed.get(idx, share))
        state.status = "done"
        self._emit(ev.FARM_SHARD_DONE, host=disp.host,
                   shard=disp.shard.index, elapsed_ms=elapsed,
                   points=len(disp.shard.points),
                   speculative=disp.speculative)

    def _shard_failed(self, disp, reason, now, *, exc=None,
                      point_errors=None) -> None:
        """Charge a failed dispatch: to the host unless the failure is
        the points' own (``point_errors``), and to the shard's retry
        budget unless a twin has it covered."""
        pol = self.policy
        state = self._states[disp.shard.index]
        state.inflight -= 1
        state.last_error = reason
        health = self.health[disp.host]
        self._emit(ev.FARM_SHARD_FAILED, host=disp.host,
                   shard=disp.shard.index, reason=reason)
        if point_errors:
            health.record_success(now)  # it answered, as a live host does
        else:
            before = health.state
            after = health.record_failure(now, error=reason)
            if after != before:
                if after == SUSPECT:
                    self._emit(ev.FARM_SUSPECT, host=disp.host, reason=reason)
                elif after == QUARANTINED:
                    self._emit(ev.FARM_QUARANTINE, host=disp.host,
                               until_ms=health.quarantined_until,
                               reason=reason)
        if state.status == "done" or state.inflight > 0:
            # A twin already landed it, or is still trying: the failure
            # charges the host but not the shard.
            return
        state.attempts += 1
        if state.attempts > pol.retries:
            state.status = "failed"
            error = exc if exc is not None else ShardFailure(
                f"{disp.shard.describe()} failed on {disp.host}: {reason}"
            )
            for idx in disp.shard.points:
                self._failures[idx] = (
                    self._spec.configs[idx],
                    (point_errors or {}).get(idx, error),
                )
        else:
            delay = pol.backoff.delay(
                state.attempts, key=f"shard{disp.shard.index}"
            )
            state.status = "pending"
            state.ready_at_ms = now + int(delay * 1000)
            self._emit(ev.FARM_BACKOFF, shard=disp.shard.index,
                       host=disp.host, attempt=state.attempts,
                       delay_ms=int(delay * 1000))

    def _validate(self, shard, outcome: ShardOutcome) -> str | None:
        """None if the outcome is plausible, else a rejection reason.

        Sanity-level, not cryptographic: identity fields must match the
        dispatched configs and the measurable counters must be finite
        and non-negative.  Deterministic recomputation (the cache key
        pins code + config) is the stronger guarantee; this filter
        exists so obviously corrupt workers lose their results *and*
        their health standing before the cache is touched.
        """
        for idx in shard.points:
            result = outcome.results.get(idx)
            if not isinstance(result, RunResult):
                return f"point {idx} missing from results"
            config = self._spec.configs[idx]
            identity = point_identity(result)
            expected = point_identity(config)
            if identity != expected:
                return (f"point {idx} identity {identity!r}"
                        f" != dispatched {expected!r}")
            if result.cycles <= 0 or result.messages_delivered < 0:
                return f"point {idx} has impossible counters"
            if not (result.throughput_fpc >= 0.0
                    and result.mean_latency >= 0.0):
                return f"point {idx} has negative metrics"
        return None

    # -- hang watch ----------------------------------------------------
    def _watch_hangs(self, now) -> None:
        pol = self.policy
        if pol.hang_timeout is None:
            return
        limit = int(pol.hang_timeout * 1000)
        for disp in self._inflight.values():
            if disp.abandoned or now - disp.started_ms <= limit:
                continue
            disp.abandoned = True
            # Free the slot: the wedged thread keeps the pool's spare
            # capacity busy, not the host's dispatch slot.
            self._busy[disp.host] -= 1
            self._shard_failed(
                disp, f"hang: no answer in {pol.hang_timeout:g}s", now
            )

    # -- speculation ---------------------------------------------------
    def _speculate(self, now) -> None:
        pol = self.policy
        if not self._durations_ms:
            return
        if any(s.status == "pending" and now >= s.ready_at_ms
               for s in self._states.values()):
            return  # real work first; speculation only soaks idle hosts
        ordered = sorted(self._durations_ms)
        median = ordered[len(ordered) // 2]
        threshold = max(int(pol.straggler_min * 1000),
                        int(pol.straggler_factor * median))
        for disp in sorted(self._inflight.values(), key=lambda d: d.started_ms):
            state = self._states[disp.shard.index]
            if (disp.abandoned or disp.speculative or state.speculated
                    or state.status != "running" or state.inflight != 1
                    or now - disp.started_ms <= threshold):
                continue
            host = self._pick_host(now, exclude={disp.host})
            if host is None:
                return
            state.speculated = True
            self._emit(ev.FARM_REDISPATCH, shard=disp.shard.index,
                       host=host, straggler=disp.host,
                       running_ms=now - disp.started_ms)
            self._launch(state, host, now, speculative=True)

    # -- dispatch ------------------------------------------------------
    def _dispatch_pending(self, now) -> None:
        ready = sorted(
            (s for s in self._states.values()
             if s.status == "pending" and now >= s.ready_at_ms),
            key=lambda s: s.shard.index,
        )
        for state in ready:
            host = self._pick_host(now)
            if host is None:
                return
            self._launch(state, host, now)

    def _pick_host(self, now, exclude: set[str] | None = None) -> str | None:
        candidates = [
            h for name, h in self.health.items()
            if self._busy[name] < self.workers[name].slots
            and (exclude is None or name not in exclude)
            and h.can_dispatch(now)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda h: (h.rank(), h.name)).name

    def _launch(self, state, host, now, speculative: bool = False) -> None:
        spec = self._spec
        health = self.health[host]
        if health.state == QUARANTINED:
            health.begin_probation(now)
            self._emit(ev.FARM_PROBATION, host=host)
        self._dispatch_seq += 1
        job = ShardJob(
            shard=state.shard,
            configs=tuple(spec.configs[i] for i in state.shard.points),
            warmup=spec.warmup,
            measure=spec.measure,
            dispatch_id=self._dispatch_seq,
            hang_timeout=self.policy.hang_timeout or TRANSPORT_TIMEOUT,
        )
        worker = self.workers[host]
        disp = _Dispatch(
            id=self._dispatch_seq, shard=state.shard, host=host,
            started_ms=now,
            future=self._pool.submit(worker.run_shard, job),
            speculative=speculative,
        )
        self._inflight[disp.id] = disp
        self._busy[host] += 1
        state.status = "running"
        state.inflight += 1
        self._emit(ev.FARM_DISPATCH, host=host, shard=state.shard.index,
                   points=len(state.shard.points), attempt=state.attempts,
                   probe=health.state == PROBATION, speculative=speculative)

    # -- heartbeat -----------------------------------------------------
    def _heartbeat(self, now) -> None:
        interval = int(HEARTBEAT_INTERVAL * 1000)
        if now - self._last_heartbeat_ms < interval:
            return
        self._last_heartbeat_ms = now
        for disp in self._inflight.values():
            if not disp.abandoned:
                self._emit(ev.FARM_HEARTBEAT, host=disp.host,
                           shard=disp.shard.index,
                           busy_ms=now - disp.started_ms)

