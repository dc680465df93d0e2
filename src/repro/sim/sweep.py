"""Load sweeps producing Burton-Normal-Form throughput/latency curves.

Each sweep point builds a fresh engine (independent warm-up and
measurement, as in the paper: "each run lasts for 30,000 simulation
cycles beyond steady state") and records a
:class:`~repro.sim.results.RunResult`.  A sweep can stop early once the
network is clearly past saturation to save time.

Points are dispatched through :mod:`repro.sim.parallel`, so a sweep can
fan out across worker processes and reuse cached results while staying
bit-identical to a serial run: early stopping is preserved by dispatching
loads in worker-sized chunks, lowest loads first, and truncating the
curve at the same point a serial sweep would.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.config import ExecutionConfig, SimConfig
from repro.sim.engine import build_engine
from repro.sim.parallel import ResultCache, get_default_execution, run_points
from repro.sim.results import RunResult, SweepResult
from repro.util.progress import ProgressReporter


def point_dispatch(execution: ExecutionConfig) -> dict[str, Any]:
    """:func:`run_points`' ``cache``/``workers``/``retries``/``timeout``
    for an execution policy — the one place it is interpreted."""
    workers: Any = execution.workers
    if execution.farm_hosts is not None:
        # Imported lazily: the farm depends on this module's point
        # function, and sweeps that never leave the local machine
        # shouldn't pay for transports.
        from repro.farm import parse_hosts

        workers = parse_hosts(
            execution.farm_hosts, point_timeout=execution.point_timeout
        )
    return {
        "cache": (ResultCache(execution.cache_dir)
                  if execution.use_cache else None),
        "workers": workers,
        "retries": execution.retries,
        "timeout": execution.point_timeout,
    }


def run_point(config: SimConfig, warmup: int, measure: int,
              tracer=None) -> RunResult:
    """Run one (config, load) point and summarize the window — the one
    build → attach → measure → summarize path (sweeps, farm shards,
    sampled service jobs and traced re-runs differ only in ``tracer``)."""
    engine = build_engine(config, tracer)
    window = engine.run_measured(warmup, measure)
    return summarize_window(config, engine, window)


def summarize_window(config: SimConfig, engine, window) -> RunResult:
    """Fold one measured window into a :class:`RunResult`."""
    nodes = engine.topology.num_nodes
    return RunResult(
        scheme=config.scheme,
        pattern=config.pattern,
        num_vcs=config.num_vcs,
        load=config.load,
        cycles=window.cycles,
        messages_delivered=window.messages_delivered,
        throughput_fpc=window.throughput_fpc(nodes),
        mean_latency=window.mean_latency(),
        latency_max=window.latency_max,
        deadlocks=window.deadlocks + window.deadlocks_unresolved,
        normalized_deadlocks=window.normalized_deadlocks(),
        transactions_completed=window.transactions_completed,
        mean_txn_latency=(
            window.txn_latency_sum / window.transactions_completed
            if window.transactions_completed
            else 0.0
        ),
        queue_mode=config.queue_mode,
    )


def run_sweep(
    config: SimConfig,
    loads: Sequence[float],
    warmup: int = 3000,
    measure: int = 10000,
    label: str | None = None,
    stop_past_saturation: bool = True,
    execution: ExecutionConfig | None = None,
) -> SweepResult:
    """Run ``config`` across the applied loads, lowest first.

    With ``stop_past_saturation`` the sweep ends once delivered
    throughput drops noticeably below its running maximum — i.e. "a
    point just beyond saturation" (Section 4.3.1).

    ``execution`` controls workers, caching and progress; when omitted
    the process-wide default applies
    (:func:`repro.sim.parallel.get_default_execution`).  Points computed
    past an early stop by a parallel chunk are cached but excluded from
    the curve, so the returned points match a serial sweep exactly.
    """
    execution = execution or get_default_execution()
    label = label or f"{config.scheme}/{config.pattern}/{config.num_vcs}vc"
    reporter = ProgressReporter(
        total=len(loads), label=label, enabled=execution.progress
    )
    dispatch = point_dispatch(execution)
    workers = dispatch["workers"]
    chunk = (workers if isinstance(workers, int)
             else sum(worker.slots for worker in workers))
    sweep = SweepResult(label=label)
    best = 0.0
    ordered = sorted(loads)
    try:
        for start in range(0, len(ordered), chunk):
            batch = ordered[start:start + chunk]
            points = run_points(
                [config.with_(load=load) for load in batch],
                warmup,
                measure,
                reporter=reporter,
                **dispatch,
            )
            for point in points:
                sweep.points.append(point)
                best = max(best, point.throughput_fpc)
                if (
                    stop_past_saturation
                    and len(sweep.points) >= 3
                    and point.throughput_fpc < 0.9 * best
                ):
                    return sweep
    finally:
        reporter.finish()
    return sweep
