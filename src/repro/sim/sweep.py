"""Load sweeps producing Burton-Normal-Form throughput/latency curves.

Each sweep point builds a fresh engine (independent warm-up and
measurement, as in the paper: "each run lasts for 30,000 simulation
cycles beyond steady state") and records a
:class:`~repro.sim.results.RunResult`.  A curve can stop early once the
network is clearly past saturation to save time.

A campaign of many curves runs as one (:func:`run_sweeps`): points are
dispatched through :mod:`repro.sim.parallel` in rounds across every
live curve, so it fans out across worker processes and reuses cached
results while staying bit-identical to running each curve serially.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import fields
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


def split_curves(configs: Sequence[SimConfig]) -> list[list[SimConfig]]:
    """A campaign's curves: each maximal run of consecutive configs that
    are equal except for ``load``."""
    curves: list[list[SimConfig]] = []
    for config in configs:
        if curves and curves[-1][0].with_(load=config.load) == config:
            curves[-1].append(config)
        else:
            curves.append([config])
    return curves


def curve_labels(curves: Sequence[Sequence[SimConfig]]) -> list[str]:
    """``scheme[-QA]/pattern/Nvc`` per curve, plus ``/field=value`` for
    every field that tells it apart from a curve with the same stem."""
    heads = [curve[0] for curve in curves]
    stems = [
        f"{c.scheme}{'-QA' if c.queue_mode == 'per-type' else ''}"
        f"/{c.pattern}/{c.num_vcs}vc"
        for c in heads
    ]
    labels = []
    for head, stem in zip(heads, stems):
        siblings = [other for other, other_stem in zip(heads, stems)
                    if other_stem == stem and other is not head]
        labels.append("/".join([stem, *(
            f"{f.name}={getattr(head, f.name)}" for f in fields(SimConfig)
            if f.name != "load" and any(
                getattr(other, f.name) != getattr(head, f.name)
                for other in siblings)
        )]))
    return labels


def first_past_saturation(points: Sequence[RunResult]) -> int | None:
    """Index of a curve's first point "just beyond saturation" (Section
    4.3.1): the third or a later point whose delivered throughput is
    below 0.9 x the best so far.  A sweep keeps the points up to and
    including it; ``None`` if there is none."""
    best = 0.0
    for index, point in enumerate(points):
        best = max(best, point.throughput_fpc)
        if index >= 2 and point.throughput_fpc < 0.9 * best:
            return index
    return None


def run_sweeps(
    configs: Sequence[SimConfig],
    warmup: int,
    measure: int,
    *,
    stop_past_saturation: bool = True,
    execution: ExecutionConfig | None = None,
) -> list[SweepResult]:
    """Run a campaign's curves (:func:`split_curves`), each lowest load
    first as listed, as one interleaved campaign.

    Each round takes the next points of every live curve — one each, or
    the dispatch width shared out when fewer curves than that are live —
    and runs them in one :func:`run_points` call.  With
    ``stop_past_saturation`` a curve then ends at
    :func:`first_past_saturation`: points past it that the round
    computed are cached but left off the curve, so every curve matches a
    serial sweep exactly, and while at least as many curves as the width
    are live no point past a stop is computed at all.

    ``execution`` controls workers, caching and progress; when omitted
    the process-wide default applies
    (:func:`repro.sim.parallel.get_default_execution`).
    """
    execution = execution or get_default_execution()
    queued = split_curves(configs)  # each curve's points not yet run
    sweeps = [SweepResult(label=label) for label in curve_labels(queued)]
    dispatch = point_dispatch(execution)
    workers = dispatch["workers"]
    width = (workers if isinstance(workers, int)
             else sum(worker.slots for worker in workers))
    reporter = ProgressReporter(
        total=len(configs),
        label=sweeps[0].label if len(sweeps) == 1 else f"{len(sweeps)} curves",
        enabled=execution.progress,
    )
    try:
        while live := [i for i, curve in enumerate(queued) if curve]:
            share, extra = divmod(width, len(live))
            batch: list[tuple[int, SimConfig]] = []
            for rank, i in enumerate(live):
                take = max(1, share + (rank < extra))
                batch.extend((i, config) for config in queued[i][:take])
                del queued[i][:take]
            points = run_points([config for _, config in batch], warmup,
                                measure, reporter=reporter, **dispatch)
            for i in live:
                sweep = sweeps[i]
                sweep.points.extend(
                    point for (j, _), point in zip(batch, points) if j == i)
                stop = (first_past_saturation(sweep.points)
                        if stop_past_saturation else None)
                if stop is not None:
                    del sweep.points[stop + 1:]
                    reporter.drop(len(queued[i]))
                    queued[i].clear()
    finally:
        reporter.finish()
    return sweeps


def run_sweep(
    config: SimConfig,
    loads: Sequence[float],
    warmup: int = 3000,
    measure: int = 10000,
    label: str | None = None,
    stop_past_saturation: bool = True,
    execution: ExecutionConfig | None = None,
) -> SweepResult:
    """Run ``config`` across the applied loads, lowest first: the
    one-curve campaign of :func:`run_sweeps`."""
    [sweep] = run_sweeps(
        [config.with_(load=load) for load in sorted(loads)], warmup, measure,
        stop_past_saturation=stop_past_saturation, execution=execution,
    )
    sweep.label = label or sweep.label
    return sweep
