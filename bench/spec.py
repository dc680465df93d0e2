"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` must equal :func:`benchmark_json` (``test_bench.py``
pins it); the README tables and the printed report are derived from the
same tuples, so a metric is declared exactly once.

A *pass* is one fixed unit of a workload's work (so many simulated
cycles, one ``run_points`` call, one submitted job).  A run repeats
passes until its time budget is spent; every time and count below is
*per pass*, which keeps the numbers comparable when ``--seconds``
changes.  Every time is in host seconds at reference speed: as measured,
times ``bench.host_speed`` (see ``bench/child.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: seconds of measured section per driver run (split across repeats).
RUN_SECONDS = 9
#: child processes per workload; end-to-end values are their median.
DEFAULT_REPEATS = 3
#: the seed whose result digests are recorded in ``baseline.json``.
GOLDEN_SEED = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: what is measured, through which public call.
    definition: str
    #: end-to-end: share of the parent's median it may worsen by.
    bound: float | None = None
    #: per-layer: which end-to-end metric it should move, where.
    moves: str = ""


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: one line for ``BENCHMARK.json`` (at most 200 characters).
    why: str


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "wall_s", "s", "lower",
        "median wall time of one pass: first call into the front end"
        " until all results are in hand",
        bound=0.25,
    ),
    Metric(
        "sim_cycles_per_s", "cycles/s", "higher",
        "median over passes of the simulated cycles of the returned points"
        " (cached points count) per host second of the pass",
        bound=0.25,
    ),
    Metric(
        "cpu_s", "s", "lower",
        "median user+sys CPU of one pass: the measuring process, its"
        " reaped children and (service) the server process",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower",
        "max ru_maxrss of the measuring process and its reaped children",
        bound=0.10,
    ),
    Metric(
        "setup_s", "s", "lower",
        "process spawn until the measured section starts: interpreter,"
        " imports, kernel load, engine build, warm-up, cache fill,"
        " server start-up",
        bound=0.25,
    ),
)

_ENGINE = "the four engine workloads"

PER_LAYER: tuple[Metric, ...] = (
    Metric("sim.engine.build_s", "s", "lower",
           "build_engine(config), summed over the workload's cells",
           moves="setup_s on engine workloads (most on vec-light-16x16);"
           " wall_s on sweep-cold-pool/farm-local2, where every point"
           " pays it"),
    Metric("sim.engine.kcycle_ms_p50", "ms", "lower",
           "median wall of one 50-cycle engine.run slice, scaled to 1000"
           " cycles",
           moves=f"sim_cycles_per_s on {_ENGINE}"),
    Metric("sim.engine.kcycle_ms_p95", "ms", "lower",
           "same slices, highest percentile up to 95 with at least ten"
           " samples beyond it",
           moves=f"sim_cycles_per_s on {_ENGINE} (tail: recovery bursts)"),
    Metric("traffic.step_s", "s", "lower",
           "time inside engine.traffic.step",
           moves="sim_cycles_per_s on vec-sat-8x8 and vec-light-16x16;"
           " small share on ref-sat-8x8"),
    Metric("traffic.messages_generated", "count", "higher",
           "traffic.generated delta",
           moves="nothing: fixed by the seed; a change means the stream"
           " changed"),
    Metric("endpoint.step_s", "s", "lower",
           "time inside NetworkInterface.step (reference) or the gated"
           " VectorEngine._step_node (vector)",
           moves="sim_cycles_per_s on ref-sat-8x8; vec-* by its gated"
           " share"),
    Metric("endpoint.steps", "count", "lower",
           "calls of the above",
           moves="endpoint.step_s; on vec-light-16x16 it is the work"
           " event gating failed to skip"),
    Metric("endpoint.gate_ratio", "ratio", "lower",
           "endpoint.steps / (nodes x cycles); 1.0 on the reference"
           " engine",
           moves="sim_cycles_per_s on vec-light-16x16"),
    Metric("endpoint.messages_serviced", "count", "higher",
           "sum of controller.messages_serviced deltas",
           moves="nothing: fixed by the seed"),
    Metric("network.fabric_step_s", "s", "lower",
           "time inside Fabric.step (reference engine only)",
           moves="sim_cycles_per_s on ref-sat-8x8 only"),
    Metric("network.flits_forwarded", "count", "higher",
           "fabric.flits_forwarded delta (either backend)",
           moves="nothing: fixed by the seed"),
    Metric("network.alloc_failures", "count", "lower",
           "fabric.alloc_failures delta (either backend)",
           moves="nothing: fixed by the seed; high at saturation"),
    Metric("core.scheme_step_s", "s", "lower",
           "time inside scheme.step (reference) or the lazy-bank scheme"
           " step (vector)",
           moves="sim_cycles_per_s on vec-recovery-8x8; near 0 elsewhere"),
    Metric("core.detections", "count", "higher",
           "scheme.deadlocks_detected delta",
           moves="nothing: fixed by the seed"),
    Metric("core.rescues", "count", "higher",
           "progressive controller.rescues delta",
           moves="nothing: fixed by the seed; about 50 on"
           " vec-recovery-8x8"),
    Metric("core.deflections", "count", "higher",
           "deflective controller.deflections delta",
           moves="nothing: fixed by the seed"),
    Metric("core.token_laps", "count", "higher",
           "PR token.laps delta",
           moves="nothing: fixed by the seed"),
    Metric("core.recovery_ratio", "ratio", "higher",
           "scheme.recoveries / scheme.deadlocks_detected",
           moves="nothing: useful outcomes per detection"),
    Metric("sim.stats.on_cycle_s", "s", "lower",
           "time inside SimStats.on_cycle",
           moves=f"sim_cycles_per_s on {_ENGINE} (ROADMAP: on_cycle off"
           " the per-cycle path)"),
    Metric("sim.stats.summarize_us", "us", "lower",
           "summarize_window per point",
           moves=f"wall_s on {_ENGINE}, negligibly"),
    Metric("sim.vector.kernel_load_s", "s", "lower",
           "first load_kernel() of the process",
           moves="setup_s on vec-* and the pool workloads"),
    Metric("sim.vector.fabric_step_s", "s", "lower",
           "time inside VectorFabric.step (kernel + marshalling)",
           moves="sim_cycles_per_s on vec-*"),
    Metric("sim.vector.other_s", "s", "lower",
           "vector engine.run slices minus every phase above: gating,"
           " calendar, loop overhead",
           moves="sim_cycles_per_s on vec-*"),
    Metric("telemetry.tracer_overhead_frac", "ratio", "lower",
           "ref-sat-8x8 cell with Tracer(level='message') attached over"
           " the same cell without, minus 1",
           moves="wall_s on service-ladder (its default path traces"
           " every point)"),
    Metric("telemetry.events_recorded", "count", "higher",
           "tracer.events_recorded over that window",
           moves="telemetry.tracer_overhead_frac"),
    Metric("sim.parallel.code_version_ms", "ms", "lower",
           "first code_version() of the process",
           moves="setup_s on sweep-* and farm-local2"),
    Metric("sim.parallel.point_key_us", "us", "lower",
           "median point_key over the workload's configs",
           moves="wall_s on sweep-warm; service.warm_resubmit_ms"),
    Metric("sim.parallel.cache_get_us", "us", "lower",
           "median ResultCache.get over the workload's keys",
           moves="wall_s on sweep-warm"),
    Metric("sim.parallel.resolve_us_per_point", "us", "lower",
           "resolve_points on the warm directory / points",
           moves="wall_s on sweep-warm; service.warm_resubmit_ms"),
    Metric("sim.parallel.cache_hit_ratio", "ratio", "higher",
           "hits / (hits + misses) of the caches run_points was given",
           moves="1.0 on sweep-warm, 0.0 on sweep-cold-pool: says which"
           " side of the cache a workload is on"),
    Metric("sim.parallel.cache_put_us", "us", "lower",
           "median ResultCache.put",
           moves="wall_s on sweep-cold-pool and farm-local2"),
    Metric("sim.parallel.pool_overhead_s", "s", "lower",
           "wall_s - (sum of per-point elapsed that run_points reports)"
           " / W",
           moves="wall_s on sweep-cold-pool"),
    Metric("sim.parallel.parallel_efficiency", "ratio", "higher",
           "sum of per-point elapsed / (W x wall_s)",
           moves="wall_s on sweep-cold-pool"),
    Metric("farm.shards", "count", "lower",
           "plan_shards over the campaign",
           moves="farm.overhead_ms_per_shard's base"),
    Metric("farm.dispatches", "count", "lower",
           "FarmWorker.run_shard calls (re-dispatches included)",
           moves="wall_s on farm-local2 when above farm.shards"),
    Metric("farm.failed_shards", "count", "lower",
           "shards_failed summed over manager.report() hosts",
           moves="nothing here: the workload injects no faults"),
    Metric("farm.run_shard_ms_p50", "ms", "lower",
           "median span of FarmWorker.run_shard",
           moves="wall_s on farm-local2 (a pool start-up per shard)"),
    Metric("farm.idle_s", "s", "lower",
           "wall_s - sum of run_shard spans: dispatch, validate, merge,"
           " poll sleep",
           moves="wall_s on farm-local2; cpu_s stays flat when only"
           " polling shrinks"),
    Metric("farm.overhead_ms_per_shard", "ms", "lower",
           "(farm pass wall - run_points wall on the same points in the"
           " same process) / farm.shards",
           moves="wall_s on farm-local2: what the one-scheduler item"
           " must not worsen"),
    Metric("service.startup_s", "s", "lower",
           "spawn of `repro serve` until its announce line",
           moves="setup_s on service-ladder"),
    Metric("service.drain_s", "s", "lower",
           "shutdown() until the server process exits",
           moves="nothing end-to-end: after the measured section"),
    Metric("service.submit_ms", "ms", "lower",
           "ServiceClient.submit round trip",
           moves="wall_s on service-ladder"),
    Metric("service.first_event_ms", "ms", "lower",
           "submit until the first SSE event arrives",
           moves="wall_s on service-ladder"),
    Metric("service.events_total", "count", "lower",
           "SSE events received per job",
           moves="service.overhead_s"),
    Metric("service.events_per_s", "1/s", "higher",
           "events_total / wall_s",
           moves="nothing: a rate for capacity planning"),
    Metric("service.dropped_events", "count", "lower",
           "sum of `dropped` gap markers seen by the client",
           moves="correctness of the stream, not speed"),
    Metric("service.overhead_s", "s", "lower",
           "wall_s - sum of progress.elapsed_ms: HTTP, job manager,"
           " cache puts, trace export, SSE",
           moves="wall_s on service-ladder"),
    Metric("service.warm_resubmit_ms", "ms", "lower",
           "second serve process on the same cache directory: submit"
           " until done with cached == total",
           moves="the service's warm path; fed by"
           " sim.parallel.resolve_us_per_point"),
    Metric("bench.host_speed", "ratio", "higher",
           "reference time of the calibration unit / its median between"
           " the passes; every time above is multiplied by it",
           moves="nothing: a property of the host, not of the program"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "traced wall_s over untraced wall_s of the same run, minus 1",
           moves="nothing: the cost of the wrappers themselves"),
    Metric("trace.self_time_coverage", "ratio", "higher",
           "sum of layer self times below the pass spans / their total"
           " duration",
           moves="nothing: at least 0.9 on engine workloads or the phase"
           " numbers above are not a full account"),
)

WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "ref-sat-8x8",
        "Table-2 cell at saturation on the reference engine: network.fabric"
        " + endpoint do the work; every instrumented workflow runs here"
        " today",
    ),
    WorkloadSpec(
        "vec-sat-8x8",
        "same cell on the vector backend: C kernel + gated endpoints;"
        " a vector-only change must move this and leave ref-sat-8x8 flat",
    ),
    WorkloadSpec(
        "vec-light-16x16",
        "256 routers at light load: event gating and per-router kernel"
        " cost dominate, and set-up (route table) is large",
    ),
    WorkloadSpec(
        "vec-recovery-8x8",
        "PR and DR on PAT271/4 VCs past saturation: detectors, token and"
        " both recoveries as busy as traffic can make them",
    ),
    WorkloadSpec(
        "sweep-cold-pool",
        "24 tiny points through run_points with a pool and an empty"
        " cache: per-point overhead (pool, pickling, build_engine, put)"
        " is a visible share",
    ),
    WorkloadSpec(
        "sweep-warm",
        "600 cached points resolved 10 times: point_key + ResultCache.get"
        " only, zero engine work; bypasses everything sweep-cold-pool"
        " stresses",
    ),
    WorkloadSpec(
        "farm-local2",
        "the same 24 points through FarmManager on local:W: identical"
        " work to sweep-cold-pool, so the difference is the farm's"
        " dispatch loop",
    ),
    WorkloadSpec(
        "service-ladder",
        "scheme-ladder submitted to a spawned `repro serve` and followed"
        " over SSE to done: HTTP + job manager + tracer around the engine",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BOUNDS = {m.name: m.bound for m in END_TO_END}
BETTER = {m.name: m.better for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
