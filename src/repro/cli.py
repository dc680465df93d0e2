"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
run
    One simulation run; prints the metrics and the per-type breakdown.
sweep
    A load sweep for one (scheme, pattern, VCs) cell; prints the
    Burton-Normal-Form curve and optionally writes JSON.
cdg-check
    Static deadlock-freedom certification: extract the channel
    dependency graph of a (topology, routing) pair and print a
    CERTIFIED witness ordering or the REFUTED cycle.  With no
    arguments it audits every built-in pair (the CI gate).
experiments
    Regenerate the paper's tables/figures (thin wrapper around
    ``repro.experiments.runner``).
trace
    Generate a synthetic Splash-2-like trace file.
farm
    Distributed sweep campaigns: ``plan`` a campaign directory, ``run``
    it across a set of hosts, ``status`` it mid-flight, ``resume`` a
    killed run (finished points come straight from the cache).
serve
    Run the campaign service: an async HTTP job API with a named
    scenario library and live SSE telemetry streams.
submit
    Submit a named scenario to a running service (optionally following
    its event stream to completion).
jobs
    List a running service's jobs, or show/stream/download one job.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.config import ExecutionConfig, SimConfig
from repro.sim.engine import build_engine
from repro.sim.invariants import format_dump
from repro.sim.stats import format_breakdown
from repro.sim.sweep import point_dispatch, run_sweep
from repro.util.atomic import write_json_atomic
from repro.util.errors import (
    ConfigurationError,
    InvariantViolation,
    LivenessError,
    SweepExecutionError,
)
from repro.util.options import add_fields, from_args


def load_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def cmd_run(args) -> int:
    tracer = None
    if args.trace or args.json or args.timeseries:
        from repro.telemetry import Tracer

        tracer = Tracer(
            level=args.trace_level, sample_every=args.sample_every
        )
    engine = build_engine(from_args(SimConfig, args), tracer)
    try:
        window = engine.run_measured(args.warmup, args.measure)
    except (LivenessError, InvariantViolation) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        if exc.dump is not None:
            print(format_dump(exc.dump), file=sys.stderr)
        return 3
    if tracer is not None:
        _export_run_telemetry(args, engine, tracer, window)
    nodes = engine.topology.num_nodes
    why = f" ({engine.backend_reason})" if engine.backend_reason else ""
    print(f"engine              : {engine.backend}{why}")
    print(f"topology            : {engine.topology}")
    print(f"scheme              : {engine.scheme.describe()}")
    print(f"throughput          : {window.throughput_fpc(nodes):.4f} flits/node/cycle")
    print(f"mean latency        : {window.mean_latency():.1f} cycles")
    print(f"messages delivered  : {window.messages_delivered}")
    print(f"deadlocks           : {window.deadlocks + window.deadlocks_unresolved}")
    print(f"normalized deadlocks: {window.normalized_deadlocks():.3e}")
    if engine.faults is not None:
        for desc, count in engine.faults.activation_counts().items():
            print(f"fault               : {desc} activated {count}x")
    print("\nper-type breakdown (whole run):")
    print(format_breakdown(engine.stats))
    return 0


def _export_run_telemetry(args, engine, tracer, window) -> None:
    """Write the run's trace/time-series/JSON artifacts (``repro run``)."""
    from dataclasses import asdict

    from repro.telemetry import (
        export_perfetto,
        export_timeseries_csv,
        stitch_episodes,
    )

    episodes = stitch_episodes(tracer)
    if args.trace:
        export_perfetto(tracer, args.trace)
        print(f"wrote {args.trace} ({tracer.events_recorded} events,"
              f" {tracer.dropped_events} dropped)")
    if args.timeseries:
        export_timeseries_csv(tracer, args.timeseries)
        print(f"wrote {args.timeseries} ({len(tracer.samples)} samples)")
    if args.json:
        stats = engine.stats
        nodes = engine.topology.num_nodes
        payload = {
            "scheme": engine.scheme.name,
            "pattern": engine.config.pattern,
            "dims": list(engine.config.dims),
            "num_vcs": engine.config.num_vcs,
            "load": engine.config.load,
            "seed": engine.config.seed,
            "backend": engine.backend,
            "window": {
                **asdict(window),
                "throughput_fpc": window.throughput_fpc(nodes),
                "mean_latency": window.mean_latency(),
                "normalized_deadlocks": window.normalized_deadlocks(),
            },
            "by_type": stats.by_type,
            "messages_created": stats.messages_created,
            "detector": (
                engine.detector.describe()
                if engine.detector is not None
                else {"detector": None}
            ),
            "first_deadlock_cycle": (
                stats.first_deadlock_cycle
                if stats.first_deadlock_cycle >= 0 else None
            ),
            "faults": (
                engine.faults.activation_counts()
                if engine.faults is not None else {}
            ),
            "episodes": [epi.to_dict() for epi in episodes],
        }
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"wrote {args.json}")


def cmd_sweep(args) -> int:
    config = from_args(SimConfig, args, load=args.loads[0])
    execution = from_args(ExecutionConfig, args, progress=True)
    try:
        sweep = run_sweep(
            config,
            args.loads,
            warmup=args.warmup,
            measure=args.measure,
            stop_past_saturation=not args.no_early_stop,
            execution=execution,
        )
    except SweepExecutionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"{'load':>8s} {'thr(fpc)':>9s} {'latency':>9s} {'deadlocks':>10s}")
    for p in sweep.points:
        print(f"{p.load:8.4f} {p.throughput_fpc:9.4f} {p.mean_latency:8.1f}c"
              f" {p.deadlocks:10d}")
    print(f"saturation: {sweep.saturation_throughput():.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(sweep.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import runner

    return runner.run(args.scale, args.names or list(runner.EXPERIMENTS),
                      from_args(ExecutionConfig, args, progress=True))


def cmd_farm_plan(args) -> int:
    from repro.farm import CampaignSpec

    base = from_args(SimConfig, args, load=args.loads[0])
    # window, shard size and name come off the namespace like any field
    spec = from_args(CampaignSpec, args, configs=tuple(
        base.with_(load=load) for load in args.loads
    ))
    path = spec.save(args.dir)
    shards = -(-len(args.loads) // spec.shard_size)
    print(f"planned {len(args.loads)} points in {shards} shards -> {path}")
    return 0


def _write_farm_state(directory, report: dict) -> None:
    from pathlib import Path

    from repro.farm.plan import STATE_FILENAME

    write_json_atomic(Path(directory) / STATE_FILENAME, report, indent=1)


def cmd_farm_run(args) -> int:
    from repro.farm import (
        CampaignSpec,
        ChaosWorker,
        FarmManager,
        FarmPolicy,
        parse_worker_fault,
    )

    spec = CampaignSpec.load(args.dir)
    dispatch = point_dispatch(from_args(ExecutionConfig, args))
    policy = from_args(FarmPolicy, args)  # --retries, --hang-timeout
    workers = dispatch["workers"]
    if args.chaos:
        faults = tuple(parse_worker_fault(text) for text in args.chaos)
        workers = [ChaosWorker(w, faults) for w in workers]
    tracer = None
    if args.trace:
        from repro.telemetry import Tracer

        tracer = Tracer()
    manager = FarmManager(
        workers, cache=dispatch["cache"], policy=policy, tracer=tracer
    )
    try:
        results = manager.run(spec)
    except SweepExecutionError as exc:
        _write_farm_state(args.dir, manager.report())
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            from repro.telemetry import export_perfetto

            export_perfetto(tracer, args.trace)
            print(f"wrote {args.trace} ({tracer.events_recorded} events)")
    report = manager.report()
    _write_farm_state(args.dir, report)
    print(f"{'load':>8s} {'thr(fpc)':>9s} {'latency':>9s} {'deadlocks':>10s}")
    for r in results:
        print(f"{r.load:8.4f} {r.throughput_fpc:9.4f}"
              f" {r.mean_latency:8.1f}c {r.deadlocks:10d}")
    print(f"campaign {spec.name}: {report['computed']} computed,"
          f" {report['cached']} cached, {report['elapsed_ms']} ms")
    for host, info in report["hosts"].items():
        print(f"  {host:16s} {info['state']:11s}"
              f" ok={info['shards_ok']} failed={info['shards_failed']}")
    return 0


def cmd_farm_status(args) -> int:
    from pathlib import Path

    from repro.farm import CampaignSpec
    from repro.farm.plan import STATE_FILENAME
    from repro.sim.parallel import ResultCache, resolve_points

    spec = CampaignSpec.load(args.dir)
    progress = resolve_points(
        spec.configs, spec.warmup, spec.measure, ResultCache(args.cache_dir)
    )
    print(f"campaign {spec.name}: {progress.cached}/{progress.total}"
          f" points cached, {len(progress.missing)} to compute")
    state_path = Path(args.dir) / STATE_FILENAME
    if state_path.exists():
        state = json.loads(state_path.read_text("utf-8"))
        print(f"last run: {state.get('computed', '?')} computed,"
              f" failed={state.get('failed', [])}")
        for host, info in state.get("hosts", {}).items():
            print(f"  {host:16s} {info['state']:11s}"
                  f" ok={info['shards_ok']} failed={info['shards_failed']}")
    return 0


def _cdg_adhoc_report(args):
    """Certify one ad-hoc (--topology, --routing) pair."""
    from repro.analysis import check
    from repro.network import (
        build_topology,
        dimension_order_routing,
        duato_routing,
        full_mesh_routing,
        partitioned_vc_map,
        tfar_vc_map,
        true_fully_adaptive_routing,
    )

    topology = build_topology(
        args.topology, dims=args.dims, bristling=args.bristling,
        file=args.topology_file,
    )
    if args.routing == "dor":
        routing = dimension_order_routing(
            topology, partitioned_vc_map(args.num_vcs, 1))
    elif args.routing == "duato":
        routing = duato_routing(
            topology, partitioned_vc_map(args.num_vcs, 1))
    elif args.routing == "tfar":
        routing = true_fully_adaptive_routing(
            topology, tfar_vc_map(args.num_vcs))
    else:  # cano: VC-free full-mesh direct routing
        routing = full_mesh_routing(topology)
    return check(topology, routing, name=f"{args.topology}-{args.routing}")


def cmd_cdg_check(args) -> int:
    from repro.analysis import builtin_pairs, check_pair, gate_failures

    if args.list:
        for pair in builtin_pairs():
            print(f"{pair.name:26s} {pair.expected:9s} {pair.description}")
        return 0
    if args.routing is not None:
        reports = [_cdg_adhoc_report(args)]
        # Ad-hoc pairs carry no registry annotation; a refutation simply
        # means "this pair can deadlock" and the exit code says so.
        problems = [f"{r.name}: {r.verdict}"
                    for r in reports if not r.certified]
    else:
        registry = {pair.name: pair for pair in builtin_pairs()}
        names = args.pairs or list(registry)
        unknown = [n for n in names if n not in registry]
        if unknown:
            print(f"unknown pair(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"known: {', '.join(registry)}", file=sys.stderr)
            return 2
        reports = [check_pair(registry[name]) for name in names]
        problems = gate_failures(reports)
    for report in reports:
        print(report.format())
        print()
    certified = sum(1 for r in reports if r.certified)
    print(f"{certified}/{len(reports)} certified,"
          f" {len(reports) - certified} refuted,"
          f" {len(problems)} gate failure(s)")
    for problem in problems:
        print(f"  GATE: {problem}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
        print(f"wrote {args.json}")
    return 1 if problems else 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service.http import run_service
    from repro.sim.vector.kernel import KernelBuildError, load_kernel

    try:
        load_kernel()  # compile and load now, not inside some job's first point
    except KernelBuildError as exc:
        print(f"warning: jobs will run on the reference engine (same results,"
              f" slower): {exc}", file=sys.stderr)

    execution = from_args(ExecutionConfig, args)

    def announce(server) -> None:
        print(f"campaign service on http://{server.host}:{server.port}"
              f" (jobs dir: {args.jobs_dir}, cache: {execution.cache_dir})")
        from repro.service.scenarios import scenario_names

        print(f"scenarios: {', '.join(scenario_names())}")

    try:
        asyncio.run(run_service(
            host=args.host, port=args.port, cache_dir=execution.cache_dir,
            jobs_dir=args.jobs_dir, workers=execution.workers,
            farm_hosts=execution.farm_hosts, sample_every=args.sample_every,
            announce=announce,
        ))
    except KeyboardInterrupt:
        print("\ndrained and stopped")
    return 0


def _print_job_line(job: dict) -> None:
    print(f"{job['id']:12s} {job['state']:9s} p{job['priority']:<3d}"
          f" {job['done_points']:3d}/{job['total']:<3d}"
          f" ({job['cached']} cached)  {job['name']}")


def _follow_job(client, job_id: str) -> int:
    from repro.service import ServiceError

    try:
        for event, data, _ in client.stream_events(job_id):
            if event == "progress":
                src = "cache" if data.get("cached") else "sim"
                print(f"  point {data.get('point', '?')}:"
                      f" {data.get('done', '?')}/{data.get('total', '?')}"
                      f" [{src}]")
            elif event == "status":
                print(f"  state -> {data.get('state')}")
            elif event == "dropped":
                print(f"  (stream lagged: {data['dropped']} events dropped)")
            elif event == "done":
                state = data.get("state")
                print(f"job {job_id}: {state}, {data.get('computed')}"
                      f" computed + {data.get('cached')} cached"
                      f" of {data.get('total')}")
                if data.get("error"):
                    print(f"  error: {data['error']}", file=sys.stderr)
                return 0 if state == "done" else 1
    except ServiceError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        reply = client.submit(
            args.scenario, priority=args.priority, scale=args.scale,
            seed=args.seed, warmup=args.warmup, measure=args.measure,
        )
    except (ServiceError, ConnectionError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    job = reply["job"]
    verb = "submitted" if reply["created"] else "already known"
    print(f"{verb}: job {job['id']} ({job['name']})"
          f" priority={job['priority']} state={job['state']}"
          f" cached={job['cached']}/{job['total']}")
    if args.follow and job["state"] not in ("done", "failed", "cancelled"):
        return _follow_job(client, job["id"])
    return 0


def cmd_jobs(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        if args.scenarios:
            for entry in client.scenarios():
                print(f"{entry['name']:24s} {entry['category']:12s}"
                      f" {entry['smoke_points']:3d}pt  {entry['backend']:9s} "
                      f"{entry['description']}")
                if entry["reference_only"]:
                    print(f"{'':24s} reference engine only:"
                          f" {entry['reference_only']}")
            return 0
        if args.job_id is None:
            for job in client.jobs():
                _print_job_line(job)
            return 0
        if args.follow:
            return _follow_job(client, args.job_id)
        if args.trace is not None:
            trace = client.trace(args.job_id)
            with open(args.trace, "w") as fh:
                json.dump(trace, fh)
            print(f"wrote {args.trace}"
                  f" ({len(trace['traceEvents'])} events)")
            return 0
        job = client.job(args.job_id, results=args.results)
        print(json.dumps(job, indent=2))
        return 0
    except (ServiceError, ConnectionError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1


def cmd_trace(args) -> int:
    from repro.traffic.splash import generate_app_trace
    from repro.traffic.trace import write_trace

    records = generate_app_trace(args.app, args.cpus, args.duration, args.seed)
    write_trace(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """A load grid over one config (``sweep``, ``farm plan``)."""
    add_fields(p, SimConfig, skip=("load",))
    p.add_argument("--loads", default="0.002,0.004,0.008,0.012,0.016",
                   type=load_list,
                   help="comma-separated applied loads"
                   " (default: %(default)s)")
    p.add_argument("--warmup", type=int, default=2000)
    p.add_argument("--measure", type=int, default=5000)


def _add_service_address(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="service port (serve: 0 picks a free one;"
                   " default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Message-dependent deadlock simulator (Song & Pinkston).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one simulation run")
    add_fields(p, SimConfig, defaults={"load": 0.008})
    p.add_argument("--warmup", type=int, default=2000)
    p.add_argument("--measure", type=int, default=8000)
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome/Perfetto trace-event JSON file")
    p.add_argument("--trace-level", default="message",
                   choices=["message", "flit"],
                   help="flit adds VC grants and per-hop token movement")
    p.add_argument("--sample-every", type=int, default=0, metavar="N",
                   help="sample time-series metrics every N cycles (0 = off)")
    p.add_argument("--timeseries", metavar="PATH",
                   help="write sampled metrics as CSV (needs --sample-every)")
    p.add_argument("--json", metavar="PATH",
                   help="write machine-readable results ('-' for stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="load sweep -> Burton curve")
    _add_grid_args(p)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--json", help="write the sweep result to a JSON file")
    add_fields(p, ExecutionConfig)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("experiments", help="regenerate tables/figures")
    p.add_argument("scale", nargs="?", default="smoke",
                   choices=["smoke", "paper"])
    p.add_argument("names", nargs="*")
    add_fields(p, ExecutionConfig)
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("farm", help="distributed sweep campaigns")
    farm_sub = p.add_subparsers(dest="farm_command", required=True)

    fp = farm_sub.add_parser("plan", help="write a campaign directory")
    _add_grid_args(fp)
    fp.add_argument("dir", help="campaign directory (created if needed)")
    fp.add_argument("--shard-size", type=int, default=4)
    fp.add_argument("--name", default="campaign")
    fp.set_defaults(func=cmd_farm_plan)

    for verb, blurb in (
        ("run", "execute a planned campaign across hosts"),
        ("resume", "continue a killed campaign (same as run:"
                   " cached points are never recomputed)"),
    ):
        fp = farm_sub.add_parser(verb, help=blurb)
        fp.add_argument("dir", help="campaign directory")
        add_fields(
            fp, ExecutionConfig,
            only=("farm_hosts", "retries", "point_timeout", "cache_dir"),
            defaults={"farm_hosts": "local", "retries": 2},
        )
        fp.add_argument("--hang-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="when the manager and the transport both give"
                        " up on a host: a dispatch with no answer after"
                        " this long is abandoned and retried elsewhere"
                        " (default: the manager never abandons; ssh/ext"
                        " transports stop waiting after 600 s)")
        fp.add_argument("--chaos", action="append", default=[],
                        metavar="SPEC",
                        help="inject a worker fault, e.g."
                        " crash:host=local0,at=1 (repeatable)")
        fp.add_argument("--trace", metavar="PATH",
                        help="write the campaign timeline as a"
                        " Perfetto trace-event JSON file")
        fp.set_defaults(func=cmd_farm_run)

    fp = farm_sub.add_parser("status", help="campaign progress from cache")
    fp.add_argument("dir", help="campaign directory")
    add_fields(fp, ExecutionConfig, only=("cache_dir",))
    fp.set_defaults(func=cmd_farm_status)

    p = sub.add_parser(
        "cdg-check",
        help="statically certify/refute deadlock freedom (CDG analysis)")
    p.add_argument("pairs", nargs="*", metavar="PAIR",
                   help="built-in pair names (default: all; see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the built-in (topology, routing) pairs")
    p.add_argument("--routing", choices=["dor", "duato", "tfar", "cano"],
                   help="check one ad-hoc pair instead of the registry;"
                   " the topology flags below describe it")
    add_fields(
        p, SimConfig,
        only=("topology", "topology_file", "dims", "bristling", "num_vcs"),
        defaults={"dims": "4x4"},
    )
    p.add_argument("--json", metavar="PATH",
                   help="write every report as a JSON artifact")
    p.set_defaults(func=cmd_cdg_check)

    p = sub.add_parser(
        "serve", help="run the campaign service",
        description="Run the campaign service.  --workers 1 (the default)"
        " runs points in-process and streams live time series; more"
        " workers, or --hosts, stream progress events only.  No job"
        " traces: a finished job's Perfetto trace is computed by the"
        " first request for it (one traced re-run), for every worker kind.")
    _add_service_address(p)
    p.add_argument("--jobs-dir", default="service_jobs",
                   help="job records + queue persistence"
                   " (default: %(default)s)")
    add_fields(p, ExecutionConfig,
               only=("workers", "farm_hosts", "cache_dir"))
    p.add_argument("--sample-every", type=int, default=200, metavar="N",
                   help="metrics sampling period for streamed time series")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a scenario to the service")
    p.add_argument("scenario", help="scenario name (see 'repro jobs"
                   " --scenarios')")
    _add_service_address(p)
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (default: %(default)s)")
    p.add_argument("--scale", default="smoke", choices=["smoke", "paper"])
    p.add_argument("--seed", type=int, default=None,
                   help="override every point's seed")
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--measure", type=int, default=None)
    p.add_argument("--follow", action="store_true",
                   help="stream the job's events until it finishes")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="inspect a running service")
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id (omit to list all jobs)")
    _add_service_address(p)
    p.add_argument("--scenarios", action="store_true",
                   help="list the scenario library instead")
    p.add_argument("--results", action="store_true",
                   help="embed per-point results in the job JSON")
    p.add_argument("--follow", action="store_true",
                   help="stream the job's events")
    p.add_argument("--trace", metavar="PATH",
                   help="write the finished job's Perfetto trace to PATH"
                   " (the service builds it on the first request)")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("trace", help="generate a synthetic app trace")
    p.add_argument("app", choices=["fft", "lu", "radix", "water"])
    p.add_argument("out")
    p.add_argument("--cpus", type=int, default=16)
    p.add_argument("--duration", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentError, ConfigurationError) as exc:
        # flags that parse one by one but make no valid configuration,
        # or one the engine refuses when it is built
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
