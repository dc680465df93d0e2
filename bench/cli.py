"""``python3 -m bench``: run workloads, print every metric, check results.

The orchestrator is one process.  Each repeat of each workload runs in a
fresh child (:mod:`bench.child`); an end-to-end value is the median of
the repeats and ``(max - min) / median`` is printed beside it as its
spread.  End-to-end metrics always come from untraced children; the
traced pass is one more child with the wrappers of :mod:`bench.trace`
installed, compared against an untraced one for its overhead and its
result digest.

With exactly one ``--workload`` the last line of standard output is the
driver's result object (``correct``/``attempted``/``failed``/``metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench import spec
from bench.compare import compare_files
from bench.stats import median, spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
#: a child that has not answered by then is killed and reported.
CHILD_TIMEOUT_S = 150.0
#: --quick: one repeat, counts / 4, a short section, no traced pass.
QUICK_SCALE, QUICK_SECONDS = 0.25, 2.0


class BenchError(RuntimeError):
    """A child crashed, hung, or printed no report."""


def worker_count() -> int:
    """W = min(2, nproc): workers per pool, the closed loop's only width."""
    return min(2, len(os.sched_getaffinity(0)))


def run_child(workload: str, args, seconds: float, repeat: int,
              traced: bool) -> dict:
    tmp = args.out / "tmp" / f"{workload}-r{repeat}{'-traced' if traced else ''}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # tempfile users below us (the kernel build's compiler included)
    # stay inside --out.
    env["TMPDIR"] = str(tmp)
    cmd = [
        sys.executable, "-m", "bench.child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--scale", repr(args.scale),
        "--repeat", str(repeat), "--workers", str(worker_count()),
        "--tmp", str(tmp),
    ]
    if traced:
        cmd += ["--trace-file", str(args.out / f"trace-{workload}.json")]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload} repeat {repeat}: no report in {CHILD_TIMEOUT_S:g}s"
        ) from None
    finally:
        # The child's own processes (pool workers, the server) share its
        # session; whatever happened, none may outlive the benchmark.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: all of them already ended
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} repeat {repeat}: child exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def golden_digest(workload: str, args) -> str | None:
    """The recorded digest, if this run is the one it was recorded for."""
    if args.scale != 1.0 or not BASELINE.exists():
        return None
    baseline = json.loads(BASELINE.read_text("utf-8"))
    if baseline.get("seed") != args.seed:
        return None
    return baseline["workloads"].get(workload, {}).get("stats_digest")


def measure_workload(workload: str, args) -> dict:
    """One workload's entry of ``results.json``."""
    want_e2e = args.trace in ("0", "both")
    want_layers = args.trace in ("1", "both")
    # Without measured repeats the traced child is compared against one
    # untraced child, each on half the time budget.
    repeats = args.repeats if want_e2e else 1
    share = args.seconds / (repeats if want_e2e else 2)
    reports = [
        run_child(workload, args, share, r, traced=False)
        for r in range(repeats)
    ]
    entry: dict = {
        "passes": sum(r["passes"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "stats_digest": reports[0]["stats_digest"],
        "problems": [],
    }
    digests = {r["stats_digest"] for r in reports}
    if want_e2e:
        # What each repeat read before scaling to reference speed.
        entry["repeats"] = [
            {key: r[key] for key in ("host_speed", "calibration_s",
                                     "as_measured", "pass_wall_s",
                                     "pass_cpu_s")}
            for r in reports
        ]
        entry["end_to_end"] = {
            name: {
                "median": median([r[name] for r in reports]),
                "spread": spread([r[name] for r in reports]),
                "values": [r[name] for r in reports],
                "unit": spec.UNITS[name],
            }
            for name in spec.END_TO_END_NAMES
        }
    if want_layers:
        traced = run_child(workload, args, share, 0, traced=True)
        digests.add(traced["stats_digest"])
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        layers = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
        layers.update(traced["per_layer"])
        layers["trace.overhead_frac"] = (
            traced["wall_s"] / median([r["wall_s"] for r in reports]) - 1.0
        )
        entry["per_layer"] = layers
        entry["self_time_s"] = traced["self_time_s"]
    if len(digests) > 1:
        entry["problems"].append(
            "stats_digest differs between repeats of one seed"
        )
    golden = golden_digest(workload, args)
    if golden is not None and golden != entry["stats_digest"]:
        entry["problems"].append(
            f"stats_digest {entry['stats_digest'][:12]} is not the recorded"
            f" {golden[:12]} for seed {args.seed}"
        )
    entry["golden_checked"] = golden is not None
    entry["failed"] += len(entry["problems"])
    entry["failed_frac"] = entry["failed"] / entry["attempted"]
    return entry


def print_entry(workload: str, entry: dict, args) -> None:
    print(f"== {workload}  (seed {args.seed}, {entry['passes']} passes) ==")
    for name, cell in entry.get("end_to_end", {}).items():
        print(f"  {name:<18} {cell['median']:>14.6g} {cell['unit']:<9}"
              f" spread {cell['spread']:.3f}  bound {spec.BOUNDS[name]:g}"
              f"  ({spec.BETTER[name]} is better)")
    print(f"  {'failed_frac':<18} {entry['failed_frac']:>14.6g} {'fraction':<9}"
          f" {entry['failed']} of {entry['attempted']} points")
    checked = "checked against baseline.json" if entry["golden_checked"] \
        else "printed, not compared"
    print(f"  {'stats_digest':<18} {entry['stats_digest']}  ({checked})")
    for problem in entry["problems"]:
        print(f"  FAILED: {problem}")
    if "per_layer" in entry:
        print("  -- per layer, traced pass (per pass; 0 = layer not on"
              " this workload's path) --")
        for name, value in entry["per_layer"].items():
            print(f"  {name:<36} {value:>14.6g} {spec.UNITS[name]}")
        total = sum(entry["self_time_s"].values())
        shares = ", ".join(
            f"{name} {seconds / total:.1%}"
            for name, seconds in sorted(
                entry["self_time_s"].items(), key=lambda kv: -kv[1]
            )
        ) if total else "no spans below the pass"
        print(f"  self time by span: {shares}")


def driver_line(entry: dict, args) -> str:
    """The result object the benchmark contract asks for."""
    if args.trace == "1":
        cells = {n: entry["per_layer"][n] for n in spec.PER_LAYER_NAMES}
    else:
        cells = {n: c["median"] for n, c in entry["end_to_end"].items()}
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in cells.items()
        },
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", action="append", metavar="NAME",
                        choices=spec.WORKLOAD_NAMES,
                        help="repeatable; default: all eight")
    parser.add_argument("--seed", type=int, default=spec.GOLDEN_SEED,
                        help="reaches the program only as SimConfig.seed"
                        " values (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured section per workload, split across"
                        " the repeats (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=spec.DEFAULT_REPEATS,
                        help="child processes per workload"
                        " (default: %(default)s)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics"
                        " from a traced pass; both")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const="both", help="same as --trace both")
    parser.add_argument("--quick", action="store_true",
                        help="smoke use: 1 repeat, counts / 4, short section,"
                        " no traced pass")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="results.json, trace-<workload>.json and temp"
                        " dirs go here and nowhere else"
                        " (default: bench/out)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results.json files and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare_files(Path(args.compare[0]), Path(args.compare[1]))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'}"
              " is missing", file=sys.stderr)
        return 2
    args.scale = 1.0
    if args.quick:
        args.scale, args.repeats, args.trace = QUICK_SCALE, 1, "0"
        args.seconds = min(args.seconds, QUICK_SECONDS)
    if args.repeats < 1 or args.seconds <= 0:
        print("bench: --repeats and --seconds must be positive",
              file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or list(spec.WORKLOAD_NAMES)

    results: dict = {
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
        "scale": args.scale, "workers": worker_count(),
        "machine": {"python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpus": len(os.sched_getaffinity(0))},
        "workloads": {},
    }
    try:
        for workload in workloads:
            entry = measure_workload(workload, args)
            results["workloads"][workload] = entry
            print_entry(workload, entry, args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.out / "tmp", ignore_errors=True)
    (args.out / "results.json").write_text(
        json.dumps(results, indent=1), "utf-8"
    )
    failed = sum(e["failed"] for e in results["workloads"].values())
    if len(workloads) == 1:
        print(driver_line(results["workloads"][workloads[0]], args))
    else:
        print(f"{len(workloads)} workloads, {failed} failed points")
    return 1 if failed else 0
