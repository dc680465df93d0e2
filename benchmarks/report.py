"""Benchmark report: measured cycles/second for the tracked scenarios.

Runs the same engine scenarios as ``test_engine_speed.py`` with a plain
timer (warm-up, then best-of-N timed windows) and writes
``BENCH_engine.json`` — cycles/sec per scenario plus machine info and
the git revision — so the repository carries a performance trajectory
over time.

Usage::

    PYTHONPATH=src python benchmarks/report.py              # full run
    PYTHONPATH=src python benchmarks/report.py --smoke      # CI subset
    PYTHONPATH=src python benchmarks/report.py --check BENCH_engine.json

``--check`` compares a fresh measurement against a previously written
report and exits non-zero if any shared scenario regressed by more than
``--tolerance`` (default 30%), which is what the CI benchmark job
enforces against the checked-in baseline.

Measurement methodology: scenarios are timed with CPU time
(``time.process_time``), which is immune to scheduler steal on busy
hosts, and every report carries a calibration score — a fixed
pure-Python workload timed the same way — so ``--check`` can normalize
for machine-speed differences between the baseline and the
measurement.  Even so, wall-to-wall machine drift (frequency scaling,
noisy neighbours) is typically several percent across minutes: tight
tolerances (a few %) are only meaningful against a baseline produced
moments earlier on the same machine, the way the CI trace-overhead
guard compares against the report written earlier in the same job.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro import SimConfig
from repro.sim.engine import build_engine

#: name -> engine kwargs.  Matches benchmarks/test_engine_speed.py.
SCENARIOS = {
    "PR_light_load": dict(scheme="PR", load=0.004),
    "DR_light_load": dict(scheme="DR", load=0.004),
    "NONE_light_load": dict(scheme="NONE", load=0.004),
    "PR_saturated": dict(scheme="PR", load=0.014),
    "DR_saturated": dict(scheme="DR", load=0.014),
    "PR_16vc": dict(scheme="PR", load=0.012, num_vcs=16),
}

#: Fast subset for CI smoke runs.
SMOKE_SCENARIOS = ("PR_light_load", "PR_saturated")

#: Report key for a scenario measured on a non-default backend.
def scenario_key(name: str, backend: str) -> str:
    return name if backend == "reference" else f"{name}@{backend}"

WARMUP_CYCLES = 500
MEASURE_CYCLES = 400

#: iterations of the calibration loop (a fixed pure-Python workload).
CALIBRATION_ITERS = 200_000


def measure_scenario(
    name: str, *, rounds: int = 3, traced: bool = False,
    backend: str = "reference",
) -> float:
    """Best-of-``rounds`` cycles/second (CPU time) for one scenario.

    ``traced`` attaches a message-level tracer (the always-on telemetry
    configuration), measuring the cost of live event recording; this
    harness measures it on the reference engine only.
    """
    kw = dict(SCENARIOS[name])
    engine = build_engine(
        SimConfig(pattern="PAT721", seed=3, backend=backend, **kw)
    )
    if traced:
        from repro.telemetry import Tracer

        engine.attach_tracer(Tracer(level="message"))
    engine.run(WARMUP_CYCLES)
    best = 0.0
    for _ in range(rounds):
        t0 = time.process_time()
        engine.run(MEASURE_CYCLES)
        elapsed = time.process_time() - t0
        best = max(best, MEASURE_CYCLES / elapsed)
    return best


def calibrate(rounds: int = 5) -> float:
    """Machine-speed score: best-of-``rounds`` iterations/sec (CPU time)
    of a fixed interpreter-bound loop.  Stored in every report so
    ``--check`` can rescale a baseline written on different hardware.
    """
    best = 0.0
    for _ in range(rounds):
        t0 = time.process_time()
        acc = 0
        d = {}
        for i in range(CALIBRATION_ITERS):
            d[i & 63] = acc
            acc += i ^ (acc >> 3)
        elapsed = time.process_time() - t0
        best = max(best, CALIBRATION_ITERS / elapsed)
    return best


def git_sha() -> str:
    cwd = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        if out.returncode != 0:
            return "unknown"
        sha = out.stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        if dirty.returncode == 0 and dirty.stdout.strip():
            sha += "-dirty"
        return sha
    except OSError:
        return "unknown"


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "processor": platform.processor() or "unknown",
    }


def build_report(
    names, rounds: int, traced: bool = False,
    backends: tuple[str, ...] = ("reference",),
) -> dict:
    results = {}
    speedups = {}
    for name in names:
        per_backend = {}
        for backend in backends:
            key = scenario_key(name, backend)
            cps = measure_scenario(name, rounds=rounds, backend=backend)
            results[key] = round(cps, 1)
            per_backend[backend] = cps
            print(f"{key:>22}: {cps:>8.0f} cycles/sec", file=sys.stderr)
        if "reference" in per_backend and "vector" in per_backend:
            ratio = per_backend["vector"] / per_backend["reference"]
            speedups[name] = round(ratio, 2)
            print(f"{name + ' speedup':>22}: {ratio:>7.2f}x vector/reference",
                  file=sys.stderr)
        if traced:
            cps = per_backend["reference"]
            traced_cps = measure_scenario(name, rounds=rounds, traced=True)
            results[f"{name}+trace"] = round(traced_cps, 1)
            print(f"{name + '+trace':>22}: {traced_cps:>8.0f} cycles/sec"
                  f" ({traced_cps / cps:.2f}x of untraced)",
                  file=sys.stderr)
    report = {
        "schema": 3,
        "git_sha": git_sha(),
        "machine": machine_info(),
        "warmup_cycles": WARMUP_CYCLES,
        "measure_cycles": MEASURE_CYCLES,
        "calibration_ops_per_second": round(calibrate(), 1),
        "cycles_per_second": results,
    }
    if speedups:
        report["vector_speedup"] = speedups
    return report


def check_regression(report: dict, baseline_path: Path, tolerance: float) -> int:
    """Exit status: 0 if no shared scenario regressed beyond tolerance.

    When both reports carry a calibration score the baseline is rescaled
    by the machine-speed ratio first, so the comparison survives a
    hardware change.  Residual drift is still a few percent over
    minutes; tolerances tighter than that need a baseline written in
    the same session (see the CI trace-overhead guard).
    """
    baseline = json.loads(baseline_path.read_text("utf-8"))
    base_results = baseline.get("cycles_per_second", {})
    scale = 1.0
    base_cal = baseline.get("calibration_ops_per_second")
    cal = report.get("calibration_ops_per_second")
    if base_cal and cal:
        scale = cal / base_cal
        # The calibration score itself jitters a few percent, so rescale
        # only across a clear hardware change; within one machine the
        # raw comparison is the lower-noise one.
        if 0.80 <= scale <= 1.25:
            scale = 1.0
        else:
            print(f"machine-speed normalization: x{scale:.3f} "
                  f"(calibration {cal:.0f} vs baseline {base_cal:.0f})",
                  file=sys.stderr)
    failures = []
    missing = []
    for name, measured in report["cycles_per_second"].items():
        base = base_results.get(name)
        if not base:
            # `+trace` variants are informational (the guard's subject is
            # the *untraced* path), so their absence from an untraced
            # baseline is expected, not a coverage gap.
            if "+" not in name:
                missing.append(name)
            continue
        ratio = measured / (base * scale)
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"{name:>22}: {measured:>8.0f} vs baseline {base:>8.0f} "
              f"({ratio:.2f}x) {status}", file=sys.stderr)
        if ratio < 1.0 - tolerance:
            failures.append(name)
    if missing:
        # A scenario that was measured but has no baseline entry means
        # the checked-in report predates it: the gate would silently
        # stop covering new scenarios.  Fail with the fix spelled out.
        print(
            "scenarios missing from baseline "
            f"{baseline_path}: {', '.join(missing)}\n"
            "regenerate it with: PYTHONPATH=src python benchmarks/report.py "
            "--backend both --rounds 5",
            file=sys.stderr,
        )
        return 1
    if failures:
        print(f"regression beyond {tolerance:.0%}: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def check_speedup_floor(report: dict, floor: float) -> int:
    """Exit status: 0 if every measured vector speedup meets ``floor``.

    The floor is the honest measured multiplier recorded in the
    baseline (see ``vector_speedup`` in BENCH_engine.json), enforced by
    the CI engine-benchmark matrix so the vector backend cannot quietly
    decay back toward reference speed.
    """
    speedups = report.get("vector_speedup")
    if not speedups:
        print("--min-speedup needs both backends (use --backend both)",
              file=sys.stderr)
        return 1
    failures = [
        f"{name} {ratio:.2f}x" for name, ratio in speedups.items()
        if ratio < floor
    ]
    if failures:
        print(f"vector speedup below the {floor:.2f}x floor: "
              + ", ".join(failures), file=sys.stderr)
        return 1
    print(f"vector speedup floor {floor:.2f}x met: "
          + ", ".join(f"{n} {r:.2f}x" for n, r in speedups.items()),
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the fast CI scenario subset")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed rounds per scenario (best is kept)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_engine.json",
                        help="where to write the JSON report")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on "
                             "regression beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional slowdown in --check mode")
    parser.add_argument("--traced", action="store_true",
                        help="also measure each scenario with a message-"
                             "level tracer attached (reported as "
                             "<name>+trace)")
    parser.add_argument("--backend", choices=("reference", "vector", "both"),
                        default="reference",
                        help="engine backend(s) to measure; 'both' also "
                             "records per-scenario vector speedups")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="with --backend both: exit 1 if any scenario's "
                             "vector speedup falls below X")
    args = parser.parse_args(argv)

    backends = (
        ("reference", "vector") if args.backend == "both" else (args.backend,)
    )
    if args.traced and "reference" not in backends:
        parser.error("--traced requires the reference backend")
    if args.min_speedup is not None and args.backend != "both":
        parser.error("--min-speedup requires --backend both")

    names = SMOKE_SCENARIOS if args.smoke else tuple(SCENARIOS)
    report = build_report(
        names, rounds=args.rounds, traced=args.traced, backends=backends
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n", "utf-8")
    print(f"wrote {args.output}", file=sys.stderr)
    status = 0
    if args.check is not None:
        status = check_regression(report, args.check, args.tolerance)
    if args.min_speedup is not None:
        status = check_speedup_floor(report, args.min_speedup) or status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
