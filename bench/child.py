"""One repeat of one workload, in a process of its own.

Spawned by :mod:`bench.cli` so that every repeat pays a clean import,
starts from a clean ``ru_maxrss`` and owns a fresh temp directory.  The
last line of standard output is one JSON object: the repeat's report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

from bench import spec
from bench.stats import median
from bench.trace import Recorder, self_times
from bench.workloads import Env, PassOutcome, Workload, build, digest

#: span name of a pass: the root every layer span hangs below.
PASS = "pass"
#: what the calibration loop takes on the sandbox the baseline was
#: measured on, when it is quiet.
CALIBRATION_REF_S = 0.010
#: calibration points are at least this far apart, so short passes do
#: not spend their budget calibrating.
CALIBRATION_EVERY_S = 0.25


def calibration_unit() -> float:
    """Seconds this host needs, right now, for a fixed interpreter-bound
    loop that touches nothing of the program under test."""
    start = perf_counter()
    acc = 0
    slots: dict[int, int] = {}
    for i in range(33_500):
        slots[i & 63] = acc
        acc += i ^ (acc >> 3)
    return perf_counter() - start


class HostSpeed:
    """The host's speed while a repeat ran, from calibration points taken
    between its passes.

    The sandbox has slow periods (15-40 s, up to 1.7x) every few minutes
    and drifts by 10-20 % over minutes; both outlast a repeat, so no
    statistic over passes removes them, but the calibration loop sees
    them.  A point is the fastest of three back-to-back units: after a
    pass spent blocked on a pool or a socket the first unit runs on a
    cold CPU and says nothing about the host.
    """

    def __init__(self) -> None:
        self.points: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.points.append(min(calibration_unit() for _ in range(3)))
            self._last = perf_counter()

    def speed(self) -> float:
        """Reference time of the loop over its median here (1 = as fast
        as the reference host, below 1 = slower)."""
        return CALIBRATION_REF_S / median(self.points)


def _cpu_s(workload: Workload) -> float:
    """user+sys so far: this process, its reaped children, and whatever
    the workload keeps alive (``os.times`` would round to clock ticks)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + children.ru_utime + children.ru_stime
            + workload.extra_cpu_s())


def measure(workload: Workload, seconds: float,
            recorder: Recorder | None) -> tuple[list[PassOutcome], HostSpeed]:
    """Run passes back to back until ``seconds`` are spent (closed loop,
    one client: the next pass starts when the previous one returned).
    Returns the passes and the calibration points taken around them."""
    outcomes: list[PassOutcome] = []
    host = HostSpeed()
    host.sample(force=True)
    host.sample(force=True)
    deadline = perf_counter() + seconds
    while not outcomes or perf_counter() < deadline:
        span = recorder.open(PASS) if recorder is not None else None
        cpu = _cpu_s(workload)
        start = perf_counter()
        outcome = workload.run_pass(len(outcomes), span)
        end = perf_counter()
        outcome.wall_s = end - start
        outcome.cpu_s = _cpu_s(workload) - cpu
        if span is not None:
            span.start, span.end = start, end
        if (workload.same_every_pass and outcomes
                and outcome.results != outcomes[0].results):
            outcome.failed = outcome.attempted
        outcomes.append(outcome)
        workload.after_pass()
        host.sample()
    host.sample(force=True)
    host.sample(force=True)
    return outcomes, host


def at_reference_speed(name: str, value: float, speed: float) -> float:
    """A time or rate as it would read on a host of speed 1."""
    unit = spec.UNITS[name]
    if unit in ("s", "ms", "us"):
        return value * speed
    if unit.endswith("/s"):
        return value / speed
    return value


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _coverage(recorder: Recorder) -> tuple[float, dict[str, float]]:
    own = self_times(recorder.spans)
    unattributed = own.pop(PASS, 0.0)
    attributed = sum(own.values())
    total = attributed + unattributed
    return (attributed / total if total else 0.0), own


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before the parent spawned us")
    parser.add_argument("--trace-file", type=Path, default=None,
                        help="install the wrappers and write spans here")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_file is not None:
        recorder = Recorder(f"{args.workload}/r{args.repeat}")
    env = Env(seed=args.seed, scale=args.scale, tmp=args.tmp,
              workers=args.workers, recorder=recorder)
    workload = build(args.workload, env)
    try:
        workload.setup()
        setup_s = time.time() - args.spawned_at
        outcomes, host = measure(workload, args.seconds, recorder)
        checked, check_failed = workload.finish(outcomes[0])
        layers = (
            workload.layer_metrics(outcomes) if recorder is not None else {}
        )
    finally:
        workload.close()

    speed = host.speed()
    wall = [o.wall_s for o in outcomes]
    as_measured = {
        "setup_s": setup_s,
        "wall_s": median(wall),
        "cpu_s": median([o.cpu_s for o in outcomes]),
        "sim_cycles_per_s": median([o.cycles / o.wall_s for o in outcomes]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    report = {
        "workload": args.workload,
        "repeat": args.repeat,
        "passes": len(outcomes),
        "host_speed": speed,
        "calibration_s": host.points,
        "as_measured": as_measured,
        "attempted": sum(o.attempted for o in outcomes) + checked,
        "failed": sum(o.failed for o in outcomes) + check_failed,
        "stats_digest": digest(outcomes[0].results),
        "pass_wall_s": wall,
        "pass_cpu_s": [o.cpu_s for o in outcomes],
    }
    for name, value in as_measured.items():
        report[name] = at_reference_speed(name, value, speed)
    if recorder is not None:
        coverage, own = _coverage(recorder)
        layers["trace.self_time_coverage"] = coverage
        layers["bench.host_speed"] = speed
        report["self_time_s"] = own
        recorder.dump(args.trace_file)
    report["per_layer"] = {
        name: at_reference_speed(name, value, speed)
        for name, value in layers.items()
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
