"""Regenerate every table and figure: ``python -m repro.experiments.runner``.

Usage::

    python -m repro.experiments.runner [smoke|paper] [exp ...] \\
        [--workers N] [--hosts SPEC] [--no-cache] [--cache-dir DIR] \\
        [--retries N] [--point-timeout SECONDS]

With no experiment names, all of them run in order.  ``paper`` scale
uses the paper's 30,000-cycle measurement windows and takes hours
serially; ``--workers N`` fans sweep points across N processes, and the
on-disk result cache (on by default, see :mod:`repro.sim.parallel`)
lets an interrupted paper-scale run resume instead of restarting.
``--hosts SPEC`` goes further and fans sweep points across a
fault-tolerant farm (:mod:`repro.farm`) — the same comma-separated
``local[:N]``/``ssh:HOST``/``ext:DIR`` syntax as ``repro farm run`` —
with results bit-identical to local execution and shared through the
same cache.  ``smoke`` (default) finishes in minutes.  The execution
flags are :class:`~repro.config.ExecutionConfig`'s fields, derived from
their declarations like ``repro sweep``'s.

Exits non-zero on an unknown argument or a failed experiment, so CI
smoke jobs fail loudly when regeneration breaks.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from repro.config import ExecutionConfig
from repro.experiments import (
    ablations,
    cdg_lab,
    detection_lab,
    faults,
    fig6_load_rates,
    fig8_4vc,
    fig9_8vc,
    fig10_16vc,
    fig11_queues,
    scenario_sweep,
    table1_responses,
    table3_distributions,
    telemetry,
    topologies,
    trace_deadlocks,
)
from repro.experiments.common import SCALES
from repro.sim.parallel import set_default_execution
from repro.util.options import add_fields, from_args

EXPERIMENTS = {
    "table1": table1_responses,
    "table3": table3_distributions,
    "fig6": fig6_load_rates,
    "trace_deadlocks": trace_deadlocks,
    "fig8": fig8_4vc,
    "fig9": fig9_8vc,
    "fig10": fig10_16vc,
    "fig11": fig11_queues,
    "ablations": ablations,
    "faults": faults,
    "telemetry": telemetry,
    "detection_lab": detection_lab,
    "topologies": topologies,
    "cdg_lab": cdg_lab,
    "scenarios": scenario_sweep,
}

def parse_args(argv: list[str]) -> tuple[str, list[str], ExecutionConfig]:
    """Split argv into (scale, experiment names, execution policy)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "what", nargs="*", metavar="smoke|paper|EXPERIMENT",
        help=f"scale (default: smoke) and experiments (default: all) of"
        f" {', '.join(EXPERIMENTS)}")
    add_fields(parser, ExecutionConfig)
    args = parser.parse_intermixed_args(argv)
    scales = [word for word in args.what if word in SCALES]
    names = [word for word in args.what if word not in SCALES]
    try:
        execution = from_args(ExecutionConfig, args, progress=True)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    return (scales[-1] if scales else "smoke",
            names or list(EXPERIMENTS), execution)


def run(scale: str, names: list[str], execution: ExecutionConfig) -> int:
    """Run the named experiments under ``execution``; returns the exit
    status (1 if any failed)."""
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; experiments:"
            f" {sorted(EXPERIMENTS)}"
        )
    previous = set_default_execution(execution)
    failed: list[str] = []
    try:
        for name in names:
            t0 = time.time()
            try:
                EXPERIMENTS[name].main(scale)
            except Exception:
                traceback.print_exc()
                print(f"[{name} FAILED after {time.time() - t0:.1f}s]",
                      file=sys.stderr)
                failed.append(name)
            else:
                print(f"[{name} done in {time.time() - t0:.1f}s]")
    finally:
        set_default_execution(previous)
    if failed:
        print(f"failed experiments: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(*parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
