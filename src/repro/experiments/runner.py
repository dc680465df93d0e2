"""Regenerate every table and figure: ``python -m repro.experiments.runner``.

Usage::

    python -m repro.experiments.runner [smoke|paper] [name ...] \\
        [--workers N] [--hosts SPEC] [--no-cache] [--cache-dir DIR] \\
        [--retries N] [--point-timeout SECONDS]

A name is an entry of the scenario registry
(:data:`repro.service.scenarios.SCENARIOS`: Figures 8-11, the ablations
and the service's campaigns), run as one campaign by
:func:`repro.sim.sweep.run_sweeps` and printed as its curves, or one of
the labs in :data:`EXPERIMENTS`, which drive engines themselves.  With
no names, all of them run, labs first.  ``paper`` scale uses the paper's
30,000-cycle measurement windows.  For a registry campaign,
``--workers N`` fans points across N processes, ``--hosts SPEC``
across a fault-tolerant farm (:mod:`repro.farm`, the
``local[:N]``/``ssh:HOST``/``ext:DIR`` syntax of ``repro farm run``),
and the on-disk result cache (on by default, see
:mod:`repro.sim.parallel`) lets an interrupted run resume instead of
restarting.  Results are bit-identical however they are computed.  The
labs run serially and uncached: they ignore ``--workers``, ``--hosts``
and ``--no-cache``.
``repro experiments`` is the same command: the arguments are declared
once, by :func:`repro.experiments.common.add_runner_arguments`.

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
    cdg_lab,
    detection_lab,
    faults,
    fig6_load_rates,
    table1_responses,
    table3_distributions,
    topologies,
    trace_deadlocks,
)
from repro.experiments.common import (
    SCALES,
    Scale,
    add_runner_arguments,
    print_curves,
)
from repro.service.scenarios import SCENARIOS, build_campaign
from repro.sim.parallel import set_default_execution
from repro.sim.results import SweepResult
from repro.sim.sweep import run_sweeps
from repro.util.options import from_args

#: the labs: each module's ``main(scale)`` drives engines itself.
EXPERIMENTS = {
    "table1": table1_responses,
    "table3": table3_distributions,
    "fig6": fig6_load_rates,
    "trace_deadlocks": trace_deadlocks,
    "faults": faults,
    "detection_lab": detection_lab,
    "topologies": topologies,
    "cdg_lab": cdg_lab,
}


def run_campaign(name: str, scale: str | Scale,
                 execution: ExecutionConfig | None = None
                 ) -> list[SweepResult]:
    """A registry scenario's curves, computed as one campaign."""
    spec = build_campaign(name, scale)
    return run_sweeps(spec.configs, spec.warmup, spec.measure,
                      execution=execution)


def interpret(args: argparse.Namespace
              ) -> tuple[str, list[str], ExecutionConfig]:
    """(scale, names, execution policy) from a namespace parsed with
    :func:`add_runner_arguments`."""
    scales = [word for word in args.what if word in SCALES]
    names = [word for word in args.what if word not in SCALES]
    return (scales[-1] if scales else "smoke",
            names or [*EXPERIMENTS, *SCENARIOS],
            from_args(ExecutionConfig, args, progress=True))


def parse_args(argv: list[str]) -> tuple[str, list[str], ExecutionConfig]:
    """Split argv into (scale, names, execution policy)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    add_runner_arguments(parser)
    try:
        return interpret(parser.parse_intermixed_args(argv))
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


def run(scale: str, names: list[str], execution: ExecutionConfig) -> int:
    """Run the named experiments under ``execution``; returns the exit
    status (1 if any failed)."""
    unknown = [name for name in names
               if name not in EXPERIMENTS and name not in SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; scenarios: {list(SCENARIOS)};"
            f" labs: {list(EXPERIMENTS)}"
        )
    previous = set_default_execution(execution)
    failed: list[str] = []
    try:
        for name in names:
            t0 = time.time()
            try:
                if name in EXPERIMENTS:
                    EXPERIMENTS[name].main(scale)
                else:
                    print_curves(f"{name} @ {scale}",
                                 run_campaign(name, scale))
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
