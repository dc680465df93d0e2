"""Shared experiment infrastructure: scales, load grids, the paper's
figure cells, curve printing and the runner's command line."""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.config import ExecutionConfig
from repro.protocol.transactions import PATTERNS
from repro.sim.invariants import conservation_delta, format_dump
from repro.sim.results import SweepResult
from repro.util.options import add_fields


@dataclass(frozen=True)
class Scale:
    """Run-size knobs for an experiment."""

    name: str
    warmup: int
    measure: int
    #: number of points on each load sweep
    sweep_points: int
    #: trace length (cycles) for the characterization experiments
    trace_duration: int


SCALES: dict[str, Scale] = {
    # Fast enough for the benchmark suite; shapes still assertable.
    "smoke": Scale("smoke", warmup=1500, measure=3000, sweep_points=5,
                   trace_duration=20_000),
    # The paper's setup: 30,000 cycles beyond steady state.
    "paper": Scale("paper", warmup=5000, measure=30_000, sweep_points=9,
                   trace_duration=60_000),
}


def get_scale(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    return SCALES[scale]


def load_grid(scale: Scale, max_load: float) -> list[float]:
    """Evenly spaced applied loads from light traffic to past saturation."""
    n = scale.sweep_points
    return [max_load * (i + 1) / n for i in range(n)]


#: Applied-load ceilings by VC count: enough to drive every scheme past
#: saturation on the 8x8 torus without wasting runtime deep in collapse.
MAX_LOAD_BY_VCS = {4: 0.016, 8: 0.020, 16: 0.024, 64: 0.024}


#: Patterns in the paper's panel order for Figures 8 and 9.
PANEL_PATTERNS = ("PAT100", "PAT721", "PAT451", "PAT271", "PAT280")


def valid_schemes(pattern_name: str, num_vcs: int) -> list[str]:
    """Schemes the paper plots for a (pattern, VC-count) cell.

    SA needs ``C >= 2L`` escape channels (omitted at 4 VCs for chains
    longer than two); DR degenerates for two-type patterns (omitted for
    PAT100).  PR is always valid.
    """
    pattern = PATTERNS[pattern_name]
    schemes = []
    if num_vcs >= 2 * pattern.num_message_types:
        schemes.append("SA")
    if pattern.dr_valid:
        schemes.append("DR")
    schemes.append("PR")
    return schemes


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment runner's command line, declared once for
    ``python -m repro.experiments.runner`` and ``repro experiments``
    (here, so the CLI can build it without importing every lab)."""
    parser.add_argument(
        "what", nargs="*", metavar="smoke|paper|NAME",
        help="scale (default: smoke), then scenario-registry or lab names"
        " (default: all of them)")
    add_fields(parser, ExecutionConfig)


def drain_and_conserve(engine, label: str, max_cycles: int) -> int:
    """Drain ``engine`` or raise with the dump; conserve messages or
    raise.  Returns the conservation delta (0) for the campaign's row."""
    drained = engine.quiesce(max_cycles)
    if not drained:
        raise RuntimeError(
            f"{label} failed to drain:\n" + format_dump(drained.dump)
        )
    lost = conservation_delta(engine)
    if lost != 0:
        raise RuntimeError(
            f"{label}: conservation delta {lost}"
            f" (messages {'lost' if lost > 0 else 'duplicated'})"
        )
    return lost


def print_curves(title: str, sweeps: list[SweepResult]) -> None:
    print(f"\n== {title} ==")
    for s in sweeps:
        pts = "  ".join(
            f"{p.load:.4f}:{p.throughput_fpc:.3f}fpc/{p.mean_latency:.0f}cyc"
            for p in s.points
        )
        print(f"{s.label:24s} sat={s.saturation_throughput():.3f}  {pts}")
