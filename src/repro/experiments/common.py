"""Shared experiment infrastructure: scales, load grids, the paper's
figure cells, curve printing, the runner's command line, and the lab
harness (:class:`LabScale`, :data:`SCHEME_CELLS`, :func:`run_cell`)
through which the engine-driving labs run their cells."""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.config import ExecutionConfig, SimConfig
from repro.protocol.transactions import PATTERNS
from repro.sim.engine import Engine, build_engine
from repro.sim.invariants import conservation_delta, format_dump
from repro.sim.results import SweepResult
from repro.sim.stats import WindowCounters
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


@dataclass(frozen=True)
class LabScale:
    """Run-size knobs for a lab that drives engines itself.

    A cell runs ``run_cycles`` cycles when that is set, else a
    ``warmup`` + ``measure`` window; a drained cell then gets
    ``quiesce_cycles`` to empty.  ``fault_start``/``fault_duration``
    place the fault of a lab that injects one.  Each lab keeps its own
    smoke and paper values: the windows differ for a reason (the
    detection lab's DR cell under CMH wedges in drain after the fault
    campaign's 30,000-cycle run).
    """

    name: str
    run_cycles: int = 0
    warmup: int = 0
    measure: int = 0
    fault_start: int = 0
    fault_duration: int = 0
    quiesce_cycles: int = 0


def lab_scale(scale: str | LabScale, scales: dict[str, LabScale]
              ) -> LabScale:
    """``scale`` itself, or the lab's scale of that name."""
    return scale if isinstance(scale, LabScale) else scales[scale]


#: each scheme's paper-representative cell, for the labs and the
#: ``scheme-ladder`` scenario (callers add substrate, load, seed and
#: observers).  SA needs C >= 2L: PAT721's four-type chains at 8 VCs.
#: DR's detection heuristic needs MSHR headroom below the reply-queue
#: capacity (max_outstanding < queue_capacity), as in the Origin2000,
#: so admission-time reservations cannot starve the service-time ones;
#: at the default ``max_outstanding`` DR wedges where no detector sees.
SCHEME_CELLS: dict[str, SimConfig] = {
    "SA": SimConfig(scheme="SA", pattern="PAT721", num_vcs=8),
    "DR": SimConfig(scheme="DR", pattern="PAT271", num_vcs=4,
                    max_outstanding=12),
    "PR": SimConfig(scheme="PR", pattern="PAT271", num_vcs=4),
}

#: refuted CDG registry pairs realized as simulator cells, for
#: ``cdg_lab`` and the ``cdg-*`` scenarios: PR's routing is exactly the
#: registry's true-fully-adaptive pair on each substrate, at a load that
#: provokes deadlock.
CDG_REFUTED_CELLS: tuple[tuple[str, SimConfig], ...] = tuple(
    (name, SCHEME_CELLS["PR"].with_(load=0.02, **substrate))
    for name, substrate in (
        ("torus4x4-tfar", {"topology": "torus", "dims": (4, 4)}),
        ("irregular9-tfar", {"topology": "irregular"}),
    )
)

#: certified registry pairs realized as SA cells (avoidance over the
#: certified escape routing) with the CWG ground-truth checker on.
CDG_CERTIFIED_CELLS: tuple[tuple[str, SimConfig], ...] = tuple(
    (name, SCHEME_CELLS["SA"].with_(cwg_interval=50, load=0.012,
                                    **substrate))
    for name, substrate in (
        ("torus4x4-duato", {"topology": "torus", "dims": (4, 4)}),
        ("mesh2d4x4-duato", {"topology": "mesh2d", "dims": (4, 4)}),
        ("irregular9-updown", {"topology": "irregular"}),
    )
)


def run_cell(config: SimConfig, scale: LabScale, label: str, tracer=None,
             drain: bool = True) -> tuple[Engine, WindowCounters | None]:
    """Build ``config``'s engine and run it for ``scale``'s window.

    Unless ``drain`` is false, then drain it and audit the books:
    raises with the dump if it does not empty, and raises if a message
    was lost or duplicated.  Returns the engine and the measured window
    (``None`` for a fixed ``run_cycles`` run).
    """
    engine = build_engine(config, tracer)
    window = None
    if scale.run_cycles:
        engine.run(scale.run_cycles)
    else:
        window = engine.run_measured(scale.warmup, scale.measure)
    if drain:
        drained = engine.quiesce(scale.quiesce_cycles)
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
    return engine, window


def print_curves(title: str, sweeps: list[SweepResult]) -> None:
    print(f"\n== {title} ==")
    for s in sweeps:
        pts = "  ".join(
            f"{p.load:.4f}:{p.throughput_fpc:.3f}fpc/{p.mean_latency:.0f}cyc"
            for p in s.points
        )
        print(f"{s.label:24s} sat={s.saturation_throughput():.3f}  {pts}")
