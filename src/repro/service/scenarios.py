"""Named scenario/workload library for the campaign service.

A *scenario* is a named recipe that expands to a
:class:`~repro.farm.plan.CampaignSpec` — the same campaign object the
farm plans and the job manager executes — at a chosen scale.  The split
follows the FireSim manager's shape (SNIPPETS.md): *runtime* knobs
(scale, seed, warmup/measure overrides, priority, execution backend)
arrive with the submission, while the *workload definition* (patterns,
schemes, topologies, fault storms) lives here under a stable name, so
the API, the CLI and experiments all address the same library.

Which engine a scenario runs on is not declared here: its points carry
the default ``backend`` and :func:`repro.sim.engine.resolve_backend`
decides per point, as for every other front end.  The listing reports
what it decides on this host, and why when that is the reference engine.

Categories
----------
figure
    The paper's Figures 8-11: one Burton-Normal-Form curve per plotted
    (scheme, pattern, VCs, queues) cell on the 8x8 torus, swept from
    light load to past saturation (:func:`repro.sim.sweep.run_sweeps`
    stops each curve "just beyond saturation", Section 4.3.1).
ablation
    Design choices beyond the figures, as curves of the same kind.
synthetic
    The paper's Table 2/3 synthetic load patterns, as Burton-curve
    ladders per scheme.
splash
    The Table-3 application mixes (the PAT distributions are the
    paper's Splash-2-derived traffic characterization).
adversarial
    Worst-case traffic: deep reply chains at saturating load with
    minimal buffering — the regime where deadlock handling dominates.
faults
    Fault storms layered on healthy traffic (stacked injector specs).
cdg
    The CDG registry pairs that :mod:`repro.experiments.cdg_lab` checks,
    realized as simulator cells (Mendlovic & Matias's arbitrary-network
    framing as first-class named scenarios).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

from repro.config import SimConfig
from repro.experiments.common import (
    CDG_CERTIFIED_CELLS,
    CDG_REFUTED_CELLS,
    MAX_LOAD_BY_VCS,
    PANEL_PATTERNS,
    SCALES,
    SCHEME_CELLS,
    Scale,
    load_grid,
    valid_schemes,
)
from repro.farm.plan import CampaignSpec
from repro.faults.models import FaultSpec
from repro.sim.engine import resolve_backend
from repro.util.errors import ConfigurationError

#: loads used by the fixed-ladder scenarios (scaled by sweep_points).
_LADDER_MAX = 0.016


@dataclass(frozen=True)
class Scenario:
    """One named workload definition."""

    name: str
    category: str
    description: str
    build: Callable[[Scale], tuple[SimConfig, ...]]

    def describe(self) -> dict:
        """JSON-able listing entry (point count at smoke scale)."""
        configs = self.build(SCALES["smoke"])
        resolved = dict(resolve_backend(config) for config in configs)
        return {
            "name": self.name,
            "category": self.category,
            "description": self.description,
            "smoke_points": len(configs),
            "backend": "/".join(sorted(resolved)),
            # only a point kept off the kernel comes with a reason
            "backend_reason": next(filter(None, resolved.values()), None),
        }


def _ladder(config: SimConfig, scale: Scale,
            max_load: float = _LADDER_MAX) -> tuple[SimConfig, ...]:
    return tuple(
        config.with_(load=load) for load in load_grid(scale, max_load)
    )


def _curves(cells: Iterable[SimConfig]) -> Callable[[Scale],
                                                   tuple[SimConfig, ...]]:
    """One curve per cell, up to its VC count's load ceiling."""
    cells = tuple(cells)
    return lambda scale: tuple(
        config for cell in cells
        for config in _ladder(cell, scale, MAX_LOAD_BY_VCS[cell.num_vcs])
    )


def _figure(num_vcs: int, patterns: tuple[str, ...]):
    """A panel per pattern, a curve per scheme the paper plots there."""
    return _curves(
        SimConfig(scheme=scheme, pattern=pattern, num_vcs=num_vcs)
        for pattern in patterns for scheme in valid_schemes(pattern, num_vcs)
    )


def _baseline_pr(scale: Scale) -> tuple[SimConfig, ...]:
    return _ladder(
        SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271", num_vcs=4),
        scale,
    )


def _scheme_ladder(scale: Scale) -> tuple[SimConfig, ...]:
    """The paper's SA/DR/PR comparison, one short ladder per scheme."""
    loads = load_grid(scale, _LADDER_MAX)[:3]
    return tuple(
        cell.with_(dims=(4, 4), load=load)
        for cell in SCHEME_CELLS.values() for load in loads
    )


def _splash_mix(scale: Scale) -> tuple[SimConfig, ...]:
    """Table-3 application mixes: every PAT distribution, two loads."""
    patterns = ("PAT100", "PAT721", "PAT451", "PAT271", "PAT280")
    loads = (0.006, 0.012)
    return tuple(
        SimConfig(dims=(4, 4), scheme="PR", pattern=pattern, num_vcs=4,
                  load=load)
        for pattern in patterns for load in loads
    )


def _adversarial_worstcase(scale: Scale) -> tuple[SimConfig, ...]:
    """Deep chains past saturation with minimal buffering.

    The NONE cell is the exhibit: detection without recovery, so
    unresolved deadlocks accumulate in the result row.  DR and PR run
    the same traffic and must keep delivering.
    """
    base = SimConfig(
        dims=(4, 4), pattern="PAT271", num_vcs=4,
        queue_capacity=8, flit_buffer_depth=1,
    )
    return tuple(
        base.with_(scheme=scheme, load=load)
        for scheme in ("NONE", "DR", "PR")
        for load in (0.02, 0.03)
    )


def _fault_storm(scale: Scale) -> tuple[SimConfig, ...]:
    """Stacked injector faults over healthy PR traffic, two seeds."""
    storms = (
        (
            FaultSpec("consumer-stall", target=5, start=300, duration=900),
            FaultSpec("token-loss", start=450),
        ),
        (
            FaultSpec("link-stall", target=3, start=300, duration=900),
            FaultSpec("eject-stall", target=5, start=600, duration=600),
        ),
    )
    return tuple(
        SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271", num_vcs=4,
                  load=0.012, seed=seed, faults=faults)
        for faults in storms for seed in (1, 2)
    )


def _fat_tree(scale: Scale) -> tuple[SimConfig, ...]:
    """Uniform traffic on the fat-tree substrate (PR and SA cells)."""
    cells = (
        SimConfig(topology="fat_tree", dims=(2, 4), scheme="PR",
                  pattern="PAT271", num_vcs=4),
        SimConfig(topology="fat_tree", dims=(2, 4), scheme="SA",
                  pattern="PAT721", num_vcs=8),
    )
    loads = load_grid(scale, 0.012)[:3]
    return tuple(c.with_(load=load) for c in cells for load in loads)


def _cdg_cell(config: SimConfig) -> Callable[[Scale], tuple[SimConfig, ...]]:
    return lambda scale: (config,)


def _builtin_scenarios() -> Iterable[Scenario]:
    yield Scenario(
        "fig8", "figure",
        "Figure 8, 4 VCs, panels PAT100/721/451/271/280.  SA is infeasible"
        " for chains longer than two (it needs C >= 2L), so it appears only"
        " for PAT100, where DR is absent (two-type protocols make DR"
        " degenerate).  PR yields substantially more throughput than DR (up"
        " to ~2x for PAT721) and than SA for PAT100: partitioning so few"
        " channels starves the avoidance-based schemes.",
        _figure(4, PANEL_PATTERNS),
    )
    yield Scenario(
        "fig9", "figure",
        "Figure 9, 8 VCs: all three schemes are feasible for four-type"
        " patterns.  SA still saturates early where traffic concentrates on"
        " few types (only 1 + (8/L - 2) channels per type); for PAT100 SA"
        " and PR are nearly indistinguishable; DR approaches PR for chains"
        " longer than two, as two partitions spread traffic almost as"
        " evenly as none.",
        _figure(8, PANEL_PATTERNS),
    )
    yield Scenario(
        "fig10", "figure",
        "Figure 10, 16 VCs, panels PAT721/451/271/280.  With abundant"
        " channels link balance stops mattering and endpoint message"
        " coupling dominates: DR (two queues) and PR (one) share NI queues"
        " between message types and fall below SA, whose per-type queues"
        " decouple them.  Figure 11 shows the remedy.",
        _figure(16, PANEL_PATTERNS[1:]),
    )
    yield Scenario(
        "fig11", "figure",
        "Figure 11, PAT271 at 16 VCs: SA, DR and PR with their own NI"
        " queues against DR-QA and PR-QA, which give each message type its"
        " own queues (separation for performance, not deadlock avoidance;"
        " Section 4.3.2).  Shared queues bottleneck DR and PR below SA;"
        " per-type queues let both match or beat SA with full routing"
        " freedom.",
        _curves(
            SimConfig(scheme=scheme, pattern="PAT271", num_vcs=16,
                      queue_mode=queue_mode)
            for scheme, queue_mode in (("SA", "auto"), ("DR", "auto"),
                                       ("PR", "auto"), ("DR", "per-type"),
                                       ("PR", "per-type"))
        ),
    )
    yield Scenario(
        "ablation-partitioning", "ablation",
        "Channel partitioning, SA and DR on PAT721 at 16 VCs: split extras"
        " (availability 1 + (C/L - E_r)) against Martinez-style shared"
        " extras (1 + (C - E_m)), Section 2.1's two formulas.",
        _curves(
            SimConfig(scheme=scheme, pattern="PAT721", num_vcs=16,
                      shared_extras=shared)
            for scheme in ("SA", "DR") for shared in (False, True)
        ),
    )
    yield Scenario(
        "ablation-detection-threshold", "ablation",
        "DR on PAT271 at 8 VCs under endpoint timeouts T = 10, 25, 100"
        " (the paper fixes T = 25 as the CWG-detection stand-in).",
        _curves(
            SimConfig(scheme="DR", pattern="PAT271", num_vcs=8,
                      detection_threshold=threshold)
            for threshold in (10, 25, 100)
        ),
    )
    yield Scenario(
        "ablation-router-timeout", "ablation",
        "PR on PAT721 at 4 VCs under Disha router timeouts 25, 100, 400:"
        " false-positive rescues against time spent deadlocked.",
        _curves(
            SimConfig(scheme="PR", pattern="PAT721", num_vcs=4,
                      router_timeout=timeout)
            for timeout in (25, 100, 400)
        ),
    )
    yield Scenario(
        "baseline-pr", "synthetic",
        "PR/PAT271/4vc Burton ladder on the 4x4 torus", _baseline_pr,
    )
    yield Scenario(
        "scheme-ladder", "synthetic",
        "SA vs DR vs PR, each in its paper-representative cell",
        _scheme_ladder,
    )
    yield Scenario(
        "splash-mix", "splash",
        "every Table-3 application mix (PAT100..PAT280) at two loads",
        _splash_mix,
    )
    yield Scenario(
        "adversarial-worstcase", "adversarial",
        "deep reply chains past saturation with minimal buffering"
        " (NONE exhibit + DR/PR under the same traffic)",
        _adversarial_worstcase,
    )
    yield Scenario(
        "fault-storm", "faults",
        "stacked consumer/link/eject stalls and token loss over PR",
        _fault_storm,
    )
    yield Scenario(
        "fat-tree", "synthetic",
        "uniform traffic on the fat_tree substrate (PR + SA)", _fat_tree,
    )
    # The CDG registry pairs realized as simulator cells: the cells the
    # cdg_lab experiment runs, so the two can never drift.
    for pair_name, config in CDG_REFUTED_CELLS:
        yield Scenario(
            f"cdg-{pair_name}", "cdg",
            f"registry pair {pair_name} (statically REFUTED; the"
            " simulator must deadlock and recover)",
            _cdg_cell(config),
        )
    for pair_name, config in CDG_CERTIFIED_CELLS:
        yield Scenario(
            f"cdg-{pair_name}", "cdg",
            f"registry pair {pair_name} (statically CERTIFIED; SA over"
            " the certified escape routing)",
            _cdg_cell(config),
        )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in _builtin_scenarios()
}


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        )
    return scenario


def describe_scenarios() -> list[dict]:
    """The JSON listing served by ``GET /api/scenarios``."""
    return [scenario.describe() for scenario in SCENARIOS.values()]


def build_campaign(
    name: str,
    scale: str | Scale = "smoke",
    *,
    seed: int | None = None,
    warmup: int | None = None,
    measure: int | None = None,
) -> CampaignSpec:
    """Expand a scenario into the campaign the job manager executes.

    ``scale`` is a named scale ("smoke"/"paper") or a custom
    :class:`Scale`.  ``seed``/``warmup``/``measure`` are runtime
    overrides: the seed replaces every point's, the window replaces the
    scale's.  The same arguments produce the same campaign — and
    therefore, via :func:`repro.service.jobs.job_id_for`, the same job.
    """
    if isinstance(scale, str):
        if scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {scale!r}; known: {', '.join(SCALES)}"
            )
        scale = SCALES[scale]
    configs = get_scenario(name).build(scale)
    if seed is not None:
        configs = tuple(replace(c, seed=seed) for c in configs)
    return CampaignSpec(
        configs=configs,
        warmup=scale.warmup if warmup is None else warmup,
        measure=scale.measure if measure is None else measure,
        name=f"{name}@{scale.name}",
    )
