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
    The CDG registry pairs of :mod:`repro.experiments.cdg_lab`,
    realized as simulator cells (Mendlovic & Matias's arbitrary-network
    framing as first-class named scenarios).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

from repro.config import SimConfig
from repro.experiments.common import SCALES, Scale, load_grid
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
            "reference_only": next(filter(None, resolved.values()), None),
        }


def _ladder(config: SimConfig, scale: Scale,
            max_load: float = _LADDER_MAX) -> tuple[SimConfig, ...]:
    return tuple(
        config.with_(load=load) for load in load_grid(scale, max_load)
    )


def _baseline_pr(scale: Scale) -> tuple[SimConfig, ...]:
    return _ladder(
        SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271", num_vcs=4),
        scale,
    )


def _scheme_ladder(scale: Scale) -> tuple[SimConfig, ...]:
    """The paper's SA/DR/PR comparison, one short ladder per scheme."""
    cells = (
        SimConfig(dims=(4, 4), scheme="SA", pattern="PAT721", num_vcs=8),
        SimConfig(dims=(4, 4), scheme="DR", pattern="PAT271", num_vcs=4,
                  max_outstanding=12),
        SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271", num_vcs=4),
    )
    loads = load_grid(scale, _LADDER_MAX)[:3]
    return tuple(c.with_(load=load) for c in cells for load in loads)


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
    # The CDG registry pairs realized as simulator cells — imported from
    # the lab so the service and the cdg_lab experiment can never drift.
    from repro.experiments.cdg_lab import _CERTIFIED_CELLS, _REFUTED_CELLS

    for pair_name, config in _REFUTED_CELLS:
        yield Scenario(
            f"cdg-{pair_name}", "cdg",
            f"registry pair {pair_name} (statically REFUTED; the"
            " simulator must deadlock and recover)",
            _cdg_cell(config),
        )
    for pair_name, config in _CERTIFIED_CELLS:
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
