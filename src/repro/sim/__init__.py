"""Simulation engine, statistics, results, sweeps and parallel execution."""

from repro.sim.engine import Engine
from repro.sim.parallel import (
    ResultCache,
    code_version,
    get_default_execution,
    point_key,
    run_points,
    set_default_execution,
)
from repro.sim.results import RunResult, SweepResult, burton_normal_form
from repro.sim.stats import (
    SimStats,
    WindowCounters,
    format_breakdown,
    type_breakdown,
)
from repro.sim.sweep import run_point, run_sweep

__all__ = [
    "Engine",
    "OccupancyMonitor",
    "ResultCache",
    "RunResult",
    "SimStats",
    "SweepResult",
    "WindowCounters",
    "burton_normal_form",
    "code_version",
    "format_breakdown",
    "get_default_execution",
    "point_key",
    "run_point",
    "run_points",
    "run_sweep",
    "run_with_monitor",
    "set_default_execution",
    "type_breakdown",
]


def __getattr__(name: str):
    # The monitor lives in repro.telemetry, which an untraced run never
    # loads; import it when someone asks for it.
    if name in ("OccupancyMonitor", "run_with_monitor"):
        from repro.telemetry import samplers

        return getattr(samplers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
