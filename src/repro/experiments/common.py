"""Shared experiment infrastructure: scales, load grids, curve helpers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ExecutionConfig, SimConfig
from repro.sim.invariants import conservation_delta, format_dump
from repro.sim.results import SweepResult
from repro.sim.sweep import run_sweep


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


def sweep_scheme(
    scheme: str,
    pattern: str,
    num_vcs: int,
    scale: Scale,
    seed: int = 1,
    queue_mode: str = "auto",
    execution: ExecutionConfig | None = None,
    **config_kwargs,
) -> SweepResult:
    """One Burton-Normal-Form curve for a (scheme, pattern, C) cell.

    ``execution`` (workers, caching, progress) defaults to the
    process-wide policy installed by the CLI/runner; see
    :mod:`repro.sim.parallel`.
    """
    config = SimConfig(
        scheme=scheme,
        pattern=pattern,
        num_vcs=num_vcs,
        queue_mode=queue_mode,
        seed=seed,
        **config_kwargs,
    )
    loads = load_grid(scale, MAX_LOAD_BY_VCS.get(num_vcs, 0.02))
    label = f"{scheme}{'-QA' if queue_mode == 'per-type' else ''}/{pattern}/{num_vcs}vc"
    return run_sweep(
        config,
        loads,
        warmup=scale.warmup,
        measure=scale.measure,
        label=label,
        execution=execution,
    )


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
