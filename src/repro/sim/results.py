"""Result containers for single runs and load sweeps (JSON-friendly)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RunResult:
    """Measured outcome of one (config, load) simulation run."""

    scheme: str
    pattern: str
    num_vcs: int
    load: float
    cycles: int
    messages_delivered: int
    throughput_fpc: float
    mean_latency: float
    latency_max: int
    deadlocks: int
    normalized_deadlocks: float
    transactions_completed: int
    mean_txn_latency: float
    queue_mode: str = "auto"

    def to_dict(self) -> dict:
        # every field is a scalar: asdict() without its recursive copy
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class SweepResult:
    """A Burton-Normal-Form curve: one RunResult per applied load."""

    label: str
    points: list[RunResult] = field(default_factory=list)

    def throughputs(self) -> list[float]:
        return [p.throughput_fpc for p in self.points]

    def latencies(self) -> list[float]:
        return [p.mean_latency for p in self.points]

    def loads(self) -> list[float]:
        return [p.load for p in self.points]

    def saturation_throughput(self) -> float:
        """Highest delivered throughput along the curve (the knee)."""
        return max(self.throughputs(), default=0.0)

    def to_dict(self) -> dict:
        return {"label": self.label, "points": [p.to_dict() for p in self.points]}


def burton_normal_form(sweep: SweepResult) -> list[tuple[float, float]]:
    """(throughput, latency) pairs for plotting (Section 4.3.1)."""
    return list(zip(sweep.throughputs(), sweep.latencies()))
