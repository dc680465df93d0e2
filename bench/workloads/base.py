"""What every workload provides to the child-process driver."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from bench.stats import median
from bench.trace import Recorder, Span
from repro.sim.results import RunResult


@dataclass
class Env:
    """Everything a workload is told about the run."""

    #: the only source of randomness; reaches the program as
    #: ``SimConfig.seed`` values and nothing else.
    seed: int
    #: 1.0, or 0.25 under ``--quick``: scales cycle and point counts.
    scale: float
    #: private directory inside ``--out`` for caches and job records.
    tmp: Path
    #: closed loop, one client, this many workers/connections.
    workers: int
    #: span sink on the traced pass, None on the measured repeats.
    recorder: Recorder | None = None

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, round(count * self.scale))


@dataclass
class PassOutcome:
    """One pass: what came back, and how it was checked."""

    results: list[RunResult]
    #: simulated cycles (warm-up + measure) of the returned points.
    cycles: int
    #: points the pass was asked for.
    attempted: int
    #: points that raised, were lost, or failed a check.
    failed: int
    #: filled by the driver around ``run_pass``.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: workload-private per-pass measurements (traced pass).
    extra: dict[str, float] = field(default_factory=dict)


def digest(results: list[RunResult]) -> str:
    """sha256 over the results' canonical JSON: the ``stats_digest``."""
    blob = json.dumps([r.to_dict() for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def identity_failures(results: list[RunResult], configs) -> int:
    """Points missing or answering for a config other than their own."""
    bad = abs(len(configs) - len(results))
    for result, config in zip(results, configs):
        if (result.scheme, result.pattern, result.num_vcs, result.load) != (
            config.scheme, config.pattern, config.num_vcs, config.load
        ):
            bad += 1
    return bad


class Workload:
    """Set-up, repeatable fixed-work passes, post-section checks.

    The driver calls ``setup`` (everything that is not the measured
    section), then ``run_pass`` until the time budget is spent with
    ``after_pass`` untimed in between, then ``finish`` and — always —
    ``close``.
    """

    name: str
    #: every pass computes the same points from scratch, so the driver
    #: fails any pass whose results differ from pass 0's.
    same_every_pass = False

    def __init__(self, env: Env) -> None:
        self.env = env
        #: per-layer values that are not per-pass sums (set-up probes).
        self.layers: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, span: Span | None) -> PassOutcome:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Untimed housekeeping between passes."""

    def extra_cpu_s(self) -> float:
        """CPU seconds so far of processes ``os.times`` cannot see yet."""
        return 0.0

    def finish(self, first: PassOutcome) -> tuple[int, int]:
        """Cross-checks after the measured section: (attempted, failed)."""
        return 0, 0

    def layer_metrics(self, outcomes: list[PassOutcome]) -> dict[str, float]:
        """Per-layer metrics of the traced pass: set-up probes as they
        are, per-pass measurements as their median over the passes."""
        out = dict(self.layers)
        for name in outcomes[0].extra:
            out[name] = median([o.extra[name] for o in outcomes])
        return out

    def close(self) -> None:
        """Stop and reap every process the workload started."""
