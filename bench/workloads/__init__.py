"""The eight workloads, by the names ``BENCHMARK.json`` fixes."""

from __future__ import annotations

from bench.workloads.base import Env, PassOutcome, Workload, digest
from bench.workloads.engine import ENGINE_WORKLOADS, EngineWorkload
from bench.workloads.service import ServiceLadder
from bench.workloads.sweep import FarmLocal, SweepColdPool, SweepWarm

__all__ = ["Env", "PassOutcome", "Workload", "build", "digest"]

_CLASSES = {cls.name: cls for cls in (
    SweepColdPool, SweepWarm, FarmLocal, ServiceLadder,
)}


def build(name: str, env: Env) -> Workload:
    if name in ENGINE_WORKLOADS:
        return EngineWorkload(env, name)
    return _CLASSES[name](env)
