"""repro: reproduction of Song & Pinkston, "Efficient Handling of
Message-Dependent Deadlock in Multiprocessor/Multicomputer Systems"
(IPPS 2001 / USC CENG TR 01-01).

A flit-level wormhole network simulator for k-ary n-cube tori with three
message-dependent deadlock handling techniques: strict avoidance (SA),
Origin2000-style deflective recovery (DR), and the paper's progressive
recovery (PR, *Extended Disha Sequential*).

Quickstart::

    from repro import SimConfig
    from repro.sim.engine import build_engine

    cfg = SimConfig(scheme="PR", pattern="PAT721", num_vcs=4, load=0.004)
    engine = build_engine(cfg)
    window = engine.run_measured(warmup=2000, measure=5000)
    print(window.throughput_fpc(engine.topology.num_nodes),
          window.mean_latency())
"""

from repro.config import ExecutionConfig, SimConfig
from repro.faults import FaultSpec, parse_fault
from repro.protocol.chains import GENERIC_MSI, GENERIC_ORIGIN, MSI_COHERENCE
from repro.protocol.transactions import PATTERNS
from repro.sim.engine import Engine
from repro.sim.results import RunResult, SweepResult, burton_normal_form
from repro.sim.sweep import run_point, run_sweep
from repro.util.errors import (
    InvariantViolation,
    LivenessError,
    PointTimeoutError,
    SweepExecutionError,
)

__version__ = "1.0.0"

__all__ = [
    "ExecutionConfig",
    "SimConfig",
    "Engine",
    "FaultSpec",
    "parse_fault",
    "RunResult",
    "SweepResult",
    "burton_normal_form",
    "run_point",
    "run_sweep",
    "PATTERNS",
    "GENERIC_MSI",
    "GENERIC_ORIGIN",
    "MSI_COHERENCE",
    "InvariantViolation",
    "LivenessError",
    "PointTimeoutError",
    "SweepExecutionError",
    "__version__",
]
