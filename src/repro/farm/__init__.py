"""``repro.farm`` — a fault-tolerant distributed sweep farm.

Shards a campaign of sweep points across pluggable workers (local
process pools, ssh hosts, externally provisioned job directories) with
the on-disk result cache as the coordination substrate.  See
:mod:`repro.farm.manager` for the robustness model and the README's
"Distributed sweeps" section for the operator's view.

Host specification strings (CLI ``--hosts``, comma-separated)::

    local          this machine, one point at a time
    local:4        this machine, 4 worker processes
    ssh:HOST       HOST over ssh (repro on the remote PYTHONPATH)
    ext:DIR        job-dir protocol rooted at DIR (external agent)
"""

from __future__ import annotations

from repro.farm.chaos import (
    ChaosWorker,
    WorkerFaultSpec,
    parse_worker_fault,
)
from repro.farm.health import (
    HEALTHY,
    PROBATION,
    QUARANTINED,
    SUSPECT,
    HostHealth,
)
from repro.farm.manager import FarmManager, FarmPolicy, ShardFailure
from repro.farm.plan import CampaignSpec, Shard, plan_shards
from repro.farm.workers import (
    ExternalWorker,
    FarmWorker,
    LocalPoolWorker,
    ShardJob,
    ShardOutcome,
    ShardTransportError,
    SSHHostWorker,
    WorkerProcessDied,
)
from repro.util.errors import ConfigurationError

__all__ = [
    "CampaignSpec", "Shard", "plan_shards",
    "FarmManager", "FarmPolicy", "ShardFailure",
    "FarmWorker", "LocalPoolWorker", "SSHHostWorker", "ExternalWorker",
    "ShardJob", "ShardOutcome", "ShardTransportError", "WorkerProcessDied",
    "HostHealth", "HEALTHY", "SUSPECT", "QUARANTINED", "PROBATION",
    "ChaosWorker", "WorkerFaultSpec", "parse_worker_fault",
    "parse_hosts",
]


def parse_hosts(text: str, *,
                point_timeout: float | None = None) -> list[FarmWorker]:
    """Build workers from a comma-separated ``--hosts`` specification."""
    workers: list[FarmWorker] = []
    entries = [entry.strip() for entry in text.split(",") if entry.strip()]
    if not entries:
        raise ConfigurationError("empty --hosts specification")
    for n, entry in enumerate(entries):
        kind, _, rest = entry.partition(":")
        if kind == "local":
            width = 1
            if rest:
                if not rest.isdigit() or int(rest) < 1:
                    raise ConfigurationError(
                        f"bad local worker width {rest!r} in {entry!r}"
                    )
                width = int(rest)
            workers.append(LocalPoolWorker(
                f"local{n}", workers=width, point_timeout=point_timeout,
            ))
        elif kind == "ssh":
            if not rest:
                raise ConfigurationError(f"ssh host missing in {entry!r}")
            host, _, python = rest.partition(":")
            workers.append(SSHHostWorker(
                f"ssh{n}:{host}", host, python=python or "python3",
            ))
        elif kind == "ext":
            if not rest:
                raise ConfigurationError(f"ext job dir missing in {entry!r}")
            workers.append(ExternalWorker(f"ext{n}", rest))
        else:
            raise ConfigurationError(
                f"unknown host kind {kind!r} in {entry!r}"
                " (expected local/ssh/ext)"
            )
    return workers
