"""Simulation configuration.

One dataclass carries every knob of a run; defaults reproduce the
paper's Table 2 ("Default simulation parameters for FlexSim"):
8x8 torus, wormhole switching, 4 VCs per link, 2-flit channel buffers,
4-flit requests / 20-flit replies (set on the protocol's message types),
one processor per node, 40-clock message service, random traffic and
16-message NI queues.

**One declaration per field.**  A field is ``_opt(default, help, ...)``
and nothing else names it: ``__post_init__`` validates ``choices`` from
a table built at import, and every command line that takes the
dataclass derives the field's option from the same metadata
(:func:`repro.util.options.add_fields` / ``from_args``), so a new field
is one edit here.  Metadata keys: ``help``; ``choices`` (valid values);
``flag`` (spelling, default ``--field-name``; None = not on the command
line); ``dest`` (namespace attribute, default the field name); ``parse``
(text -> value, default the type of the default); ``metavar``;
``repeat`` (the flag may be given several times, collected in a tuple).
A boolean's flag takes no value and flips the field away from its
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.faults.models import FaultSpec, parse_fault
from repro.network.topology import TOPOLOGY_KINDS
from repro.util.errors import ConfigurationError


def _opt(default, help, **meta):
    return field(default=default, metadata={"help": help, **meta})


def radices(text: str) -> tuple[int, ...]:
    """``8x8`` / ``4x4x4`` -> ``(8, 8)`` / ``(4, 4, 4)``."""
    return tuple(int(k) for k in text.lower().split("x"))


def host_spec(text: str) -> str:
    """A ``--hosts`` value, rejected now rather than hours into a campaign."""
    from repro.farm import parse_hosts  # the farm imports this module

    parse_hosts(text)
    return text


@dataclass(frozen=True)
class SimConfig:
    """All parameters of a single simulation run."""

    # --- network (Table 2) ---
    #: "torus" is the paper's k-ary n-cube, "mesh2d" an open mesh (XY
    #: escape without datelines), "fullmesh" direct single-hop links
    #: (Cano-style routing), "irregular" the built-in 9-router graph.
    #: See :func:`repro.network.topology.build_topology`.
    topology: str = _opt(
        "torus", "network substrate ('file' loads a JSON graph from"
        " --topology-file)", choices=TOPOLOGY_KINDS)
    topology_file: str | None = _opt(
        None, "JSON graph description for --topology=file", metavar="PATH")
    dims: tuple[int, ...] = _opt(
        (8, 8), "grid radices, e.g. 8x8 or 4x4x4 (torus/mesh2d; fullmesh"
        " uses the product as its router count; irregular/file ignore it)",
        parse=radices)
    bristling: int = _opt(1, "nodes per router")
    num_vcs: int = _opt(4, "virtual channels per link", flag="--vcs")
    flit_buffer_depth: int = _opt(2, "flits per virtual-channel buffer")

    # --- deadlock handling ---
    scheme: str = _opt("PR", "deadlock-handling scheme",
                       choices=("SA", "DR", "PR", "NONE"))
    shared_extras: bool = _opt(
        False, "Martinez shared extra channels instead of a split per class")
    #: "per-type" for DR/PR yields the paper's Figure 11 "QA" cells.
    queue_mode: str = _opt(
        "auto", "NI queue organisation; auto picks the scheme's own"
        " (SA: per-type, DR: per-net, PR/NONE: shared)",
        choices=("auto", "shared", "per-net", "per-type"))
    #: "endpoint" is the paper's three-condition detector, "cmh"
    #: Chandy-Misra-Haas edge chasing with real probe messages,
    #: "timeout" a cheap progress-timeout heuristic (false-positive-
    #: prone by design).  The CWG checker (``cwg_interval``) stays
    #: available as ground truth regardless of this choice.
    detector: str = _opt(
        "endpoint", "deadlock detection mechanism (SA allows only endpoint)",
        choices=("endpoint", "cmh", "timeout"))
    detection_threshold: int = _opt(
        25, "endpoint detector timeout T in cycles (Section 4.1)",
        metavar="T")
    timeout_threshold: int = _opt(
        200, "timeout detector: cycles a waiting head may see no queue"
        " progress", metavar="T")
    cmh_block_threshold: int = _opt(
        4, "CMH: cycles a site must be blocked before it probes",
        metavar="T")
    cmh_probe_interval: int = _opt(
        64, "CMH: cycles between probe waves of one blocked site",
        metavar="N")
    router_timeout: int = _opt(
        25, "PR: cycles a header may block in-network before the token"
        " may rescue it (Disha timeout)", metavar="T")

    # --- traffic ---
    pattern: str = _opt("PAT721", "transaction pattern (Table 3)")
    load: float = _opt(
        0.005, "applied load: requests generated per node per cycle")

    # --- endpoints ---
    queue_capacity: int = _opt(16, "messages per NI queue")
    service_time: int = _opt(40, "memory-controller service time in cycles")
    sink_time: int = _opt(
        1, "service time of terminating messages (MSHR absorption)")
    max_outstanding: int = _opt(
        16, "MSHRs per node: bound on concurrently outstanding transactions")

    # --- run control ---
    #: resolved per point by :func:`repro.sim.engine.resolve_backend`;
    #: see EXPERIMENTS.md for the bit-identity contract.
    backend: str = _opt(
        "auto", "engine implementation; results are bit-identical. auto:"
        " the compiled vector engine unless its route table cannot hold"
        " the topology or no C compiler is found. A named engine is never"
        " switched",
        choices=("auto", "reference", "vector"))
    seed: int = _opt(1, "seed of every random stream of the run")
    cwg_interval: int = _opt(
        0, "run the omniscient CWG ground-truth checker every N cycles"
        " (0 = off; paper used 50)", metavar="N")

    # --- robustness ---
    #: see :mod:`repro.faults`; empty = healthy run.
    faults: tuple[FaultSpec, ...] = _opt(
        (), "inject a fault, e.g."
        " consumer-stall:target=5,start=600,duration=1500 (repeatable)",
        flag="--fault", parse=parse_fault, metavar="SPEC", repeat=True)
    invariants_every: int = _opt(
        0, "run the invariant suite every N cycles (0 = off)", metavar="N")
    #: raises :class:`~repro.util.errors.LivenessError`.
    watchdog_timeout: int = _opt(
        0, "fail after this many progress-free cycles with messages in"
        " flight (0 = off)", flag="--watchdog", dest="watchdog",
        metavar="CYCLES")

    def __post_init__(self) -> None:
        for name, valid in _SIM_CHOICES.items():
            if getattr(self, name) not in valid:
                raise ConfigurationError(
                    f"{name} {getattr(self, name)!r} not in {valid}"
                )
        if self.topology == "file" and not self.topology_file:
            raise ConfigurationError(
                "topology 'file' needs topology_file to name a JSON graph"
            )
        for name in ("timeout_threshold", "cmh_block_threshold",
                     "cmh_probe_interval", "num_vcs", "flit_buffer_depth",
                     "queue_capacity", "max_outstanding"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if not 0.0 <= self.load <= 1.0:
            raise ConfigurationError("load must be a per-cycle probability")
        if not isinstance(self.faults, tuple):
            # accept any iterable of specs; normalise for hashing/caching.
            object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"faults entries must be FaultSpec, got {spec!r}"
                )
        for name in ("detection_threshold", "router_timeout", "service_time",
                     "sink_time", "cwg_interval", "invariants_every",
                     "watchdog_timeout"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def with_(self, **kwargs) -> "SimConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)


#: field -> valid values, built once from the declarations above.
_SIM_CHOICES = {f.name: f.metadata["choices"] for f in fields(SimConfig)
                if "choices" in f.metadata}


@dataclass(frozen=True)
class ExecutionConfig:
    """How sweep points are *executed* (not what they simulate).

    Kept separate from :class:`SimConfig` so that execution knobs —
    worker count, caching, progress reporting — can never change a
    result or leak into a cache key.
    """

    workers: int = _opt(
        1, "worker processes for sweep points (1 = run in-process)")
    use_cache: bool = _opt(
        True, "skip the on-disk result cache", flag="--no-cache",
        dest="no_cache")
    cache_dir: str = _opt(
        ".repro_cache", "result cache location (created on first write)")
    retries: int = _opt(
        1, "extra attempts for a failed point or shard before it is reported")
    #: emit a progress line (points done/total, ETA, cache hits); every
    #: command line turns it on.
    progress: bool = _opt(False, "", flag=None)
    point_timeout: float | None = _opt(
        None, "kill the local process that sat on one point longer than"
        " this, then retry the point (default: no timeout)",
        parse=float, metavar="SECONDS")
    #: results stay bit-identical wherever a point is computed; like
    #: every other field here, this can never leak into a cache key.
    farm_hosts: str | None = _opt(
        None, "compute on farm hosts (repro.farm) instead of --workers"
        " local processes: comma-separated local[:N], ssh:HOST[:python],"
        " ext:DIR", flag="--hosts", dest="hosts", parse=host_spec)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be positive")
        if self.retries < 0:
            raise ConfigurationError("retries must be non-negative")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ConfigurationError("point_timeout must be positive")
        if self.farm_hosts is not None and not self.farm_hosts.strip():
            raise ConfigurationError("farm_hosts must name at least one host")
