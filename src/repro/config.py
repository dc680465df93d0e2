"""Simulation configuration.

One dataclass carries every knob of a run; defaults reproduce the
paper's Table 2 ("Default simulation parameters for FlexSim"):
8x8 torus, wormhole switching, 4 VCs per link, 2-flit channel buffers,
4-flit requests / 20-flit replies (set on the protocol's message types),
one processor per node, 40-clock message service, random traffic and
16-message NI queues.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.faults.models import FaultSpec
from repro.util.errors import ConfigurationError

_VALID_SCHEMES = ("SA", "DR", "PR", "NONE")
_VALID_TOPOLOGIES = (
    "torus", "mesh2d", "fullmesh", "irregular", "fat_tree", "file"
)
_VALID_QUEUE_MODES = ("auto", "shared", "per-net", "per-type")
_VALID_BACKENDS = ("reference", "vector")
_VALID_DETECTORS = ("endpoint", "cmh", "timeout")


@dataclass(frozen=True)
class SimConfig:
    """All parameters of a single simulation run."""

    # --- network (Table 2) ---
    #: network shape: "torus" (the paper's k-ary n-cube), "mesh2d" (open
    #: mesh, XY escape without datelines), "fullmesh" (direct single-hop
    #: links, Cano-style routing), "irregular" (the built-in 9-router
    #: example graph) or "file" (JSON graph named by ``topology_file``).
    #: See :func:`repro.network.topology.build_topology`.
    topology: str = "torus"
    #: JSON topology description for ``topology="file"``.
    topology_file: str | None = None
    #: radix per dimension for grid topologies; for "fullmesh" the
    #: router count is ``prod(dims)``; ignored by "irregular"/"file".
    dims: tuple[int, ...] = (8, 8)
    bristling: int = 1
    num_vcs: int = 4
    flit_buffer_depth: int = 2

    # --- deadlock handling ---
    scheme: str = "PR"
    #: split per-class channel partitioning vs Martinez shared extras.
    shared_extras: bool = False
    #: queue organisation; "auto" picks the scheme's default
    #: (SA: per-type, DR: per-net, PR/NONE: shared).  Setting "per-type"
    #: for DR/PR yields the paper's Figure 11 "QA" configurations.
    queue_mode: str = "auto"
    #: deadlock detection mechanism: "endpoint" is the paper's
    #: three-condition detector; "cmh" is Chandy-Misra-Haas edge
    #: chasing with real probe messages; "timeout" is a cheap
    #: progress-timeout heuristic (false-positive-prone by design).
    #: The CWG checker (``cwg_interval``) stays available as ground
    #: truth regardless of this choice.
    detector: str = "endpoint"
    #: endpoint detection timeout T (cycles), Section 4.1.
    detection_threshold: int = 25
    #: occupancy fraction both queues must exceed (1.0 = full).
    occupancy_threshold: float = 1.0
    #: timeout detector: cycles an input queue may hold a waiting
    #: message with no version change before the detector declares.
    timeout_threshold: int = 200
    #: CMH: cycles a site must be locally blocked before it starts an
    #: edge chase (small — probes, not timers, provide the certainty).
    cmh_block_threshold: int = 4
    #: CMH: re-chase period while a site stays blocked undeclared
    #: (covers probes that died against a then-moving frontier).
    cmh_probe_interval: int = 64
    #: PR: cycles a packet header may block in-network before it is
    #: considered potentially deadlocked (Disha timeout).
    router_timeout: int = 25
    #: DR recovery aggressiveness: "minimum" deflects exactly one message
    #: per detection event (the paper's evaluation setting); "drain"
    #: keeps deflecting queue heads until one would generate a
    #: terminating reply or the output request queue falls below its
    #: threshold (the DASH behaviour of the paper's footnote 4).
    recovery_policy: str = "minimum"
    #: PR token ring order: "interleaved" visits each router followed by
    #: its NIs (default); "routers-first" visits all routers then all
    #: NIs.  The paper notes the token path is logical and configurable.
    token_ring: str = "interleaved"

    # --- traffic ---
    pattern: str = "PAT721"
    #: applied load: request messages generated per node per cycle.
    load: float = 0.005

    # --- endpoints ---
    queue_capacity: int = 16
    service_time: int = 40
    #: service duration of terminating messages (MSHR absorption).
    sink_time: int = 1
    #: MSHRs per node: bound on concurrently outstanding transactions.
    max_outstanding: int = 16

    # --- run control ---
    #: engine implementation: "reference" is the object-per-flit engine,
    #: "vector" the struct-of-arrays backend (:mod:`repro.sim.vector`).
    #: Both produce bit-identical results; see EXPERIMENTS.md.
    backend: str = "reference"
    seed: int = 1
    #: optional CWG-based detection interval (0 = off; paper used 50).
    cwg_interval: int = 0

    # --- robustness ---
    #: faults to inject (see :mod:`repro.faults`); empty = healthy run.
    faults: tuple[FaultSpec, ...] = ()
    #: run the full invariant suite every N cycles (0 = off).
    invariants_every: int = 0
    #: raise :class:`~repro.util.errors.LivenessError` after this many
    #: progress-free cycles with messages in flight (0 = off).
    watchdog_timeout: int = 0

    def __post_init__(self) -> None:
        if self.topology not in _VALID_TOPOLOGIES:
            raise ConfigurationError(
                f"topology {self.topology!r} not in {_VALID_TOPOLOGIES}"
            )
        if self.topology == "file" and not self.topology_file:
            raise ConfigurationError(
                "topology 'file' needs topology_file to name a JSON graph"
            )
        if self.scheme not in _VALID_SCHEMES:
            raise ConfigurationError(
                f"scheme {self.scheme!r} not in {_VALID_SCHEMES}"
            )
        if self.queue_mode not in _VALID_QUEUE_MODES:
            raise ConfigurationError(
                f"queue_mode {self.queue_mode!r} not in {_VALID_QUEUE_MODES}"
            )
        if self.backend not in _VALID_BACKENDS:
            raise ConfigurationError(
                f"backend {self.backend!r} not in {_VALID_BACKENDS}"
            )
        if self.detector not in _VALID_DETECTORS:
            raise ConfigurationError(
                f"detector {self.detector!r} not in {_VALID_DETECTORS}"
            )
        if self.timeout_threshold < 1:
            raise ConfigurationError("timeout_threshold must be positive")
        if self.cmh_block_threshold < 1:
            raise ConfigurationError("cmh_block_threshold must be positive")
        if self.cmh_probe_interval < 1:
            raise ConfigurationError("cmh_probe_interval must be positive")
        if self.num_vcs < 1:
            raise ConfigurationError("num_vcs must be positive")
        if self.flit_buffer_depth < 1:
            raise ConfigurationError("flit_buffer_depth must be positive")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be positive")
        if not 0.0 <= self.load <= 1.0:
            raise ConfigurationError("load must be a per-cycle probability")
        if self.max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be positive")
        if self.recovery_policy not in ("minimum", "drain"):
            raise ConfigurationError(
                f"recovery_policy {self.recovery_policy!r} not in"
                " ('minimum', 'drain')"
            )
        if self.token_ring not in ("interleaved", "routers-first"):
            raise ConfigurationError(
                f"token_ring {self.token_ring!r} not in"
                " ('interleaved', 'routers-first')"
            )
        if not isinstance(self.faults, tuple):
            # accept any iterable of specs; normalise for hashing/caching.
            object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"faults entries must be FaultSpec, got {spec!r}"
                )
        if self.invariants_every < 0:
            raise ConfigurationError("invariants_every must be >= 0")
        if self.watchdog_timeout < 0:
            raise ConfigurationError("watchdog_timeout must be >= 0")

    def with_(self, **kwargs) -> "SimConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ExecutionConfig:
    """How sweep points are *executed* (not what they simulate).

    Kept separate from :class:`SimConfig` so that execution knobs —
    worker count, caching, progress reporting — can never change a
    result or leak into a cache key.
    """

    #: worker processes; 1 = run in-process (serial).
    workers: int = 1
    #: consult/populate the on-disk result cache.
    use_cache: bool = True
    #: cache directory (created on first write).
    cache_dir: str = ".repro_cache"
    #: extra attempts for a crashed point before it is reported.
    retries: int = 1
    #: emit a progress line (points done/total, ETA, cache hits).
    progress: bool = False
    #: wall-clock seconds a single point may run before its worker is
    #: killed and the point retried (None = no timeout).
    point_timeout: float | None = None
    #: compute points on farm hosts (:mod:`repro.farm`) instead of
    #: ``workers`` local processes: a comma-separated host spec in the ``repro farm --hosts`` syntax
    #: (``local[:N]``, ``ssh:HOST[:python]``, ``ext:DIR``).  None keeps
    #: local execution.  Results stay bit-identical either way; like
    #: every other field here, this can never leak into a cache key.
    farm_hosts: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be positive")
        if self.retries < 0:
            raise ConfigurationError("retries must be non-negative")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ConfigurationError("point_timeout must be positive")
        if self.farm_hosts is not None and not self.farm_hosts.strip():
            raise ConfigurationError("farm_hosts must name at least one host")
