"""The simulation engine: assembles substrates and runs the cycle loop.

Per cycle, in order: traffic generation, endpoint work (transaction
admission, injection loading, memory-controller service), fabric flit
movement, the scheme's detection/recovery actions, then the observers
both engines share (``_end_cycle``: optionally the paper's 50-cycle
CWG check, statistics, the tracer, invariants and the watchdog).
"""

from __future__ import annotations

import warnings

from repro.config import SimConfig
from repro.core.cwg import detect_deadlock
from repro.core.schemes import Scheme, build_scheme
from repro.endpoint.interface import NetworkInterface
from repro.faults.injector import FaultInjector
from repro.network.fabric import Fabric
from repro.network.topology import build_topology
from repro.protocol.chains import Protocol
from repro.protocol.transactions import PATTERNS
from repro.sim.invariants import InvariantChecker, QuiesceResult, capture_dump
from repro.sim.stats import SimStats, WindowCounters
from repro.traffic.synthetic import SyntheticTraffic, pattern_couplings
from repro.util.errors import ConfigurationError


class Engine:
    """One simulated network plus endpoints under one scheme."""

    #: NI implementation; the vector backend substitutes a subclass that
    #: reports endpoint activity to its event scheduler.
    interface_class = NetworkInterface
    #: which engine this is, and :func:`resolve_backend`'s reason
    backend = "reference"
    backend_reason: str | None = None

    def __init__(
        self,
        config: SimConfig,
        traffic=None,
        protocol: Protocol | None = None,
        types_used: tuple[str, ...] | None = None,
        couplings: set[tuple[str, str]] | None = None,
    ) -> None:
        """Build a simulator.

        With no explicit ``traffic``, synthetic traffic over
        ``config.pattern`` is used and the protocol/type/coupling
        information is derived from the pattern.  Trace-driven runs pass
        their own traffic source plus protocol metadata.
        """
        self.config = config
        self.topology = build_topology(
            config.topology,
            dims=config.dims,
            bristling=config.bristling,
            file=config.topology_file,
        )

        if traffic is None:
            pattern = PATTERNS.get(config.pattern)
            if pattern is None:
                raise ConfigurationError(f"unknown pattern {config.pattern!r}")
            traffic = SyntheticTraffic(pattern, config.load, config.seed)
            protocol = pattern.protocol
            types_used = pattern.types_used
            couplings = pattern_couplings(pattern)
        elif protocol is None or types_used is None or couplings is None:
            raise ConfigurationError(
                "custom traffic requires protocol, types_used and couplings"
            )

        self.protocol = protocol
        self.traffic = traffic
        self.scheme: Scheme = build_scheme(
            config, self.topology, protocol, types_used, couplings
        )
        self.fabric = self._build_fabric(config)
        self.stats = SimStats(self)
        self.interfaces = [
            type(self).interface_class(
                node,
                self.fabric,
                self.scheme,
                self.stats,
                queue_capacity=config.queue_capacity,
                num_queue_classes=self.scheme.num_queue_classes,
                max_outstanding=config.max_outstanding,
            )
            for node in range(self.topology.num_nodes)
        ]
        self.scheme.attach(self)
        self.traffic.attach(self)
        self.now = 0
        self.cwg_knots_seen = 0
        #: telemetry tracer (``repro.telemetry.Tracer``) or None; kept
        #: off SimConfig so trace settings never perturb cache keys.
        self.tracer = None
        # Hoisted config read for the per-cycle loop.
        self._cwg_interval = config.cwg_interval
        # Robustness layer: both default to None so the healthy hot path
        # pays one `is None` test per cycle each.
        self.faults: FaultInjector | None = (
            FaultInjector(self, config.faults, config.seed)
            if config.faults else None
        )
        self.invariants: InvariantChecker | None = (
            InvariantChecker(
                self,
                every=config.invariants_every,
                watchdog=config.watchdog_timeout,
            )
            if config.invariants_every or config.watchdog_timeout else None
        )

    # ------------------------------------------------------------------
    @property
    def detector(self):
        """The scheme's detection mechanism (None for SA)."""
        return self.scheme.detector

    def attach_tracer(self, tracer) -> None:
        """Install a :class:`repro.telemetry.Tracer` on every hook site."""
        self.tracer = tracer
        tracer.attach(self)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole system by one cycle."""
        self.now += 1
        now = self.now
        if self.faults is not None:
            # Before traffic: a fault applied at cycle t shapes cycle t.
            self.faults.step(now)
        self.traffic.step(now)
        for ni in self.interfaces:
            ni.step(now)
        self.fabric.step(now)
        self.scheme.step(now)
        self._end_cycle(now)

    def _end_cycle(self, now: int) -> None:
        """The observers of a finished cycle, in order; both engines end
        every cycle here, and each observer reads only state both
        fabrics keep exact at this point."""
        if self._cwg_interval and now % self._cwg_interval == 0:
            self.cwg_knots_seen += len(detect_deadlock(self))
        self.stats.on_cycle(now)
        if self.tracer is not None:
            self.tracer.on_cycle(now)
        if self.invariants is not None:
            self.invariants.on_cycle(now)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def run_measured(self, warmup: int, measure: int) -> WindowCounters:
        """Warm up, open the measurement window, run, and return it."""
        self.run(warmup)
        self.stats.begin_window(self.now)
        self.run(measure)
        return self.stats.end_window(self.now)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples)
    # ------------------------------------------------------------------
    def total_queued_messages(self) -> int:
        return sum(
            ni.in_bank.total_occupancy() + ni.out_bank.total_occupancy()
            for ni in self.interfaces
        )

    def quiesce(self, max_cycles: int = 200_000) -> QuiesceResult:
        """Stop traffic and drain; truthy if the system empties.

        Used by conservation tests: with generation off, every in-flight
        message should eventually be delivered and consumed (unless an
        unrecovered deadlock exists).  A failed drain returns a falsy
        :class:`~repro.sim.invariants.QuiesceResult` whose ``dump``
        reports exactly which resources still hold messages.
        """
        saved_load = getattr(self.traffic, "load", None)
        if saved_load is not None:
            self.traffic.load = 0.0
        try:
            for _ in range(max_cycles):
                if self._empty():
                    return QuiesceResult(True)
                self.step()
            if self._empty():
                return QuiesceResult(True)
            return QuiesceResult(
                False,
                capture_dump(
                    self, reason=f"quiesce failed after {max_cycles} cycles"
                ),
            )
        finally:
            if saved_load is not None:
                self.traffic.load = saved_load

    def _build_fabric(self, config: SimConfig) -> Fabric:
        """Fabric factory; the vector backend overrides this."""
        return Fabric(
            self.topology,
            config.num_vcs,
            config.flit_buffer_depth,
            self.scheme.routing,
        )

    def _empty(self) -> bool:
        if self.fabric.occupancy() > 0 or self.fabric.pending:
            return False
        if self.total_queued_messages() > 0:
            return False
        for ni in self.interfaces:
            if ni.source_queue or not ni.controller.idle:
                return False
        for chan in self.fabric._inj_channels.values():
            if chan.owner is not None:
                return False
        controller = getattr(self.scheme, "controller", None)
        if controller is not None and getattr(controller, "phase", "idle") != "idle":
            return False  # a progressive rescue is still in flight
        traffic = self.traffic
        # Trace-driven sources need not expose ``load``; treat a missing
        # attribute as "not generating" rather than raising.
        if (
            getattr(traffic, "exhausted", True) is False
            and getattr(traffic, "load", 0) > 0
        ):
            return False
        return True


#: the no-kernel fallback has been reported (once per process).
_warned_no_kernel = False


def resolve_backend(config: SimConfig, tracer=None) -> tuple[str, str | None]:
    """Which engine runs ``config``, and what kept ``"auto"`` off the
    kernel if something did — the one place this is decided.

    A named ``backend`` is returned as declared: a pinned engine is
    never switched, it raises where it cannot do what was asked.
    ``"auto"`` is the vector engine unless the point needs something on
    the one list (:func:`~repro.sim.vector.engine.reference_only_features`),
    ``tracer`` is flit-level, or this host cannot build the kernel —
    then the reference engine computes the identical result.
    """
    global _warned_no_kernel
    if config.backend != "auto":
        return config.backend, None
    from repro.sim.vector.engine import reference_only_features
    from repro.sim.vector.kernel import KernelBuildError, load_kernel

    features = reference_only_features(config)
    if tracer is not None and tracer.flit_level:
        features.append("flit-level tracing")
    if features:
        return "reference", ", ".join(features)
    try:
        load_kernel()
    except KernelBuildError as exc:
        if not _warned_no_kernel:
            _warned_no_kernel = True
            warnings.warn(
                f"running on the reference engine (same results, slower): {exc}",
                RuntimeWarning,
            )
        return "reference", "no compiled kernel on this host"
    return "vector", None


def build_engine(config: SimConfig, tracer=None, **kwargs) -> Engine:
    """The engine :func:`resolve_backend` names — the object-per-flit
    :class:`Engine` or the bit-identical struct-of-arrays
    :class:`repro.sim.vector.VectorEngine` — with ``tracer`` attached."""
    backend, reason = resolve_backend(config, tracer)
    if backend == "vector":
        from repro.sim.vector import VectorEngine

        engine = VectorEngine(config, **kwargs)
    else:
        engine = Engine(config, **kwargs)
    engine.backend_reason = reason
    if tracer is not None:
        engine.attach_tracer(tracer)
    return engine
