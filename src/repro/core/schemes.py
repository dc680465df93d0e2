"""Deadlock-handling schemes: SA, DR, PR and a detection-only baseline.

A scheme bundles the three decisions the paper compares (Section 4.3.1):

1. **Channel organisation** — the :class:`~repro.network.routing.VcMap`
   and routing function (logical networks per type for SA, two networks
   for DR, True Fully Adaptive Routing for PR).
2. **Endpoint queue organisation** — how message types map onto NI queue
   classes, plus the MSHR reply-slot preallocation rule.
3. **Run-time behaviour** — detection and recovery actions executed each
   cycle (nothing for SA; backoff deflection for DR; Extended Disha
   Sequential token rescue for PR).

The scheme object doubles as the *endpoint policy* consumed by
:class:`~repro.endpoint.controller.MemoryController` and
:class:`~repro.endpoint.interface.NetworkInterface`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.network.routing import (
    VcMap,
    dimension_order_routing,
    duato_routing,
    partitioned_vc_map,
    tfar_vc_map,
    true_fully_adaptive_routing,
)
from repro.network.topology import Topology
from repro.protocol.chains import Protocol
from repro.protocol.message import NetClass
from repro.util.errors import ConfigurationError


def walk_specs(continuation):
    """Yield every spec in a continuation tree (all depths)."""
    for spec in continuation:
        yield spec
        yield from walk_specs(spec.continuation)


class Scheme(ABC):
    """Base class: channel map + queue policy + per-cycle behaviour."""

    name: str = "?"

    def __init__(
        self,
        config,
        topology: Topology,
        protocol: Protocol,
        types_used: tuple[str, ...],
        couplings: set[tuple[str, str]],
    ) -> None:
        self.config = config
        self.topology = topology
        self.protocol = protocol
        self.types_used = tuple(types_used)
        self.couplings = set(couplings)
        self.service_time = config.service_time
        self.sink_time = config.sink_time
        self._type_index = {n: i for i, n in enumerate(self.types_used)}
        self.engine = None
        #: telemetry hook (repro.telemetry.Tracer) or None.
        self.tracer = None
        #: the detection mechanism (repro.core.detectors.Detector), built
        #: on attach by schemes that detect; None for SA.
        self.detector = None
        # Statistics common to all schemes.
        self.deadlocks_detected = 0
        self.recoveries = 0
        self.vc_map: VcMap | None = None
        self.routing = None
        #: False for schemes that never preallocate reply slots (only DR
        #: overrides ``wants_reservation``): reservations succeed at once.
        self._reserves = (
            type(self).wants_reservation is not Scheme.wants_reservation
        )
        #: last (continuation, in_bank, node, queues) of _reply_queues.
        self._reply_memo: tuple = (None, None, -1, [])

    # ------------------------------------------------------------------
    # Endpoint policy interface
    # ------------------------------------------------------------------
    @abstractmethod
    def queue_class_of(self, mtype) -> int:
        """NI queue class for a message type."""

    @abstractmethod
    def vc_class_of(self, mtype) -> int:
        """Logical network (VC class) for a message type."""

    def wants_reservation(self, mtype) -> bool:
        """Whether arrivals of this type are backed by reply preallocation."""
        return False

    @staticmethod
    def vc_classes(types_used: tuple[str, ...]) -> int:
        """Logical networks (VC classes) the scheme routes ``types_used``
        over; known before any topology or channel map is built.  Each
        scheme sizes its ``vc_map`` with this, so the vector backend's
        size check and the map it checks cannot disagree."""
        return 1

    @property
    @abstractmethod
    def num_queue_classes(self) -> int:
        ...

    def _reply_queues(self, node: int, in_bank, continuation) -> list:
        """Input queue of each reply-class spec destined to ``node``.
        A decision's test and act ask back to back, and the answer
        depends on the arguments alone: the last one is kept."""
        memo = self._reply_memo
        if memo[0] is continuation and memo[1] is in_bank and memo[2] == node:
            return memo[3]
        queues = [
            in_bank.queue(self.queue_class_of(spec.mtype))
            for spec in walk_specs(continuation)
            if spec.dst == node and self.wants_reservation(spec.mtype)
        ]
        self._reply_memo = (continuation, in_bank, node, queues)
        return queues

    def reservation_blocker(self, node: int, in_bank, continuation,
                            vacating=None) -> int | None:
        """The reservation test: the input class whose queue cannot take
        one reservation per reply-class spec of ``continuation`` bound
        for ``node``, or None when all fit.  No side effects.

        ``vacating`` names a queue whose head the same action pops
        before it reserves; the head's slot counts as free.  Without it
        a head needing a reservation in its own full queue (a BRP in the
        shared reply queue, any head under shared queue mode) could
        never be serviced: an endpoint deadlock the protocol does not
        have.
        """
        if self._reserves:
            queues = self._reply_queues(node, in_bank, continuation)
            for q in queues:
                if q.free_slots + (q is vacating) < queues.count(q):
                    return in_bank.queues.index(q)
        return None

    def make_reservations(self, node: int, in_bank, continuation) -> None:
        """Reserve what :meth:`reservation_blocker` found room for (the
        caller tested, then popped any vacating head)."""
        if self._reserves:
            for q in self._reply_queues(node, in_bank, continuation):
                q.reserve_reply()

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        self.engine = engine

    def step(self, now: int, nodes=None) -> None:
        """Per-cycle detection/recovery work: poll the detector (over
        ``nodes`` only, see ``Detector.poll``) and :meth:`act` on every
        fired site (SA has no detector)."""
        if self.detector is not None:
            self.detector.poll(now, self.act, nodes)

    def act(self, det, now: int) -> bool:
        """Act on one fired detector site; False if nothing could be
        done yet (the site stays fired).  ``Scheme.step`` calls this for
        every site fired at ``now``, in build order.  It may change only
        ``det``'s own NI's queues (the vector backend relies on it)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _resolve_queue_mode(self, default: str) -> str:
        mode = self.config.queue_mode
        return default if mode == "auto" else mode

    def _type_queue_class(self, mtype) -> int:
        """Per-type class; the backoff reply shares its terminating sibling's queue."""
        idx = self._type_index.get(mtype.name)
        if idx is not None:
            return idx
        if mtype.is_backoff:
            # Share the queue of the last reply-class type in use.
            for i in range(len(self.types_used) - 1, -1, -1):
                t = self.protocol.type_named(self.types_used[i])
                if t.net_class == NetClass.REPLY:
                    return i
        raise ConfigurationError(f"message type {mtype.name} not in {self.types_used}")

    def describe(self) -> dict:
        """Human-readable summary used by examples and experiment logs."""
        return {
            "scheme": self.name,
            "num_vcs": self.vc_map.num_vcs if self.vc_map else None,
            "logical_networks": self.vc_map.num_classes if self.vc_map else None,
            "availability": [
                self.vc_map.availability(c) for c in range(self.vc_map.num_classes)
            ]
            if self.vc_map
            else None,
            "queue_classes": self.num_queue_classes,
            "adaptive": getattr(self.routing, "adaptive", None),
        }


class StrictAvoidance(Scheme):
    """SA: one logical network (escape pair + queues) per message type.

    Message-dependent deadlock can never form: resource dependencies flow
    only from a type to its subordinates, and each type's network is
    routing-deadlock-free by itself.  The cost is partitioning: with C
    virtual channels and L types, per-type availability is
    ``1 + (C/L - E_r)`` (split) or ``1 + (C - E_m)`` (shared extras).
    Requires ``C >= 2L`` (the paper omits SA from the 4-VC experiments
    for patterns with chains longer than two for exactly this reason).
    """

    name = "SA"

    def __init__(self, config, topology, protocol, types_used, couplings):
        super().__init__(config, topology, protocol, types_used, couplings)
        if config.detector != "endpoint":
            raise ConfigurationError(
                "SA runs no detector (deadlock cannot form); "
                f"detector={config.detector!r} is meaningless here"
            )
        self.vc_map = partitioned_vc_map(
            config.num_vcs, self.vc_classes(self.types_used),
            shared_extras=config.shared_extras,
        )
        has_adaptive = any(self.vc_map.adaptive)
        if has_adaptive:
            self.routing = duato_routing(topology, self.vc_map)
        else:
            self.routing = dimension_order_routing(topology, self.vc_map)
        mode = self._resolve_queue_mode("per-type")
        if mode != "per-type":
            raise ConfigurationError(
                "strict avoidance requires per-type message queues"
            )

    @staticmethod
    def vc_classes(types_used: tuple[str, ...]) -> int:
        return len(types_used)

    def queue_class_of(self, mtype) -> int:
        if mtype.is_backoff:  # pragma: no cover - SA never deflects
            raise ConfigurationError("SA cannot route backoff replies")
        return self._type_index[mtype.name]

    vc_class_of = queue_class_of

    @property
    def num_queue_classes(self) -> int:
        return len(self.types_used)


class DeflectiveRecovery(Scheme):
    """DR: two logical networks (request/reply) with Origin2000 backoff.

    Message-dependent deadlock may form on the request network; the reply
    network is strictly avoided via MSHR reply-slot preallocation.  On
    detection, the head request that would generate further requests is
    deflected back to its requester as a backoff reply (BRP), which then
    re-issues the subordinate request directly — one extra message per
    recovery (Section 2.2).  Behavioural logic lives in
    :class:`repro.core.deflection.DeflectionController`.
    """

    name = "DR"

    def __init__(self, config, topology, protocol, types_used, couplings):
        super().__init__(config, topology, protocol, types_used, couplings)
        if len(self.types_used) <= 2:
            raise ConfigurationError(
                "DR is not valid for two-type protocols (it degenerates to "
                "SA); the paper gives no DR results for PAT100"
            )
        if protocol.backoff is None:
            raise ConfigurationError("DR needs a backoff reply type")
        self.vc_map = partitioned_vc_map(
            config.num_vcs, self.vc_classes(self.types_used),
            shared_extras=config.shared_extras,
        )
        if any(self.vc_map.adaptive):
            self.routing = duato_routing(topology, self.vc_map)
        else:
            self.routing = dimension_order_routing(topology, self.vc_map)
        self._mode = self._resolve_queue_mode("per-net")
        if self._mode not in ("per-net", "per-type"):
            raise ConfigurationError(f"DR cannot use queue mode {self._mode!r}")
        self.controller = None  # DeflectionController, built on attach

    @staticmethod
    def vc_classes(types_used: tuple[str, ...]) -> int:
        return 2  # request and reply networks

    def queue_class_of(self, mtype) -> int:
        if self._mode == "per-net":
            return int(mtype.net_class)
        return self._type_queue_class(mtype)

    def vc_class_of(self, mtype) -> int:
        return int(mtype.net_class)

    def wants_reservation(self, mtype) -> bool:
        return mtype.net_class == NetClass.REPLY

    @property
    def num_queue_classes(self) -> int:
        return 2 if self._mode == "per-net" else len(self.types_used)

    def attach(self, engine) -> None:
        super().attach(engine)
        from repro.core.deflection import DeflectionController

        self.controller = DeflectionController(self, engine)

    def act(self, det, now: int) -> bool:
        return self.controller.recover(det, now)


class ProgressiveRecovery(Scheme):
    """PR: the paper's Extended Disha Sequential technique.

    Every channel and queue is shared by every message type (True Fully
    Adaptive Routing, shared queues by default).  Both routing- and
    message-dependent deadlock may form; a circulating token that visits
    routers *and* network interfaces grants exclusive access to the
    recovery lane (per-router deadlock buffers plus per-NI deadlock
    message buffers) over which detected deadlocks are progressively
    resolved without creating extra messages.  Behavioural logic lives in
    :class:`repro.core.progressive.ProgressiveController`.
    """

    name = "PR"

    def __init__(self, config, topology, protocol, types_used, couplings):
        super().__init__(config, topology, protocol, types_used, couplings)
        self.vc_map = tfar_vc_map(config.num_vcs)  # the base vc_classes: 1
        self.routing = true_fully_adaptive_routing(topology, self.vc_map)
        self._mode = self._resolve_queue_mode("shared")
        if self._mode not in ("shared", "per-type"):
            raise ConfigurationError(f"PR cannot use queue mode {self._mode!r}")
        self.controller = None  # ProgressiveController, built on attach

    def queue_class_of(self, mtype) -> int:
        if self._mode == "shared":
            return 0
        return self._type_queue_class(mtype)

    def vc_class_of(self, mtype) -> int:
        return 0

    @property
    def num_queue_classes(self) -> int:
        return 1 if self._mode == "shared" else len(self.types_used)

    def attach(self, engine) -> None:
        super().attach(engine)
        from repro.core.progressive import ProgressiveController

        self.controller = ProgressiveController(self, engine)

    def step(self, now: int, nodes=None) -> None:
        self.controller.step(now, nodes)


class DetectionOnly(Scheme):
    """Baseline: Duato routing, shared queues, detection without recovery.

    Used for the trace-driven characterization (Section 4.2), where the
    question is *whether* message-dependent deadlocks occur, not how to
    resolve them.  Routing-dependent deadlock is strictly avoided
    (Duato's protocol), isolating message-dependent events.
    """

    name = "NONE"

    def __init__(self, config, topology, protocol, types_used, couplings):
        super().__init__(config, topology, protocol, types_used, couplings)
        self.vc_map = partitioned_vc_map(
            config.num_vcs, self.vc_classes(self.types_used)
        )
        self.routing = duato_routing(topology, self.vc_map)
        self._mode = self._resolve_queue_mode("shared")

    def queue_class_of(self, mtype) -> int:
        if self._mode == "shared":
            return 0
        return self._type_queue_class(mtype)

    def vc_class_of(self, mtype) -> int:
        return 0

    @property
    def num_queue_classes(self) -> int:
        return 1 if self._mode == "shared" else len(self.types_used)

    def attach(self, engine) -> None:
        super().attach(engine)
        from repro.core.detectors import build_detector

        self.detector = build_detector(self, engine, require_request_child=False)

    def act(self, det, now: int) -> bool:
        """Count a stalled episode once, at its first firing."""
        if not det.episode_counted:
            self.deadlocks_detected += 1
            self.engine.stats.on_deadlock(now, resolved=False)
            det.report_firing(self.tracer, now)
            det.episode_counted = True  # also when nobody listens
        return True


SCHEMES = {
    "SA": StrictAvoidance,
    "DR": DeflectiveRecovery,
    "PR": ProgressiveRecovery,
    "NONE": DetectionOnly,
}


def build_scheme(
    config,
    topology: Topology,
    protocol: Protocol,
    types_used: tuple[str, ...],
    couplings: set[tuple[str, str]],
) -> Scheme:
    """Instantiate the scheme named by ``config.scheme``."""
    try:
        cls = SCHEMES[config.scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {config.scheme!r}; expected one of {sorted(SCHEMES)}"
        ) from None
    return cls(config, topology, protocol, types_used, couplings)
