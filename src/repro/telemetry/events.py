"""The ring-buffer tracer: typed events recorded through narrow hooks.

Every event is a ``(cycle, kind, payload)`` tuple appended to a
``deque(maxlen=capacity)`` — a true ring buffer, so an always-on trace
of a long run keeps the most recent window instead of growing without
bound (``events_recorded`` still counts everything, so exporters can
report how many events were dropped).

Messages are identified by *local* ids assigned on first sight
(:meth:`Tracer._mid`): unlike the process-global ``Message.uid``, local
ids are deterministic per run, so two identically seeded runs produce
byte-identical traces — the property the telemetry tests pin.

Hook sites live in ``sim/engine.py`` (sampling), ``network/fabric.py``
(blocked/unblocked/VC grants/injection), ``endpoint/{interface,
controller}.py`` (lifecycle), ``core/{schemes,deflection,progressive,
token}.py`` (detection and recovery) and ``faults/injector.py``; each
site guards its call with one ``if tracer is not None`` test, which is
all the healthy untraced hot path ever pays.  The vector backend
(``sim/vector/``) shares the endpoint and scheme sites and makes the
fabric's and the detectors' calls itself, in the same order (see its
engine docstring, "Tracing").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.telemetry.samplers import MetricsSampler
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocol.message import Message

#: supported trace levels: ``message`` records lifecycle, detection,
#: recovery and fault events; ``flit`` additionally records per-hop
#: token movement and VC grants.
TRACE_LEVELS = ("message", "flit")

# -- event kinds --------------------------------------------------------
CREATED = "created"
ADMITTED = "admitted"
INJECTED = "injected"
BLOCKED = "blocked"
UNBLOCKED = "unblocked"
VC_GRANT = "vc_grant"
DELIVERED = "delivered"
CONSUMED = "consumed"
DETECT = "detect"
PROBE_SEND = "probe_send"
PROBE_FORWARD = "probe_forward"
PROBE_RETURN = "probe_return"
PROBE_DROP = "probe_drop"
DEFLECT = "deflect"
TOKEN_HOP = "token_hop"
TOKEN_CAPTURE = "token_capture"
TOKEN_RELEASE = "token_release"
TOKEN_REGEN = "token_regen"
RESCUE_LEG = "rescue_leg"
FAULT_APPLIED = "fault_applied"
FAULT_REVOKED = "fault_revoked"

# -- farm event kinds (campaign orchestration, not simulation) ----------
# Recorded by :class:`repro.farm.manager.FarmManager` with millisecond
# timestamps relative to campaign start instead of engine cycles; a farm
# tracer is never attached to an engine, so the two time bases never mix
# inside one ring buffer.
FARM_DISPATCH = "farm_dispatch"
FARM_HEARTBEAT = "farm_heartbeat"
FARM_SHARD_DONE = "farm_shard_done"
FARM_SHARD_FAILED = "farm_shard_failed"
FARM_BACKOFF = "farm_backoff"
FARM_SUSPECT = "farm_suspect"
FARM_QUARANTINE = "farm_quarantine"
FARM_PROBATION = "farm_probation"
FARM_REDISPATCH = "farm_redispatch"
FARM_MERGE = "farm_merge"

FARM_EVENT_KINDS = (
    FARM_DISPATCH, FARM_HEARTBEAT, FARM_SHARD_DONE, FARM_SHARD_FAILED,
    FARM_BACKOFF, FARM_SUSPECT, FARM_QUARANTINE, FARM_PROBATION,
    FARM_REDISPATCH, FARM_MERGE,
)

EVENT_KINDS = (
    CREATED, ADMITTED, INJECTED, BLOCKED, UNBLOCKED, VC_GRANT, DELIVERED,
    CONSUMED, DETECT, PROBE_SEND, PROBE_FORWARD, PROBE_RETURN, PROBE_DROP,
    DEFLECT, TOKEN_HOP, TOKEN_CAPTURE, TOKEN_RELEASE,
    TOKEN_REGEN, RESCUE_LEG, FAULT_APPLIED, FAULT_REVOKED,
    *FARM_EVENT_KINDS,
)

#: default ring capacity: roomy enough for any smoke run, bounded for
#: always-on tracing of long campaigns.
DEFAULT_CAPACITY = 1_000_000


class Tracer:
    """Records typed events and periodic metric samples for one engine.

    Parameters
    ----------
    level:
        ``"message"`` (default) or ``"flit"`` (adds VC grants and
        per-hop token movement).
    sample_every:
        Sampling interval in cycles for the time-series metrics
        (0 = no sampling).
    capacity:
        Ring-buffer size in events; the oldest events are dropped once
        the buffer is full.
    """

    def __init__(
        self,
        level: str = "message",
        sample_every: int = 0,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if level not in TRACE_LEVELS:
            raise ConfigurationError(
                f"trace level {level!r} not in {TRACE_LEVELS}"
            )
        if sample_every < 0:
            raise ConfigurationError("sample_every must be >= 0")
        if capacity < 1:
            raise ConfigurationError("trace capacity must be positive")
        self.level = level
        self.flit_level = level == "flit"
        self.sample_every = sample_every
        self.capacity = capacity
        self.events: deque[tuple[int, str, dict[str, Any]]] = deque(
            maxlen=capacity
        )
        self.samples: list[dict[str, Any]] = []
        #: total events recorded, including any dropped from the ring.
        self.events_recorded = 0
        self.last_cycle = 0
        self.engine = None
        self._sampler: MetricsSampler | None = None
        #: Message.uid -> deterministic local message id.
        self._ids: dict[int, int] = {}
        #: uid -> label, so episode stitching survives ring-buffer drops.
        self._labels: dict[int, str] = {}
        #: local ids of messages currently inside a blocked episode.
        self._blocked: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        """Install this tracer on every hook site of ``engine``.

        Called by :meth:`repro.sim.engine.Engine.attach_tracer`; safe to
        call once per engine.  The hook attributes default to ``None``
        in each class, so an unattached engine pays only truthiness
        tests.
        """
        self.engine = engine
        engine.fabric.tracer = self
        for ni in engine.interfaces:
            ni.tracer = self
            ni.controller.tracer = self
        scheme = engine.scheme
        scheme.tracer = self
        detector = getattr(scheme, "detector", None)
        if detector is not None:
            detector.tracer = self
        controller = getattr(scheme, "controller", None)
        if controller is not None:
            controller.tracer = self
            token = getattr(controller, "token", None)
            if token is not None:
                token.tracer = self
        self._sampler = MetricsSampler(engine)

    @property
    def dropped_events(self) -> int:
        """Events that fell out of the ring buffer."""
        return self.events_recorded - len(self.events)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record(self, cycle: int, kind: str, payload: dict[str, Any]) -> None:
        self.events.append((cycle, kind, payload))
        self.events_recorded += 1
        if cycle > self.last_cycle:
            self.last_cycle = cycle

    def _mid(self, msg: "Message") -> int:
        """Deterministic local id for ``msg`` (assigned on first sight)."""
        mid = self._ids.get(msg.uid)
        if mid is None:
            mid = self._ids[msg.uid] = len(self._ids)
            self._labels[mid] = msg.label
        return mid

    def label_of(self, mid: int) -> str:
        """Uid-free label of a locally identified message."""
        return self._labels.get(mid, f"msg#{mid}")

    # ------------------------------------------------------------------
    # Message lifecycle hooks
    # ------------------------------------------------------------------
    def message_created(self, msg, now: int) -> None:
        self._record(now, CREATED, {
            "mid": self._mid(msg), "mtype": msg.mtype.name,
            "src": msg.src, "dst": msg.dst, "size": msg.size,
        })

    def message_admitted(self, msg, now: int) -> None:
        self._record(now, ADMITTED, {"mid": self._mid(msg), "node": msg.src})

    def message_injected(self, msg, now: int) -> None:
        self._record(now, INJECTED, {
            "mid": self._mid(msg), "node": msg.src, "vc_class": msg.vc_class,
        })

    def message_blocked(self, msg, router: int, now: int) -> None:
        """Open a blocked episode (deduplicated per frontier episode)."""
        mid = self._mid(msg)
        if mid in self._blocked:
            return
        self._blocked[mid] = now
        self._record(now, BLOCKED, {"mid": mid, "router": router})

    def message_unblocked(self, msg, now: int) -> None:
        """Close the blocked episode opened by :meth:`message_blocked`."""
        mid = self._mid(msg)
        since = self._blocked.pop(mid, None)
        if since is None:
            return
        self._record(now, UNBLOCKED, {"mid": mid, "since": since})

    def vc_granted(self, msg, router: int, vc, now: int) -> None:
        """Allocation success: close the blocked span, log the grant."""
        self.message_unblocked(msg, now)
        if self.flit_level:
            self._record(now, VC_GRANT, {
                "mid": self._mid(msg), "router": router,
                "link": vc.link.lid, "vc": vc.index,
            })

    def message_delivered(self, msg, now: int) -> None:
        self._record(now, DELIVERED, {
            "mid": self._mid(msg), "node": msg.dst,
            "rescued": msg.rescued,
        })

    def message_consumed(self, msg, now: int) -> None:
        self._record(now, CONSUMED, {"mid": self._mid(msg), "node": msg.dst})

    # ------------------------------------------------------------------
    # Detection / recovery hooks
    # ------------------------------------------------------------------
    def detection(self, node: int, in_cls: int, out_cls: int,
                  since: int, now: int) -> None:
        """An endpoint detector's first firing of a stalled episode."""
        self._record(now, DETECT, {
            "node": node, "in_cls": in_cls, "out_cls": out_cls,
            "since": since,
        })

    def _probe_event(self, kind: str, probe, now: int) -> None:
        self._record(now, kind, {
            "mid": self._mid(probe.message),
            "initiator": probe.initiator, "src": probe.src, "dst": probe.dst,
            "in_cls": probe.in_cls, "out_cls": probe.out_cls,
            "forwards": probe.forwards,
        })

    def probe_sent(self, probe, now: int) -> None:
        """CMH: a blocked initiator launched one probe of a chase wave."""
        self._probe_event(PROBE_SEND, probe, now)

    def probe_forwarded(self, probe, now: int) -> None:
        """CMH: a blocked node continued a chase along a wait-for edge."""
        self._probe_event(PROBE_FORWARD, probe, now)

    def probe_returned(self, probe, now: int) -> None:
        """CMH: a probe closed its cycle — the initiator declares."""
        self._probe_event(PROBE_RETURN, probe, now)

    def probe_dropped(self, probe, now: int) -> None:
        """CMH: a probe died (receiver unblocked, engaged, or stale)."""
        self._probe_event(PROBE_DROP, probe, now)

    def deflection(self, node: int, head, brp, since: int, now: int) -> None:
        """DR recovery: ``head`` deflected back to its requester as ``brp``.

        The deflection consumes the head in place (it never reaches the
        memory controller) and creates the BRP outside the endpoint's
        subordinate path, so both lifecycle events are recorded here.
        """
        self.message_created(brp, now)
        self._record(now, DEFLECT, {
            "node": node,
            "head_mid": self._mid(head), "head": head.label,
            "brp_mid": self._mid(brp), "brp": brp.label,
            "since": since,
        })
        self.message_consumed(head, now)

    def token_hop(self, stop, now: int) -> None:
        """Flit-level only: one stop of token circulation per cycle."""
        if self.flit_level:
            self._record(now, TOKEN_HOP, {
                "kind": stop.kind, "ident": stop.ident,
            })

    def token_captured(self, stop, msg, since: int, now: int) -> None:
        self._record(now, TOKEN_CAPTURE, {
            "kind": stop.kind, "ident": stop.ident,
            "mid": self._mid(msg), "message": msg.label,
            "since": since,
        })

    def token_released(self, stop, now: int) -> None:
        payload = {}
        if stop is not None:
            payload = {"kind": stop.kind, "ident": stop.ident}
        self._record(now, TOKEN_RELEASE, payload)

    def token_regenerated(self, now: int) -> None:
        self._record(now, TOKEN_REGEN, {})

    def rescue_leg(self, msg, src_router: int, dst_router: int,
                   phase: str, now: int) -> None:
        """PR lane traffic: ``phase`` is ``start`` or ``arrival``."""
        self._record(now, RESCUE_LEG, {
            "mid": self._mid(msg), "src_router": src_router,
            "dst_router": dst_router, "phase": phase,
        })

    # ------------------------------------------------------------------
    # Farm hooks (campaign orchestration; ``now`` is a millisecond
    # offset from campaign start, not an engine cycle — farm tracers are
    # standalone and never attached to an engine)
    # ------------------------------------------------------------------
    def farm_event(self, kind: str, now: int, **payload: Any) -> None:
        """Record one farm orchestration event (dispatch, health, merge)."""
        if kind not in FARM_EVENT_KINDS:
            raise ConfigurationError(
                f"farm event kind {kind!r} not in {FARM_EVENT_KINDS}"
            )
        self._record(int(now), kind, payload)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def fault_applied(self, description: str, now: int) -> None:
        self._record(now, FAULT_APPLIED, {"fault": description})

    def fault_revoked(self, description: str, now: int) -> None:
        self._record(now, FAULT_REVOKED, {"fault": description})

    # ------------------------------------------------------------------
    # Per-cycle sampling (driven by Engine.step)
    # ------------------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if now > self.last_cycle:
            self.last_cycle = now
        if (
            self.sample_every
            and self._sampler is not None
            and now % self.sample_every == 0
        ):
            self.samples.append(self._sampler.sample(now))


class SampleTap(Tracer):
    """The sampling half of a tracer and nothing else.

    ``attach`` installs no event hook, so the fabric, the NIs, their
    controllers and the scheme keep ``tracer = None`` and run their
    untraced paths; each sample goes to ``on_sample`` instead of a
    list.  It is still a :class:`Tracer` because a few rare sites
    report through ``engine.tracer`` itself (fault injection, the
    episodes of a deadlock dump): what they record lands in a one-slot
    ring.
    """

    def __init__(self, sample_every: int, on_sample) -> None:
        super().__init__(sample_every=sample_every, capacity=1)
        self._on_sample = on_sample

    def attach(self, engine) -> None:
        self.engine = engine
        self._sampler = MetricsSampler(engine)

    def on_cycle(self, now: int) -> None:
        if self.sample_every and now % self.sample_every == 0:
            self._on_sample(self._sampler.sample(now))
