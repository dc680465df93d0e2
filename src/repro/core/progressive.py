"""PR recovery: Extended Disha Sequential (the paper's contribution).

Recovery resources
------------------
* one flit-sized **deadlock buffer** (DB) per router, forming a
  dedicated, conflict-free lane along dimension-order paths;
* one packet-sized **deadlock message buffer** (DMB) per NI;
* one circulating **token** visiting every router and NI; the capturer
  gains exclusive use of the lane (:mod:`repro.core.token`).

Rescue procedure (Figure 4 / Appendix proof)
--------------------------------------------
A token reaching an NI is captured there when a detector pair at the NI
has fired with a non-terminating head; that head (of the first such
pair, in build order) is processed by the memory controller;
subordinates that do not fit in the output queue are placed in the DMB
and routed over the DB lane to their destination's DMB, the token
travelling with them.  At the destination the message enters the input
queue if space exists; otherwise the memory controller is *preempted*
after its current operation and processes the message directly.  A
terminating message sinks (Case 2); a non-terminating one whose
subordinates fit the output queue completes the leg (Case 1); otherwise
the rescue continues down the dependency chain, *reusing* the token
(Cases 3-4), with multiple subordinates delivered sequentially before
the token is returned to the sender.  When the token finally returns to
the original capturer with nothing left to deliver, it is released for
re-circulation.  On capture at a *router* (routing-dependent deadlock
under true fully adaptive routing), the longest-blocked packet is
progressively rerouted over the lane to its destination DMB, exactly as
in Disha Sequential.

Because each message dependency chain is finite and acyclic and the lane
is dedicated, every rescue terminates — no messages are ever killed,
deflected, or added.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.detectors import build_detector
from repro.core.token import Stop, Token, default_ring
from repro.protocol.message import Message
from repro.util.errors import SimulationError


class DmbSource:
    """Sender-like wrapper streaming a packet out of a deadlock message buffer."""

    __slots__ = ("owner", "_next")

    def __init__(self, msg: Message) -> None:
        self.owner = msg
        self._next = 0

    def ready_flit(self, now: int) -> int | None:
        if self.owner is not None and self._next < self.owner.size:
            return self._next
        return None

    def pop_flit(self) -> int:
        idx = self._next
        self._next += 1
        self.owner.flits_sent = max(self.owner.flits_sent, self._next)
        return idx

    def release(self) -> None:
        self.owner = None


class RecoveryLane:
    """The DB pipeline: one flit per router DB, one hop per cycle."""

    def __init__(self, topology) -> None:
        self.topology = topology
        self.active = False
        self.source = None
        self.msg: Message | None = None
        self.slots: list[int | None] = []
        self.received = 0
        self.flits_carried = 0

    def start(self, source, src_router: int, dst_router: int, msg: Message) -> None:
        if self.active:  # pragma: no cover - guarded by single token
            raise SimulationError("recovery lane already in use")
        path = self.topology.route_path(src_router, dst_router)
        # One DB slot per router visited (source router included).
        self.slots = [None] * (len(path) + 1)
        self.source = source
        self.msg = msg
        self.received = 0
        self.active = True

    def step(self, now: int) -> bool:
        """Advance the pipeline one cycle; True when the packet is in the DMB."""
        if not self.active:  # pragma: no cover - callers check
            return False
        msg = self.msg
        # Drain the last DB into the destination DMB.
        if self.slots[-1] is not None:
            self.slots[-1] = None
            self.received += 1
            self.flits_carried += 1
            msg.flits_ejected += 1
        # Shift the pipeline forward.
        for i in range(len(self.slots) - 2, -1, -1):
            if self.slots[i] is not None and self.slots[i + 1] is None:
                self.slots[i + 1] = self.slots[i]
                self.slots[i] = None
        # Pull the next flit from the source.
        if self.slots[0] is None and self.source is not None:
            flit = self.source.ready_flit(now)
            if flit is not None:
                self.source.pop_flit()
                self.slots[0] = flit
                if flit == msg.size - 1:
                    self.source.release()
                    self.source = None
        if self.received >= msg.size:
            self.active = False
            self.msg = None
            return True
        return False


@dataclass
class Frame:
    """A token-sender node with subordinate messages still to deliver."""

    node: int
    pending: deque = field(default_factory=deque)


class ProgressiveController:
    """Per-cycle PR behaviour: detectors, token, and the rescue machine."""

    # Rescue phases.
    IDLE = "idle"
    SERVICE = "service"  # waiting for a memory controller callback
    LANE = "lane"  # packet in transit over the DB lane
    RETURN = "return"  # token travelling back to the frame sender

    def __init__(self, scheme, engine) -> None:
        self.scheme = scheme
        self.engine = engine
        self.topology = engine.topology
        self.detector = build_detector(scheme, engine, require_request_child=False)
        scheme.detector = self.detector
        self.token = Token(default_ring(engine.topology))
        #: a header blocked longer than this may be rescued at its router.
        self.router_timeout = scheme.config.router_timeout
        self.lane = RecoveryLane(engine.topology)
        self.phase = ProgressiveController.IDLE
        self.capture_stop: Stop | None = None
        self.stack: list[Frame] = []
        self._return_timer = 0
        self._leg_msg: Message | None = None
        self.rescues = 0
        self.router_captures = 0
        self.ni_captures = 0
        # Token-loss recovery: each stop expects the token at least once
        # per lap, so a full ring length without it means it is gone.
        # This models distributed loss detection without simulating the
        # per-stop timers individually.
        self.token_regenerations = 0
        self._token_lost_for = 0
        #: telemetry hook (repro.telemetry.Tracer) or None.
        self.tracer = None
        #: (src_router, dst_router) of the lane leg in flight.
        self._leg_route: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    def step(self, now: int, nodes=None) -> None:
        # Poll every cycle, mid-rescue too, so episode timing is continuous.
        self.detector.poll(now, self.report_firing, nodes)
        self.advance(now)

    def report_firing(self, det, now: int) -> None:
        """A fired site waits for the token; only a listener hears of it."""
        det.report_firing(self.tracer, now)

    def advance(self, now: int) -> None:
        """One cycle of the token and rescue machine, on detector state
        brought up to ``now`` (both engines call this once per cycle)."""
        if self.phase == ProgressiveController.IDLE:
            self._circulate(now)
        elif self.phase == ProgressiveController.LANE:
            if self.lane.step(now):
                self._on_lane_arrival(now)
        elif self.phase == ProgressiveController.RETURN:
            self._return_timer -= 1
            if self._return_timer <= 0:
                self._on_token_returned(now)
        # SERVICE: nothing to do; the MC callback advances the machine.

    # ------------------------------------------------------------------
    # Token circulation and capture
    # ------------------------------------------------------------------
    def _circulate(self, now: int) -> None:
        token = self.token
        if token.lost:
            self._token_lost_for += 1
            if self._token_lost_for > len(token.stops):
                token.regenerate()
                self.token_regenerations += 1
                self._token_lost_for = 0
            return
        stop = token.advance()
        if stop.kind == "ni":
            self._capture_at_ni(stop, now)
        else:
            sender = self.engine.fabric.longest_blocked(
                stop.ident, now, self.router_timeout
            )
            if sender is not None:
                self._capture_at_router(stop, sender, now)

    def _capture_at_ni(self, stop: Stop, now: int) -> None:
        """Rescue the head of the first fired pair at the NI whose head
        is non-terminating, if any."""
        for det in self.detector.by_node.get(stop.ident, ()):
            if det.fired(now):
                head = det.head()
                if head is not None and head.continuation:
                    break
        else:
            return
        ni = self.engine.interfaces[stop.ident]
        self.token.capture(stop)
        self.capture_stop = stop
        self.ni_captures += 1
        self._count_deadlock(now)
        if self.tracer is not None:
            self.tracer.token_captured(stop, head, det.since, now)
        ni.in_bank.queue(det.in_cls).pop()
        head.rescued = True
        if head.transaction is not None:
            head.transaction.rescues += 1
        # The memory controller processes the head; its subordinates come
        # back through the rescue callback for DMB placement.
        self.stack.append(Frame(stop.ident))
        self.phase = ProgressiveController.SERVICE
        ni.controller.request_priority_service(head, self._rescue_service_done)

    def _capture_at_router(self, stop: Stop, sender, now: int) -> None:
        msg = sender.owner
        self.token.capture(stop)
        self.capture_stop = stop
        self.router_captures += 1
        self._count_deadlock(now)
        if self.tracer is not None:
            self.tracer.token_captured(stop, msg, msg.blocked_since, now)
        msg.rescued = True
        if msg.transaction is not None:
            msg.transaction.rescues += 1
        self.engine.fabric.detach_frontier(sender)
        src_router = sender.router
        dst_router = self.topology.router_of_node(msg.dst)
        self._leg_msg = msg
        self._leg_route = (src_router, dst_router)
        self.lane.start(sender, src_router, dst_router, msg)
        self.phase = ProgressiveController.LANE
        if self.tracer is not None:
            self.tracer.rescue_leg(msg, src_router, dst_router, "start", now)

    def _count_deadlock(self, now: int) -> None:
        self.rescues += 1
        self.scheme.deadlocks_detected += 1
        self.scheme.recoveries += 1
        self.engine.stats.on_deadlock(now, resolved=True)

    # ------------------------------------------------------------------
    # Rescue progression
    # ------------------------------------------------------------------
    def _rescue_service_done(self, msg: Message, subs: list[Message], now: int) -> None:
        """MC finished a rescue service at ``msg.dst``; place subordinates."""
        node = msg.dst
        ni = self.engine.interfaces[node]
        overflow: list[Message] = []
        for sub in subs:
            out_q = ni.out_bank.queue(self.scheme.queue_class_of(sub.mtype))
            if out_q.free_slots > 0:
                out_q.push(sub)
            else:
                overflow.append(sub)
        if overflow:
            self.stack.append(Frame(node, deque(overflow)))
            self._start_leg(now)
        else:
            self._on_leg_complete(node, now)

    def _start_leg(self, now: int) -> None:
        frame = self.stack[-1]
        msg = frame.pending.popleft()
        msg.rescued = True
        src_router = self.topology.router_of_node(frame.node)
        dst_router = self.topology.router_of_node(msg.dst)
        self._leg_msg = msg
        self._leg_route = (src_router, dst_router)
        self.lane.start(DmbSource(msg), src_router, dst_router, msg)
        self.phase = ProgressiveController.LANE
        if self.tracer is not None:
            self.tracer.rescue_leg(msg, src_router, dst_router, "start", now)

    def _on_lane_arrival(self, now: int) -> None:
        """The rescued packet is complete in the destination DMB."""
        msg = self._leg_msg
        self._leg_msg = None
        node = msg.dst
        ni = self.engine.interfaces[node]
        msg.delivered_cycle = now
        self.engine.stats.on_delivered(msg, now)
        if self.tracer is not None:
            route = self._leg_route or (-1, -1)
            self.tracer.rescue_leg(msg, route[0], route[1], "arrival", now)
            self.tracer.message_delivered(msg, now)
        self._leg_route = None
        in_q = ni.in_bank.queue(self.scheme.queue_class_of(msg.mtype))
        if in_q.try_claim_slot(msg):
            # the delivery port's claim (reserved slot first), then commit
            in_q.commit(msg)
            self._on_leg_complete(node, now)
        else:
            # Input queue full: preempt the memory controller (it finishes
            # its current operation first) and process the message from
            # the DMB directly.
            self.phase = ProgressiveController.SERVICE
            ni.controller.request_priority_service(msg, self._rescue_service_done)

    def _on_leg_complete(self, at_node: int, now: int) -> None:
        """A delivery leg finished at ``at_node``; send the token back."""
        if not self.stack:
            self._release_token()
            return
        frame = self.stack[-1]
        hops = self.topology.min_hops(
            self.topology.router_of_node(at_node),
            self.topology.router_of_node(frame.node),
        )
        self._return_timer = hops + 1
        self.phase = ProgressiveController.RETURN

    def _on_token_returned(self, now: int) -> None:
        frame = self.stack[-1]
        if frame.pending:
            self._start_leg(now)
            return
        self.stack.pop()
        if not self.stack:
            self._release_token()
        else:
            # The completed frame is itself a leg of its parent.
            self._on_leg_complete(frame.node, now)

    def _release_token(self) -> None:
        self.token.release(at_stop=self.capture_stop)
        self.capture_stop = None
        self.phase = ProgressiveController.IDLE
