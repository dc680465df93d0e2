"""Runtime invariants, the liveness watchdog, and structured deadlock dumps.

Detection logic is exactly where subtle bugs hide: a regression that
silently breaks detection or rescue shows up as "throughput looks a bit
different", not as a failure.  This module turns the simulator's
correctness assumptions into executable checks:

* **message conservation** — every message created (transaction roots,
  subordinates, backoff replies) is either still held by some resource
  or was consumed; a nonzero delta means messages were killed or
  duplicated, which no scheme is ever allowed to do;
* **occupancy-ledger consistency** — the fabric's O(1) flit ledger must
  equal a full scan of every VC buffer, and per-queue slot accounting
  (``entries + held + reserved <= capacity``) must never go negative or
  oversubscribe;
* **token uniqueness** — PR has exactly one token; a held token has a
  holder; a duplicated token (fault-injected or bug) is a violation;
* **forward progress** — a watchdog over the flit/consumption counters
  that, instead of letting a wedged run spin forever, raises a
  structured :class:`~repro.util.errors.LivenessError` carrying a
  deadlock dump: per-NI queue heads, blocked virtual channels, CWG knot
  membership, scheme phase and active faults.

Checks are opt-in (``SimConfig.invariants_every`` /
``SimConfig.watchdog_timeout``), run on either engine, and cost the
default benchmark path one ``is None`` test per cycle.
"""

from __future__ import annotations

from repro.core.cwg import detect_deadlock
from repro.util.errors import InvariantViolation, LivenessError

#: cap per-section dump lists so dumps stay readable at 8x8 scale.
_DUMP_LIMIT = 32


def _describe_message(msg) -> str:
    """Uid-free message label, stable across identically seeded runs."""
    return f"{msg.mtype.name} {msg.src}->{msg.dst} @{msg.created_cycle}"


def live_message_uids(engine) -> set[int]:
    """Uids of every message currently held by some resource.

    Covers NI source queues, both queue banks, memory-controller service
    (current and pending priority service), the PR deadlock message
    buffer and recovery lane, network virtual channels and injection
    channels.  A message spanning several VCs is counted once.
    """
    seen: set[int] = set()
    for ni in engine.interfaces:
        for msg in ni.source_queue:
            seen.add(msg.uid)
        for bank in (ni.in_bank, ni.out_bank):
            for q in bank:
                for msg in q.entries:
                    seen.add(msg.uid)
        controller = ni.controller
        if controller.current is not None:
            seen.add(controller.current.uid)
        if controller._priority is not None:
            seen.add(controller._priority[0].uid)
        if ni.dmb is not None:
            seen.add(ni.dmb.uid)
    for msg in engine.fabric.held_messages():
        seen.add(msg.uid)
    controller = getattr(engine.scheme, "controller", None)
    if controller is not None:
        leg = getattr(controller, "_leg_msg", None)
        if leg is not None:
            seen.add(leg.uid)
        lane = getattr(controller, "lane", None)
        if lane is not None and lane.msg is not None:
            seen.add(lane.msg.uid)
    return seen


def conservation_delta(engine) -> int:
    """``created - consumed - live``: 0 when no message was lost/duplicated."""
    stats = engine.stats
    return (
        stats.messages_created
        - stats.total.messages_consumed
        - len(live_message_uids(engine))
    )


# ----------------------------------------------------------------------
# Deadlock dumps
# ----------------------------------------------------------------------
def capture_dump(engine, reason: str = "") -> dict:
    """Snapshot the stuck state of a live engine as a plain dict.

    The dump is JSON-able and uid-free, so it pickles across worker
    pools and is bit-identical between two runs of the same seeded
    config, on either engine — the property the determinism tests pin.
    """
    scheme = engine.scheme
    fabric = engine.fabric
    controller = getattr(scheme, "controller", None)
    stats = engine.stats

    first_deadlock = stats.first_deadlock_cycle
    dump: dict = {
        "reason": reason,
        "cycle": engine.now,
        "scheme": scheme.name,
        "detector": getattr(engine.config, "detector", "endpoint"),
        # None when the run quiesced (or wedged) without any detection.
        "first_deadlock_cycle": first_deadlock if first_deadlock >= 0 else None,
        "phase": getattr(controller, "phase", None),
        "counters": {
            "messages_created": stats.messages_created,
            "messages_consumed": stats.total.messages_consumed,
            "messages_delivered": stats.total.messages_delivered,
            "messages_admitted": stats.total.messages_admitted,
            "flits_forwarded": fabric.flits_forwarded,
            "flits_injected": fabric.flits_injected,
            "flits_ejected": fabric.flits_ejected,
            "deadlocks_detected": scheme.deadlocks_detected,
            "recoveries": scheme.recoveries,
        },
        "conservation": {
            "created": stats.messages_created,
            "consumed": stats.total.messages_consumed,
            "live": len(live_message_uids(engine)),
        },
    }
    dump["conservation"]["delta"] = (
        dump["conservation"]["created"]
        - dump["conservation"]["consumed"]
        - dump["conservation"]["live"]
    )

    token = getattr(controller, "token", None)
    if token is not None:
        dump["token"] = {
            "state": token.state,
            "pos": token.pos,
            "at": (token.at.kind, token.at.ident),
            "lost": token.lost,
            "duplicates": token.duplicates,
            "captures": token.captures,
            "laps": token.laps,
            "regenerations": token.regenerations,
        }
        dump["counters"]["rescues"] = controller.rescues
        dump["counters"]["token_regenerations"] = controller.token_regenerations
    if hasattr(controller, "deflections"):
        dump["counters"]["deflections"] = controller.deflections

    # Per-NI queue heads: only NIs holding anything, only rows with a
    # slot in use — queued, held *or reserved*: reservations alone can
    # wedge a node whose queues are empty.
    interfaces: dict[int, dict] = {}
    for ni in engine.interfaces:
        rows = []
        for cls in range(ni.in_bank.num_classes):
            q = ni.in_bank.queue(cls)
            out_q = ni.out_bank.queue(cls) if cls < ni.out_bank.num_classes else None
            if q.free_slots == q.capacity and (
                out_q is None or out_q.free_slots == out_q.capacity
            ):
                continue
            head = q.peek()
            rows.append({
                "class": cls,
                "in": f"{len(q.entries)}+{q.held}h+{q.reserved}r/{q.capacity}",
                "in_head": _describe_message(head) if head else None,
                "in_head_waits": ni.controller.head_waits_for(cls),
                "out": (
                    f"{len(out_q.entries)}+{out_q.held}h+{out_q.reserved}r"
                    f"/{out_q.capacity}" if out_q is not None else None
                ),
            })
        if rows or ni.source_queue or not ni.controller.idle:
            interfaces[ni.node] = {
                "queues": rows,
                "source_queue": len(ni.source_queue),
                "controller": {
                    "stalled": ni.controller.stalled,
                    "busy": not ni.controller.idle,
                    "current": (
                        _describe_message(ni.controller.current)
                        if ni.controller.current is not None else None
                    ),
                },
            }
        if len(interfaces) >= _DUMP_LIMIT:
            break
    dump["interfaces"] = interfaces

    blocked = []
    for sender in fabric.frontier_senders():
        msg = sender.owner
        if msg.blocked_since < 0:
            continue
        blocked.append({
            "router": sender.router,
            "kind": "inj" if sender.is_injection else "vc",
            "message": _describe_message(msg),
            "blocked_for": engine.now - msg.blocked_since,
        })
        if len(blocked) >= _DUMP_LIMIT:
            break
    dump["blocked_frontiers"] = blocked

    dump["cwg_knots"] = [
        sorted(str(member) for member in knot)
        for knot in detect_deadlock(engine)
    ]

    if engine.faults is not None:
        dump["active_faults"] = engine.faults.active_descriptions()
        dump["fault_activations"] = engine.faults.activation_counts()

    tracer = getattr(engine, "tracer", None)
    if tracer is not None:
        from repro.telemetry.episodes import stitch_episodes

        dump["episodes"] = [
            epi.to_dict() for epi in stitch_episodes(tracer)
        ]
    return dump


def format_dump(dump: dict) -> str:
    """Render a deadlock dump for terminals and assertion messages."""
    lines = [
        f"deadlock dump @cycle {dump.get('cycle')}"
        f" [{dump.get('scheme')}/{dump.get('phase')}]: {dump.get('reason')}",
    ]
    first = dump.get("first_deadlock_cycle")
    detector = dump.get("detector")
    if detector is not None or first is not None:
        lines.append(
            f"  detector: {detector or 'endpoint'}, first detection: "
            + ("none" if first is None else f"cycle {first}")
        )
    cons = dump.get("conservation", {})
    lines.append(
        f"  conservation: created={cons.get('created')}"
        f" consumed={cons.get('consumed')} live={cons.get('live')}"
        f" delta={cons.get('delta')}"
    )
    token = dump.get("token")
    if token:
        lines.append(
            f"  token: {token['state']} at {token['at']} lost={token['lost']}"
            f" dup={token['duplicates']} captures={token['captures']}"
            f" regen={token['regenerations']}"
        )
    for fault in dump.get("active_faults", ()):
        lines.append(f"  active fault: {fault}")
    for node, info in dump.get("interfaces", {}).items():
        ctl = info["controller"]
        state = "stalled" if ctl["stalled"] else ("busy" if ctl["busy"] else "idle")
        lines.append(
            f"  NI {node}: src_q={info['source_queue']} controller={state}"
            + (f" serving {ctl['current']}" if ctl["current"] else "")
        )
        for row in info["queues"]:
            waits = row.get("in_head_waits")
            lines.append(
                f"    class {row['class']}: in={row['in']} out={row['out']}"
                f" head={row['in_head']}"
                + (f", waiting for {waits}" if waits else "")
            )
    for entry in dump.get("blocked_frontiers", ()):
        lines.append(
            f"  blocked {entry['kind']} at router {entry['router']}:"
            f" {entry['message']} ({entry['blocked_for']} cycles)"
        )
    knots = dump.get("cwg_knots") or []
    lines.append(f"  CWG knots: {len(knots)}")
    for knot in knots[:4]:
        lines.append(f"    knot[{len(knot)}]: {', '.join(knot[:8])}"
                     + (" ..." if len(knot) > 8 else ""))
    episodes = dump.get("episodes")
    if episodes is not None:
        lines.append(f"  recovery episodes: {len(episodes)}")
        for epi in episodes[-4:]:
            # Tolerate partial records: a formation of None (detection
            # with no onset) and missing keys from older dumps.
            form = epi.get("formation_cycle")
            lines.append(
                f"    ep {epi.get('index', '?')}:"
                f" form={'-' if form is None else form}"
                f" detect={epi.get('detection_cycle')}"
                f" resolve={epi.get('resolution_cycle')}"
                f" drain={epi.get('drain_cycle')}"
                f" msgs={len(epi.get('involved', ()))}"
            )
    return "\n".join(lines)


class QuiesceResult:
    """Truthy drain outcome; on failure, carries the deadlock dump.

    ``bool(result)`` preserves the old ``Engine.quiesce() -> bool``
    contract, while a failed conservation test now prints *which*
    resources still hold messages instead of a bare ``False``.
    """

    __slots__ = ("ok", "dump")

    def __init__(self, ok: bool, dump: dict | None = None) -> None:
        self.ok = ok
        self.dump = dump

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return "QuiesceResult(ok=True)"
        return f"QuiesceResult(ok=False,\n{format_dump(self.dump)})"


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
class InvariantChecker:
    """Periodic invariant checks plus a per-cycle forward-progress watchdog.

    ``every`` is the check interval in cycles (0 = off);
    ``watchdog`` is the number of progress-free cycles after which a
    non-empty system is declared dead (0 = off).  Construction snapshots
    the current conservation delta as a baseline, so a checker attached
    to an engine whose queues were hand-stuffed by a test still balances.
    """

    def __init__(self, engine, every: int = 0, watchdog: int = 0) -> None:
        self.engine = engine
        self.every = every
        self.watchdog = watchdog
        self.checks_run = 0
        self._baseline = conservation_delta(engine)
        self._last_signature = -1
        self._stalled_since = engine.now

    # -- watchdog ------------------------------------------------------
    def _signature(self) -> int:
        """Cheap monotone progress counter: flit movement + consumption.

        Token circulation alone is deliberately *not* progress — a token
        looping over a wedged network must not appease the watchdog —
        but captures, lane traffic and regenerations are.
        """
        engine = self.engine
        fabric = engine.fabric
        sig = (
            fabric.flits_forwarded
            + fabric.flits_injected
            + fabric.flits_ejected
            + engine.stats.total.messages_consumed
            + engine.stats.total.messages_delivered
        )
        controller = getattr(engine.scheme, "controller", None)
        token = getattr(controller, "token", None)
        if token is not None:
            sig += token.captures + token.regenerations
            sig += controller.lane.flits_carried
        return sig

    def on_cycle(self, now: int) -> None:
        if self.watchdog:
            sig = self._signature()
            if sig != self._last_signature:
                self._last_signature = sig
                self._stalled_since = now
            elif now - self._stalled_since >= self.watchdog:
                if self.engine._empty():
                    self._stalled_since = now  # idle, not dead
                else:
                    raise LivenessError(
                        f"no forward progress for {self.watchdog} cycles"
                        f" with messages in flight (cycle {now})",
                        capture_dump(
                            self.engine,
                            reason=f"liveness watchdog ({self.watchdog} cycles"
                            " without progress)",
                        ),
                    )
        if self.every and now % self.every == 0:
            self.check_now(now)

    # -- full checks ---------------------------------------------------
    def check_now(self, now: int) -> None:
        """Run every invariant; raise :class:`InvariantViolation` on failure."""
        self.checks_run += 1
        engine = self.engine

        ledger, buffered, bad = engine.fabric.buffer_audit()
        if buffered != ledger:
            self._violate(
                f"occupancy ledger {ledger} != buffered flits {buffered}", now
            )
        if bad is not None:
            lid, index, flits, owned = bad
            where = f"link {lid} VC {index} holds {flits} flit(s)"
            self._violate(
                f"VC over capacity: {where}" if owned else f"unowned {where}",
                now,
            )

        for ni in engine.interfaces:
            for bank, side in ((ni.in_bank, "in"), (ni.out_bank, "out")):
                for cls, q in enumerate(bank):
                    if q.held < 0 or q.reserved < 0:
                        self._violate(
                            f"negative slot accounting at NI {ni.node}"
                            f" {side}[{cls}]: held={q.held}"
                            f" reserved={q.reserved}", now,
                        )
                    if len(q.entries) + q.held + q.reserved > q.capacity:
                        self._violate(
                            f"oversubscribed queue at NI {ni.node}"
                            f" {side}[{cls}]: {len(q.entries)}+{q.held}h"
                            f"+{q.reserved}r > {q.capacity}", now,
                        )

        controller = getattr(engine.scheme, "controller", None)
        token = getattr(controller, "token", None)
        if token is not None:
            if token.duplicates:
                self._violate(
                    f"token uniqueness violated: {token.duplicates}"
                    " duplicate token(s) in the ring", now,
                )
            if token.state == token.HELD and token.holder is None:
                self._violate("held token has no holder", now)

        delta = conservation_delta(engine) - self._baseline
        if delta != 0:
            verb = "lost" if delta > 0 else "duplicated"
            self._violate(
                f"message conservation broken: {abs(delta)} message(s)"
                f" {verb}", now,
            )

    def _violate(self, message: str, now: int) -> None:
        raise InvariantViolation(
            message,
            capture_dump(self.engine, reason=f"invariant: {message}"),
        )
