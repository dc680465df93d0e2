"""Endpoint detection of potential message-dependent deadlock.

Implements the three-condition detector of Section 2.2 (as used by the
Origin2000 and assumed by the paper's DR/PR evaluations):

1. the input queue holding a message type *and* the output queue its
   subordinate would enter are both full;
2. the message at the head of the input queue is one that generates a
   (for DR: request-class) non-terminating subordinate;
3. conditions 1-2 persist for more than a timeout of ``T`` cycles with
   the NI making no progress.

The default timeout is 25 cycles, the paper's stand-in for the average
latency of CWG-based detection; progress is observed through the queues'
version counters so any pop/push resets the episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.protocol.message import Message, NetClass


@dataclass(slots=True)
class DetectorPair:
    """One (input class, output class) coupling to watch at one NI.

    The state machine is ``since`` (the cycle the current stalled
    episode began), ``armed`` (conditions 1-2 held at the last
    :meth:`update`) and ``episode_counted``.  Only :meth:`update` moves
    them as cycles pass; a recovery's :meth:`reset` and
    :meth:`report_firing` are the one other writers, and every consumer
    asks :meth:`fired`.  The reference engine calls :meth:`update` every
    cycle; the vector backend's lazy bank calls it only on cycles after
    a queue ``notify`` or a change of ``controller.current`` —
    conditions 1-2 read nothing else, so ``armed`` and, while armed,
    ``since`` come out the same.  A different kind of site overrides
    :meth:`conditions` only; one that keeps its own state
    (:class:`~repro.core.cmh.CmhSite`) overrides :meth:`update` and
    :meth:`fired` too.
    """

    ni: object
    in_cls: int
    out_cls: int
    threshold: int
    require_request_child: bool
    since: int = -1
    last_version: int = -1
    armed: bool = False
    episode_counted: bool = field(default=False)
    _in_q: object = field(default=None, init=False, repr=False)
    _out_q: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._in_q = self.ni.in_bank.queue(self.in_cls)
        self._out_q = self.ni.out_bank.queue(self.out_cls)

    def _head_eligible(self, head: Message | None) -> bool:
        if head is None or not head.continuation:
            return False
        if not self.require_request_child:
            return True
        return any(
            spec.mtype.net_class == NetClass.REQUEST for spec in head.continuation
        )

    def head(self) -> Message | None:
        return self._in_q.peek()

    def conditions(self) -> bool:
        """Conditions 1-2 right now.  Reads only what a queue ``notify``
        or a change of ``controller.current`` reports, so the vector
        backend's lazy bank evaluates it only then."""
        controller = self.ni.controller
        if controller.current is not None and controller.current_in_cls == self.in_cls:
            return False
        in_q = self._in_q
        out_q = self._out_q
        # Condition 1 is "both queues full" (admission_full, inlined).
        return (
            in_q.capacity - len(in_q.entries) - in_q.held - in_q.reserved <= 0
            and out_q.capacity - len(out_q.entries) - out_q.held - out_q.reserved
            <= 0
            and self._head_eligible(in_q.entries[0] if in_q.entries else None)
        )

    def update(self, now: int) -> bool:
        """Bring the state up to ``now`` and return ``armed`` (only an
        armed site can be fired).  A caller may skip cycles on which
        nothing the conditions read changed: they held throughout at the
        value ``armed`` recorded.  Queue progress (a version change) or a
        false condition starts the episode clock afresh."""
        version = self._in_q.version + self._out_q.version
        if version != self.last_version:
            self.last_version = version
            self.since = now
            self.episode_counted = False
            self.armed = armed = self.conditions()
            return armed
        if not self.conditions():
            self.since = now
            self.episode_counted = False
            self.armed = False
            return False
        if not self.armed:
            # False until this cycle's change: a caller every cycle last
            # restamped ``since`` at the previous one.
            self.since = now - 1
            self.armed = True
        return True

    def fired(self, now: int) -> bool:
        """Conditions 1-2 have held, without progress, past ``threshold``."""
        return self.armed and now - self.since > self.threshold

    def step(self, now: int) -> bool:
        """Advance one cycle; return True while the detector is *fired*."""
        return self.update(now) and self.fired(now)

    def reset(self, now: int) -> None:
        self.since = now
        self.episode_counted = False

    def report_firing(self, tracer, now: int) -> None:
        """Tell ``tracer`` of a stalled episode's first firing (queue
        progress or a reset rearms the flag)."""
        if tracer is not None and not self.episode_counted:
            self.episode_counted = True
            tracer.detection(self.ni.node, self.in_cls, self.out_cls,
                             self.since, now)


class TimeoutSite(DetectorPair):
    """Cheap timeout heuristic: any waiting head + no queue progress.

    Drops conditions 1-2 of the endpoint detector (full queues, head
    eligibility): the site fires whenever the input queue has held at
    least one message through ``timeout_threshold`` cycles of unchanged
    queue versions.  Deliberately false-positive-prone — a memory
    controller busy elsewhere for long enough trips it — so it bounds
    from below what detection certainty is worth.  Shares the
    :class:`DetectorPair` state machine, so recovery controllers drive
    it unchanged (their recovery preconditions still guard the action).
    """

    __slots__ = ()

    def conditions(self) -> bool:
        controller = self.ni.controller
        return bool(self._in_q.entries) and not (
            controller.current is not None
            and controller.current_in_cls == self.in_cls
        )


def coupling_queue_pairs(
    scheme, couplings: set[tuple[str, str]], require_request_child: bool
) -> list[tuple[int, int]]:
    """Distinct (in-queue class, out-queue class) pairs, in build order.

    ``couplings`` are (parent type name, child type name) pairs from the
    live traffic pattern/protocol; they are mapped through the scheme's
    queue classes and de-duplicated (e.g. DR's per-net queues collapse
    every request coupling to the single (request-in, request-out) pair).
    """
    protocol = scheme.protocol
    pairs: set[tuple[int, int]] = set()
    for parent, child in couplings:
        child_t = protocol.type_named(child)
        if require_request_child and child_t.net_class != NetClass.REQUEST:
            continue
        pairs.add(
            (
                scheme.queue_class_of(protocol.type_named(parent)),
                scheme.queue_class_of(child_t),
            )
        )
    return sorted(pairs)


def build_detectors(
    scheme, engine, couplings: set[tuple[str, str]], require_request_child: bool,
    site_class: type[DetectorPair] = DetectorPair, threshold: int | None = None,
) -> list[DetectorPair]:
    """One detector per NI per distinct (in-queue, out-queue) coupling."""
    pairs = coupling_queue_pairs(scheme, couplings, require_request_child)
    if threshold is None:
        threshold = scheme.config.detection_threshold
    detectors: list[DetectorPair] = []
    for ni in engine.interfaces:
        for in_cls, out_cls in pairs:
            detectors.append(
                site_class(
                    ni=ni,
                    in_cls=in_cls,
                    out_cls=out_cls,
                    threshold=threshold,
                    require_request_child=require_request_child,
                )
            )
    return detectors
