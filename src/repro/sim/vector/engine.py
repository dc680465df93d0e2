"""The vector backend's engine: reference endpoints, array fabric.

:class:`VectorEngine` swaps the fabric for struct-of-arrays state
advanced by a compiled kernel and *gates* the endpoint phase on an
event scheduler: traffic generation, NI admission/injection/service,
the memory controllers, and every scheme controller are the reference
implementations, but they only run for nodes whose state could have
changed since their last step.  That split is what makes bit-identical
results tractable — the numerically sensitive endpoint logic is
literally the same code — while the flit-movement inner loops and the
endpoint/detector polling (>95% of reference run time at saturation)
are either in C or skipped.

Gating is sound because every skipped call is a proven no-op:

* an NI whose source queue, queues, injection channels, controller and
  MSHR count did not change does nothing in ``step`` (blocked
  ``_admit_roots`` attempts roll back completely, empty ``_select``
  scans mutate nothing);
* a mid-service memory controller only increments ``busy_cycles``,
  which is reconciled in one addition when the service completes
  (see ``_step_node``);
* a detector whose queues and controller did not change evaluates the
  same conditions to the same value, so its fire time is a pure
  function of its last materialized state (see
  :class:`_LazyDetectorBank`).

Wake rules
----------
An NI step has three stages, and each reads a fixed set of inputs.
*Admission* reads the source queue's head, the MSHR count, the head's
output queue and (DR's reply preallocation) the input queues' free
slots; ``VectorNI.can_admit`` is exactly its test, without side
effects.  *Loading* reads injection-channel owners and output-queue
entries.  The *controller* reads its own service state, the
input-queue heads, the output queues' free slots and (DR) the input
queues' free slots.  A change wakes a node only when it lets one of
these stages do something it could not do at the node's last step.
The rules, each with the reason the step it skips is a no-op:

* **Root arrival** wakes a node whose source queue was empty and whose
  new head ``can_admit``.  Behind a waiting root the newcomer is not
  looked at (admission is FIFO and returns at the first blocked head),
  and a head that cannot be admitted waits for one of the resources
  below, whose release re-tests it.
* **Freed MSHR** wakes a node that ``can_admit`` — in the current sweep
  when its slot is still ahead, exactly as the reference's
  unconditional sweep would see it, else next cycle.  ``outstanding``
  is read by admission only.
* **Delivery-slot claim** (``try_claim_slot``, fabric phase) never
  wakes.  It only takes an input-queue slot away, and no stage is
  enabled by fewer free slots; the detectors, which *are* sensitive to
  it, are dirtied as before.
* **Any other foreign input-queue change** (delivery commit; a
  recovery's pop, push or reservation) can matter in two ways.  If the
  queue now holds exactly one message or gained a free slot, an *idle*
  controller is woken: it has a new head to try, or a reservation that
  failed may fit.  A message queued behind an unchanged head changes
  nothing the controller reads, and a controller in service looks at
  the queues again only when the completion calendar ends the service.
  If the queue gained a free slot and the node now ``can_admit``, it is
  woken for the root that was waiting on a reply reservation.
* **Foreign output-queue change** (DR's backoff reply) always wakes: it
  is rare, and both a loadable message and a freed slot can matter.
* **Injection-channel release** wakes a node that has a loadable
  output queue (an idle channel whose queue holds a message).  An idle
  channel with nothing to load changes no stage's inputs; a message
  queued later is the node's own progress or a foreign output-queue
  change.
* **Priority-service request** wakes an idle controller; a busy one
  selects the rescued message when the calendar ends its service.
* **Service completion** comes from the calendar, as before.
* **Own progress**: own-step queue notifies never wake (a blocked
  attempt's hold/reserve rollback would re-wake the node every cycle).
  Instead ``_step_node`` re-wakes its node for the next cycle only if
  the step loaded a channel or changed the controller's service *and*
  the node now ``can_admit`` or has a loadable output queue.  Admission
  runs first and the controller last, so those are the only own
  changes a stage has not already seen: an output slot freed by a
  load, an input slot or MSHR freed by the controller, subordinates
  pushed at completion.  A step that only admitted roots stopped at a
  head nothing later in the step unblocked, and a controller left idle
  found nothing it could start — both stay that way until a foreign
  change.
* **Detector bank**: ``_step_node`` dirties its node only when
  ``controller.current`` changed.  Detector conditions read queue state
  (every queue ``notify`` dirties, suppressed ones included) and
  ``current``/``current_in_cls``; a step that left the service alone
  changed nothing a ``notify`` has not already reported.

``tests/test_backend_equivalence.py`` checks that no needed wake is
missing (bit-identical results, also after ``quiesce``);
``tests/test_vector_gating.py`` that almost no step is wasted.

Tracing
-------
``attach_tracer`` takes a message-level :class:`~repro.telemetry.Tracer`
and the run records the events and samples the reference engine
records, byte for byte (``tests/test_backend_equivalence.py``, traced
cells).  A :class:`~repro.telemetry.SampleTap` hooks no event site, so
attaching one changes nothing below but the per-cycle ``on_cycle``.
Every lifecycle, recovery and token event comes from endpoint and scheme
code the two engines share; three things do not, and each is reported
where the reference reports it:

* *Allocation outcomes.*  Grants and failed attempts happen inside the
  kernel.  ``attach_tracer`` sets the ``H_TRACE`` header flag and the
  kernel then emits ``EV_GRANT``/``EV_BLOCKED`` for them, in frontier
  order among the claims, so ``_drain_events`` replays the reference's
  tracer calls in the reference's order (the tracer folds the per-cycle
  ``blocked`` calls into spans itself).  Untraced, the kernel emits
  exactly the events it always did.
* *Detections.*  The reference reports a detector the first cycle it is
  fired.  DR and NONE already visit a detector on exactly that cycle
  (the bank's calendar) and report there.  PR does not: the token asks
  "is this node fired?" lazily through :class:`_FiredView`, which can
  answer at any later cycle from ``since`` alone and never needs the
  moment of firing.  So while a tracer listens ``_pr_step`` uses
  ``collect_due`` — the same materialization as ``drain_dirty`` plus the
  calendar DR uses — which changes no detector state the view reads and
  yields each detector on the cycle ``now - since`` first exceeds its
  threshold.  ``episode_counted`` de-duplicates as in the reference.
  Attaching re-dirties every node so detectors that were already
  counting get their calendar entry.
* *``since`` at a token capture.*  Two values a capture reports are not
  current on this backend until asked for.  At a router, while a header
  waits in the network only the kernel's ``m_blocked`` is current; the
  message's ``blocked_since`` is stale until ``detach_frontier`` copies
  it back, which is after ``token_captured`` has reported it — so the
  kernel-routed ``_blocked_at_router`` copies it before returning the
  sender.  At an NI, the capture reports the ``since`` of the first
  detector whose head is rescuable, which need not be the fired one;
  the reference re-stamps a detector whose conditions are false every
  cycle, the bank only when it is next evaluated — so the wrapped
  ``_capture_at_ni`` stamps the node's condition-false detectors with
  ``now`` first (the value ``materialize`` would give them anyway).
  Nothing but the trace payload reads either field in between, so no
  result can tell.

The observers (periodic CWG check, runtime invariants, liveness
watchdog) run from ``Engine._end_cycle`` on queries both fabrics
answer; ``frontier_senders`` first copies a waiting header's
``blocked_since``, ``hops`` and ``crossed_mask`` from the arrays.
What this backend does not run is listed once, in
:func:`reference_only_features`.  A config pinned to this backend that
asks for one raises :class:`~repro.util.errors.UnsupportedFeatureError`
— at construction, or at ``attach_tracer`` — never a silent no-op;
``backend="auto"`` (:func:`repro.sim.engine.resolve_backend`) sends such
a point to the reference engine instead.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from repro.config import SimConfig
from repro.core.schemes import SCHEMES
from repro.endpoint.interface import NetworkInterface
from repro.protocol.transactions import PATTERNS
from repro.sim.engine import Engine
from repro.sim.vector.fabric import H_TRACE, VectorFabric, oversized_route_table
from repro.util.errors import UnsupportedFeatureError


def reference_only_features(config: SimConfig) -> list[str]:
    """What ``config`` requests that only the reference engine has.

    This is the list, stated once: fault injection, the CMH detector
    (its probes travel hop by hop between NIs every cycle; the lazy
    detector bank evaluates a site only when its own queues change) and
    a torus or mesh too large for the kernel's route table.  That size
    is counted, not built: ``prod(dims)`` routers (the grid's own rule)
    and the scheme's VC classes for ``config.pattern``'s message types.
    Other topologies, and a caller's own ``types_used``, are checked
    where :class:`~repro.sim.vector.fabric.VectorFabric` builds the
    table, which raises :class:`~repro.util.errors.ConfigurationError`.
    Flit-level tracing is the one other reference-only layer; it is a
    property of the tracer, not of the config.  Empty means the point
    runs on the kernel; :func:`repro.sim.engine.resolve_backend` is the
    one caller that decides with it.
    """
    features = []
    if config.faults:
        features.append("fault injection (faults=...)")
    if config.detector == "cmh":
        features.append("the CMH detector (detector='cmh')")
    pattern = PATTERNS.get(config.pattern)  # unknown: the engine refuses it
    if pattern is not None and config.topology in ("torus", "mesh2d"):
        too_big = oversized_route_table(
            math.prod(config.dims),
            SCHEMES[config.scheme].vc_classes(pattern.types_used),
        )
        if too_big:
            features.append(too_big)
    return features


def _check_supported(config: SimConfig) -> None:
    unsupported = reference_only_features(config)
    if unsupported:
        raise UnsupportedFeatureError(
            "the vector backend does not support "
            + ", ".join(unsupported)
            + "; run these with backend='reference'"
        )


class VectorNI(NetworkInterface):
    """Reference NI that reports wake-worthy endpoint activity.

    ``_vec_engine`` is attached by :class:`VectorEngine` right after
    construction, before any cycle runs.  The wake rules are argued in
    the module docstring.
    """

    _vec_engine: "VectorEngine" = None

    def can_admit(self) -> bool:
        """Would ``_admit_roots`` admit the head root now?"""
        return self._admission_slot() is not None and self.policy.can_reserve(
            self.node, self.in_bank, self.source_queue[0].continuation
        )

    def enqueue_root(self, root) -> None:
        was_empty = not self.source_queue
        super().enqueue_root(root)
        if was_empty and self.can_admit():
            # Traffic runs before the NI phase, so the admission attempt
            # belongs to the current cycle.
            self._vec_engine._due[self.node] = 1

    def try_reserve_delivery(self, msg) -> bool:
        # A claim only takes a slot away: the notify it triggers keeps
        # the mirror and the detector bank current but wakes nobody.
        # (Fabric phase: no NI step is in progress to be suppressed.)
        suppress = self._vec_engine._suppress
        suppress[0] = self.node
        claimed = super().try_reserve_delivery(msg)
        suppress[0] = -1
        return claimed

    def on_transaction_complete(self) -> None:
        self.outstanding -= 1
        if self.can_admit():
            # Completions happen in the NI phase (controller service);
            # if this node's slot in the current sweep is still ahead it
            # can react this cycle, exactly as the reference's
            # unconditional sweep would.
            eng = self._vec_engine
            if eng._ni_phase and self.node > eng._ni_current:
                eng._due[self.node] = 1
            else:
                eng._due_next[self.node] = 1


class _FiredView:
    """Dict-like ``_fired`` facade for the progressive controller.

    The reference recomputes ``{node: True}`` from every detector every
    cycle; this view answers ``get(node)`` from the lazy bank's
    materialized state.  All reads in ``_circulate``/``_capture_at_ni``
    precede the rescue's queue mutations, so the snapshot is never
    consulted stale.
    """

    __slots__ = ("bank", "now")

    def __init__(self, bank: "_LazyDetectorBank", now: int) -> None:
        self.bank = bank
        self.now = now

    def get(self, node, default=None):
        bank = self.bank
        now = self.now
        for i in bank.by_node.get(node, ()):
            if bank.snap[i]:
                det = bank.dets[i]
                if now - det.since > det.threshold:
                    return True
        return default


class _LazyDetectorBank:
    """Evaluate detectors only when their inputs change.

    ``DetectorPair.step`` is a pure function of (queue versions, queue
    slot accounting, controller state); between changes its conditions
    are constant, so the fire time is ``since + threshold + 1``.  The
    bank keeps, per detector, the condition value at last evaluation
    (``snap``) and re-runs exactly one reference-equivalent step
    (:meth:`materialize`) whenever the detector's node is dirtied by a
    queue ``notify`` or a controller step.  State transitions:

    * version changed → ``since = now``, remember version, re-snapshot
      (the reference's early return; a same-cycle fire is impossible
      because ``now - since`` is 0);
    * conditions false → ``since = now`` (the reference sets it on
      every false cycle; only the final value before a transition is
      observable, and a transition always dirties the node);
    * conditions true, were false → ``since = now - 1`` (the reference
      last set ``since`` on the previous cycle, which was false);
    * conditions true, were true → leave ``since`` (the reference does
      not touch it while fired).

    ``gen`` invalidates calendar entries armed before a re-evaluation.
    """

    def __init__(self, detectors) -> None:
        self.dets = list(detectors)
        n = len(self.dets)
        self.snap = [False] * n
        self.gen = [0] * n
        self.by_node: dict[int, list[int]] = {}
        for i, det in enumerate(self.dets):
            self.by_node.setdefault(det.ni.node, []).append(i)
        #: nodes whose detectors must be re-evaluated this cycle;
        #: starts all-dirty so the first cycle initializes every
        #: detector exactly as the reference's first step would.
        self.dirty: set[int] = set(self.by_node)
        #: (fire_cycle, det_index, gen) min-heap (DR/NONE calendar).
        self.heap: list[tuple[int, int, int]] = []

    # -- one reference-equivalent detector step ------------------------
    def materialize(self, i: int, now: int) -> None:
        det = self.dets[i]
        version = det._in_q.version + det._out_q.version
        if version != det.last_version:
            det.last_version = version
            det.since = now
            det.episode_counted = False
            self.snap[i] = det.conditions()
        else:
            cond = det.conditions()
            if not cond:
                det.since = now
                det.episode_counted = False
            elif not self.snap[i]:
                det.since = now - 1
            self.snap[i] = cond
        self.gen[i] += 1

    def fired(self, i: int, now: int) -> bool:
        det = self.dets[i]
        return self.snap[i] and now - det.since > det.threshold

    # -- per-cycle maintenance -----------------------------------------
    def drain_dirty(self, now: int) -> None:
        """Re-evaluate every detector of every dirtied node (PR)."""
        if self.dirty:
            by_node = self.by_node
            for node in self.dirty:
                for i in by_node.get(node, ()):
                    self.materialize(i, now)
            self.dirty.clear()

    def collect_due(self, now: int) -> list[int]:
        """Dirty-drain plus calendar pop: detectors fired at ``now``."""
        due: list[int] = []
        if self.dirty:
            by_node = self.by_node
            for node in self.dirty:
                for i in by_node.get(node, ()):
                    self.materialize(i, now)
                    if self.snap[i]:
                        det = self.dets[i]
                        t_fire = det.since + det.threshold + 1
                        if t_fire <= now:
                            due.append(i)
                        else:
                            heappush(self.heap, (t_fire, i, self.gen[i]))
            self.dirty.clear()
        heap = self.heap
        while heap and heap[0][0] <= now:
            _t, i, g = heappop(heap)
            if g == self.gen[i]:
                due.append(i)
        return due


def _make_notify(q, ni, qi, qm_free, qm_res, due_next, dirty, suppress):
    """Queue-mutation hook: kernel slot mirror + wake + detector dirty.

    ``qi`` is None for output queues (no kernel mirror); ``dirty`` is
    None when the scheme has no detectors.  The mirror is recomputed
    from scratch so raw field writes (progressive recovery's reserved→
    held conversion) are covered by the ``commit`` that follows them.

    ``suppress`` holds the node whose mutation must not wake it: the
    node taking its NI step (a blocked attempt's hold/reserve rollback
    would otherwise re-wake it every cycle; genuine own progress is
    flagged by ``_step_node``) or the node a delivery-slot claim is
    being replayed at.  Mirror and detector dirtying are never
    suppressed.  Which foreign changes wake is argued in the module
    docstring.
    """
    node = ni.node
    if qi is None:
        def notify() -> None:
            if suppress[0] != node:
                due_next[node] = 1
            if dirty is not None:
                dirty.add(node)

        return notify

    controller = ni.controller
    entries = q.entries

    def notify() -> None:
        free = q.capacity - len(entries) - q.held - q.reserved
        if suppress[0] != node:
            # The mirror still holds the value before this mutation.
            grew = free > qm_free[qi]
            if (
                controller.current is None and (grew or len(entries) == 1)
            ) or (grew and ni.can_admit()):
                due_next[node] = 1
        qm_free[qi] = free
        qm_res[qi] = q.reserved
        if dirty is not None:
            dirty.add(node)

    return notify


def _loadable(ni) -> bool:
    """True if the NI's next step would load an injection channel."""
    for chan, queue in ni._injection_pairs:
        if chan.owner is None and queue.entries:
            return True
    return False


class VectorEngine(Engine):
    """Engine variant running flit movement on the compiled kernel."""

    interface_class = VectorNI
    backend = "vector"

    def __init__(self, config: SimConfig, **kwargs) -> None:
        _check_supported(config)
        super().__init__(config, **kwargs)
        N = self.topology.num_nodes
        # Endpoint gating state.  _due is the current cycle's worklist,
        # _due_next collects wakes for the next one; both are stable
        # objects so the notify closures can capture them.
        self._due = bytearray(N)
        self._due_next = bytearray(N)
        self._zero = bytes(N)
        self._ni_phase = False
        self._ni_current = -1
        #: node whose queue notifies must not wake it (own NI step in
        #: progress, or a delivery-slot claim being replayed).
        self._suppress = [-1]
        #: completion calendar: cycle -> nodes whose service ends then.
        self._calendar: dict[int, list[int]] = {}
        #: cycle each node's in-progress service was last accounted to.
        self._svc_start = [0] * N
        for ni in self.interfaces:
            ni._vec_engine = self

        # Scheme dispatch + detector bank.  The reference scheme
        # controllers poll every detector every cycle; the vector
        # backend re-evaluates only dirtied ones and runs the identical
        # recovery code on those that fire.
        scheme = self.scheme
        name = scheme.name
        detectors = ()
        if name == "SA":
            self._scheme_step = scheme.step  # base no-op
        elif name == "NONE":
            detectors = scheme.detectors
            self._scheme_step = self._none_step
        elif name == "DR":
            detectors = scheme.controller.detectors
            self._scheme_step = self._dr_step
        elif name == "PR":
            detectors = scheme.controller.detectors
            self._scheme_step = self._pr_step
            self._install_pr_hooks()
        else:
            raise UnsupportedFeatureError(
                f"the vector backend does not support scheme {name!r}; "
                "run it with backend='reference'"
            )
        self._det_bank = _LazyDetectorBank(detectors) if detectors else None
        dirty = self._det_bank.dirty if self._det_bank is not None else None

        # Queue hooks: kernel slot mirror (input queues), wakes, and
        # detector dirtying.  Installed after construction: nothing
        # mutates the queues during build, and the mirror starts from
        # the same all-free state.
        C = self.scheme.num_queue_classes
        # memoryviews: plain-int reads and writes of the shared cells.
        qm_free = memoryview(self.fabric._qm_free)
        qm_res = memoryview(self.fabric._qm_res)
        due_next = self._due_next
        suppress = self._suppress
        for ni in self.interfaces:
            base = ni.node * C
            for cls, q in enumerate(ni.in_bank.queues):
                q.notify = _make_notify(
                    q, ni, base + cls, qm_free, qm_res, due_next, dirty,
                    suppress,
                )
                q.notify()
            for q in ni.out_bank.queues:
                q.notify = _make_notify(
                    q, ni, None, qm_free, qm_res, due_next, dirty, suppress
                )
            ni.controller.request_priority_service = self._wrap_priority(
                ni.controller, ni.node
            )
        self.fabric.wake_node = self._wake_release

    def _build_fabric(self, config: SimConfig) -> VectorFabric:
        return VectorFabric(
            self.topology,
            config.num_vcs,
            config.flit_buffer_depth,
            self.scheme.routing,
            num_queue_classes=self.scheme.num_queue_classes,
            queue_capacity=config.queue_capacity,
            queue_class_of=self.scheme.queue_class_of,
        )

    def attach_tracer(self, tracer) -> None:
        """Message-level tracing, event for event the reference's."""
        if tracer.flit_level:
            raise UnsupportedFeatureError(
                "flit-level tracing (VC grants, token hops) is not "
                "supported by the vector backend; use level='message' or "
                "backend='reference'"
            )
        super().attach_tracer(tracer)
        if self.fabric.tracer is None:
            # A sampler-only tap hooks no event site: the kernel keeps
            # its untraced event stream and PR its lazy detector bank.
            return
        self.fabric._hdr[H_TRACE] = 1
        if self._det_bank is not None:
            # Re-evaluate every detector next cycle, so one that is
            # already counting (PR keeps no calendar while untraced) is
            # on the calendar that reports its firing.
            self._det_bank.dirty.update(self._det_bank.by_node)

    # ------------------------------------------------------------------
    # Wake plumbing
    # ------------------------------------------------------------------
    def _wake_release(self, node: int) -> None:
        """An injection channel freed up (fabric events, lane release)."""
        if _loadable(self.interfaces[node]):
            self._due_next[node] = 1

    def _wrap_priority(self, controller, node: int):
        orig = controller.request_priority_service

        def request_priority_service(msg, callback) -> None:
            orig(msg, callback)
            # Selected at the controller's next idle step; a service in
            # progress reaches that step through the calendar.
            if controller.current is None:
                self._due_next[node] = 1

        return request_priority_service

    # ------------------------------------------------------------------
    # Cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Reference cycle order with the endpoint phase gated.

        Faults, the one skipped layer, are rejected at construction, so
        this matches ``Engine.step`` exactly for every supported
        configuration, ending in the same ``_end_cycle``.
        """
        self.now += 1
        now = self.now
        due = self._due
        due[:] = self._due_next
        self._due_next[:] = self._zero
        ends = self._calendar.pop(now, None)
        if ends is not None:
            for node in ends:
                due[node] = 1
        self.traffic.step(now)
        self._ni_phase = True
        interfaces = self.interfaces
        suppress = self._suppress
        # find() re-reads the live flags, so a node woken mid-sweep
        # ahead of the current one (on_transaction_complete) is stepped.
        node = due.find(1)
        while node >= 0:
            self._ni_current = node
            suppress[0] = node
            self._step_node(interfaces[node], node, now)
            node = due.find(1, node + 1)
        suppress[0] = -1
        self._ni_phase = False
        self.fabric.step(now)
        self._scheme_step(now)
        self._end_cycle(now)

    def _step_node(self, ni, node: int, now: int) -> None:
        """One reference NI step, minus redundant mid-service work.

        Own-step queue notifies are suppressed; the step itself decides
        whether the node has anything left to do next cycle (module
        docstring, "own progress").
        """
        if ni.source_queue:
            ni._admit_roots(now)
        fabric = self.fabric
        moved = False
        for chan, queue in ni._injection_pairs:
            if chan.owner is None and queue.entries:
                fabric.start_injection(chan, queue.pop(), now)
                moved = True
        c = ni.controller
        current = c.current
        if current is None or now >= c.busy_until:
            # Mid-service the reference step only increments
            # busy_cycles; reconciled here at completion (and in
            # _reconcile_busy for end-of-run snapshots).
            if current is not None:
                c.busy_cycles += now - self._svc_start[node] - 1
            c.step(now)
            if c.current is not current:
                moved = True
                if c.current is not None:
                    self._svc_start[node] = now
                    # A zero-length service still ends on the next step.
                    end = c.busy_until if c.busy_until > now else now + 1
                    self._calendar.setdefault(end, []).append(node)
                if self._det_bank is not None:
                    self._det_bank.dirty.add(node)
        if moved and (
            (ni.source_queue and ni.can_admit()) or _loadable(ni)
        ):
            self._due_next[node] = 1

    def run(self, cycles: int) -> None:
        try:
            for _ in range(cycles):
                self.step()
        finally:
            self._reconcile_busy()  # an observer's error can end it mid-service

    def quiesce(self, max_cycles: int = 200_000):
        try:
            return super().quiesce(max_cycles)
        finally:
            self._reconcile_busy()  # a failed drain can end mid-service

    def _reconcile_busy(self) -> None:
        """Charge deferred mid-service busy_cycles up to ``now``.

        The reference increments ``busy_cycles`` every in-service cycle;
        the vector backend skips those steps and adds the whole span at
        completion.  For services still in flight when a run window
        closes, the span so far is charged here so snapshots agree.
        """
        now = self.now
        svc_start = self._svc_start
        for node, ni in enumerate(self.interfaces):
            c = ni.controller
            if c.current is not None and now > svc_start[node]:
                c.busy_cycles += now - svc_start[node]
                svc_start[node] = now

    # ------------------------------------------------------------------
    # Scheme steps (reference recovery actions, lazy detection)
    # ------------------------------------------------------------------
    def _none_step(self, now: int) -> None:
        # Counted detectors stay fired silently, as in the reference; a
        # new episode passes through a condition change, which dirties
        # the node and re-arms the calendar.
        bank = self._det_bank
        for i in sorted(bank.collect_due(now)):
            self.scheme.on_fired(bank.dets[i], now)

    def _dr_step(self, now: int) -> None:
        bank = self._det_bank
        due = bank.collect_due(now)
        if not due:
            return
        controller = self.scheme.controller
        dirty = bank.dirty
        pending = set(due)
        processed: set[int] = set()
        # Ascending index = detector build order = the reference loop's
        # action order, so stats calls interleave identically.
        while pending:
            i = min(pending)
            pending.discard(i)
            processed.add(i)
            det = bank.dets[i]
            if det.ni.node in dirty:
                # An earlier deflection this cycle touched this node;
                # re-evaluate its detectors exactly as the reference's
                # in-order sweep would observe the mutations.
                self._rearm_midloop(bank, det.ni.node, now, pending, processed, i)
                if not bank.fired(i, now):
                    continue
            # A deflection's pops/pushes dirtied the node, so the next
            # drain re-arms whatever is still stressed; without one the
            # reference retries the fired detector every cycle.
            if not controller.recover(det, now):
                heappush(bank.heap, (now + 1, i, bank.gen[i]))

    @staticmethod
    def _rearm_midloop(bank, node, now, pending, processed, cur) -> None:
        for j in bank.by_node[node]:
            bank.materialize(j, now)
            if j == cur or j in processed:
                continue
            if bank.fired(j, now):
                # Only detectors after the mutating one in build order
                # may act this cycle, matching the reference sweep; the
                # node stays dirty, so earlier ones re-arm next cycle.
                if j > cur:
                    pending.add(j)
            else:
                pending.discard(j)

    def _pr_step(self, now: int) -> None:
        bank = self._det_bank
        pc = self.scheme.controller
        if pc.tracer is None:
            bank.drain_dirty(now)
        else:
            # The token polls firing lazily (_FiredView), which never
            # learns *when* a detector fired; a listener needs the
            # cycle, so the bank keeps its calendar (module docstring).
            for i in sorted(bank.collect_due(now)):
                bank.dets[i].report_firing(pc.tracer, now)
        pc._fired = _FiredView(bank, now)
        pc.advance(now)

    def _install_pr_hooks(self) -> None:
        """Route the router-capture scan through the kernel, and bring
        what a capture reports to a tracer up to date first (module
        docstring, "Tracing")."""
        pc = self.scheme.controller
        fabric = self.fabric
        lib = fabric._lib
        k = fabric._k
        timeout = self.scheme.config.router_timeout

        def _blocked_at_router(router: int, now: int):
            sid = lib.k_longest_blocked(k, router, now, timeout)
            if sid < 0:
                return None
            sender = fabric._handle(sid)
            # The capture reports msg.blocked_since, which only the
            # kernel has kept current (module docstring).
            sender.owner.blocked_since = int(
                fabric._m_blocked[fabric._s_owner[sid]]
            )
            return sender

        pc._blocked_at_router = _blocked_at_router

        capture_at_ni = pc._capture_at_ni

        def _capture_at_ni(stop, now: int) -> None:
            # The capture reports the ``since`` of the first detector at
            # the node whose head is rescuable, fired or not.  The
            # reference re-stamps a detector whose conditions are false
            # every cycle; the bank lets it go stale, so catch up here.
            bank = self._det_bank
            for i in bank.by_node.get(stop.ident, ()):
                if not bank.snap[i]:
                    bank.dets[i].since = now
            capture_at_ni(stop, now)

        pc._capture_at_ni = _capture_at_ni
