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
  MSHR count did not change does nothing in ``step`` (a blocked
  admission or service start fails its test before it mutates
  anything, and empty ``_select`` scans mutate nothing);
* a mid-service memory controller does nothing until the service
  ends, which the completion calendar schedules (see ``_step_node``);
* a detector site whose queues and controller did not change evaluates
  the same conditions to the same value, so its fire time is a pure
  function of its state at its last ``update``, and ``Scheme.step``
  polls only the nodes with a site due (see :class:`_LazyDetectorBank`).

Test, then act
--------------
Admission (``NetworkInterface.can_admit``), service start
(``MemoryController._blocker``) and DR's deflection each run one
side-effect-free test (``Scheme.reservation_blocker`` for reply
reservations) and mutate only once they will succeed; the wake rules
and deadlock dumps call the same tests.  Results equal those of
attempts that reserve, hold and roll back: (1) a blocked attempt leaves
``held``, ``reserved`` and ``version`` as a rollback did, so it decides
alike; (2) a rollback's notifies only rewrote the mirror, dirtied the
node (one extra ``update``, bank point 2) and woke it (a no-op step);
(3) a success mutates within one call (the vacating head's pop first)
and observers read between calls; (4) so ``entries + held + reserved
<= capacity`` holds at every instant.

Wake rules
----------
An NI step has three stages, and each reads a fixed set of inputs.
*Admission* reads the source queue's head, the MSHR count, the head's
output queue and (DR's reply preallocation) the input queues' free
slots; ``can_admit`` is its test.  *Loading* reads injection-channel
owners and output-queue entries.  The *controller* reads its own
service state, the input-queue heads, the output queues' free slots
and (DR) the input queues' free slots.  A change wakes a node only when
it lets one of these stages do something it could not do at the node's
last step.  The rules, each with the reason the step it skips is a
no-op:

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
* **Fault change**: a cycle whose fault injector applied or revoked a
  fault steps every node.  It is rare, and a stalled consumer ignores
  the steps it gets, so the one after its stall ends finds it.
* **Own progress**: own-step queue notifies never wake (a later stage
  of the same step reads most of them; a wake on each wastes steps).
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
``attach_tracer`` takes a :class:`~repro.telemetry.Tracer` at either
level and the run records the events and samples the reference engine
records, byte for byte (``tests/test_backend_equivalence.py``, traced
cells).  A :class:`~repro.telemetry.SampleTap` hooks no event site, so
attaching one changes nothing below but the per-cycle ``on_cycle``.
Every lifecycle, recovery and token event (token hops included) comes
from endpoint and scheme code the two engines share; three things do
not, and each is reported where the reference reports it:

* *Allocation outcomes.*  Grants and failed attempts happen inside the
  kernel.  ``attach_tracer`` sets the ``H_TRACE`` header flag and the
  kernel then emits ``EV_GRANT`` (with the granted VC) and
  ``EV_BLOCKED`` for them, in frontier order among the claims, so
  ``_drain_events`` replays the reference's tracer calls in the
  reference's order (the tracer folds the per-cycle ``blocked`` calls
  into spans itself).  Untraced, the kernel emits exactly the events it
  always did.
* *Detections.*  The reference reports a detector site the first cycle
  it is fired, from ``Scheme.step``'s poll (DR's and NONE's act, PR's
  ``report_firing``).  The vector backend runs the same ``Scheme.step``
  over the nodes :class:`_LazyDetectorBank` has due, which include every
  node with a site fired at ``now``, so DR, NONE and PR report on the
  same cycle from the same code, traced or not; ``episode_counted``
  de-duplicates as in the reference.  Attaching re-dirties every node,
  so a site that fired before anyone listened is polled and reported.
* *``blocked_since`` at a router capture.*  While a header waits in
  the network only the kernel's ``m_blocked`` is current; the message's
  ``blocked_since`` is stale until ``detach_frontier`` copies it back,
  which is after ``token_captured`` has reported it — so
  :meth:`VectorFabric.longest_blocked`, the router-capture query, copies
  it before returning the sender.  Nothing but the trace payload reads
  the field in between, so no result can tell.  (An NI capture reports a fired pair's ``since``,
  which the bank keeps current.)

The CMH detector moves its probes every cycle, so under it
``Scheme.step`` polls every node and no detector bank is built.  Faults
act through the stall sets and the controllers' ``stalled`` flags, as
on the reference; the fabric copies the sets into the kernel's stall
mask on the cycles the injector changes them.  The observers (periodic
CWG check, runtime invariants, liveness watchdog) run from
``Engine._end_cycle`` on queries both fabrics answer;
``frontier_senders`` first copies a waiting header's ``blocked_since``,
``hops`` and ``crossed_mask`` from the arrays.  The one thing this
backend cannot run is a torus or mesh whose route table is too large
(:func:`route_table_overflow`): a config pinned here raises
:class:`~repro.util.errors.UnsupportedFeatureError`, and
``backend="auto"`` (:func:`repro.sim.engine.resolve_backend`) sends it
to the reference engine.
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


def route_table_overflow(config: SimConfig) -> str | None:
    """Why the kernel cannot route ``config``'s torus or mesh, or None.

    Counted, not built: ``prod(dims)`` routers (the grid's own rule) and
    the scheme's VC classes for ``config.pattern``'s message types.
    Other topologies, and a caller's own ``types_used``, are checked
    where :class:`~repro.sim.vector.fabric.VectorFabric` builds the
    table, which raises :class:`~repro.util.errors.ConfigurationError`.
    """
    pattern = PATTERNS.get(config.pattern)  # unknown: the engine refuses it
    if pattern is None or config.topology not in ("torus", "mesh2d"):
        return None
    return oversized_route_table(
        math.prod(config.dims),
        SCHEMES[config.scheme].vc_classes(pattern.types_used),
    )


class VectorNI(NetworkInterface):
    """Reference NI that reports wake-worthy endpoint activity.

    ``_vec_engine`` is attached by :class:`VectorEngine` right after
    construction, before any cycle runs.  The wake rules are argued in
    the module docstring.
    """

    _vec_engine: "VectorEngine" = None

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


class _LazyDetectorBank:
    """Update detector sites only when their inputs change; name the
    nodes ``Scheme.step`` must poll.

    ``DetectorPair.update`` reads only queue versions, queue slot
    accounting and controller state; between changes its conditions are
    constant, so an armed site fires at ``since + threshold + 1``.
    :meth:`due` updates every site of each node dirtied by a queue
    ``notify`` or a controller step, which leaves ``armed`` and, while
    armed, ``since`` as the reference's every-cycle calls would
    (``tests/test_detection.py`` checks this), and puts each armed site
    not yet fired on a ``(fire_cycle, node)`` calendar.  Polling only
    the due nodes is exact:

    1. A poll of a node is the reference's poll of that node's sites,
       and acts change only their own node's queues (DR's
       ``_try_deflect`` pops the input head and pushes the backoff reply
       at the same NI; NONE and PR's ``report_firing`` change no queue).
    2. Calling ``update`` on extra cycles is what the reference does
       every cycle, so a stale calendar entry costs one poll that finds
       nothing fired.
    3. A failed DR act depends only on its node's queue state and
       changes nothing (it tests first), so it fails again until a
       queue at that node changes; every ``MessageQueue`` mutation calls
       ``notify``, which dirties the node, so no retry entry is needed.
       NONE and PR report a fired site once per episode.
    """

    def __init__(self, detector) -> None:
        self.by_node = detector.by_node
        #: nodes whose sites must be re-evaluated; starts all-dirty so
        #: the first cycle initializes every site exactly as the
        #: reference's first step would.
        self.dirty: set[int] = set(self.by_node)
        #: (fire_cycle, node) min-heap.
        self.heap: list[tuple[int, int]] = []

    def due(self, now: int):
        """Update the dirtied nodes' sites; the nodes with a site that
        may fire at ``now``, ascending (``()`` if there are none)."""
        heap = self.heap
        if not self.dirty and not (heap and heap[0][0] <= now):
            return ()
        due = set()
        if self.dirty:
            by_node = self.by_node
            for node in self.dirty:
                for site in by_node.get(node, ()):
                    if site.update(now):
                        t_fire = site.since + site.threshold + 1
                        if t_fire <= now:
                            due.add(node)
                        else:
                            heappush(heap, (t_fire, node))
            self.dirty.clear()
        while heap and heap[0][0] <= now:
            due.add(heappop(heap)[1])
        return sorted(due)


def _make_notify(q, ni, qi, qm_free, qm_res, due_next, dirty, suppress):
    """Queue-mutation hook: kernel slot mirror + wake + detector dirty.

    ``qi`` is None for output queues (no kernel mirror); ``dirty`` is
    None when the scheme has no detectors.  The mirror is recomputed
    from the queue's counters, which only ``MessageQueue`` writes.

    ``suppress`` holds the node whose mutation must not wake it: the
    node taking its NI step (its later stages read what its earlier
    ones changed; ``_step_node`` re-wakes it for what they did not) or
    the node a delivery-slot claim is being replayed at.  Mirror and
    detector dirtying are never
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
        too_big = route_table_overflow(config)
        if too_big:
            raise UnsupportedFeatureError(
                f"the vector backend cannot route {too_big}; run it with"
                " backend='reference'"
            )
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
        for ni in self.interfaces:
            ni._vec_engine = self

        # Scheme step + detector bank.  Both engines run
        # ``scheme.step``; the reference polls every detector site every
        # cycle, the vector backend only the nodes the bank has due, and
        # skips the call when none is due unless a token moves (PR).  SA
        # has nothing to poll, and CMH's probes move every cycle: both
        # poll in full.
        scheme = self.scheme
        detector = scheme.detector
        self._det_bank = None
        if detector is None or detector.kind == "cmh":
            self._scheme_step = scheme.step
        else:
            self._det_bank = bank = _LazyDetectorBank(detector)
            step, due = scheme.step, bank.due
            every_cycle = scheme.name == "PR"

            def _scheme_step(now: int) -> None:
                nodes = due(now)
                if nodes or every_cycle:
                    step(now, nodes)

            self._scheme_step = _scheme_step
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
        """Tracing at either level, event for event the reference's."""
        super().attach_tracer(tracer)
        if self.fabric.tracer is None:
            # A sampler-only tap hooks no event site: the kernel keeps
            # its untraced event stream and no detection is reported.
            return
        self.fabric._hdr[H_TRACE] = 1
        if self._det_bank is not None:
            # Re-evaluate every site next cycle, so one that fired
            # before anyone listened (PR's ``report_firing`` only
            # reports while a tracer listens) is polled and reported.
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
        """``Engine.step``'s cycle order with the endpoint phase gated,
        ending in the same ``_end_cycle``."""
        self.now += 1
        now = self.now
        if self.faults is not None and self.faults.step(now):
            # Before traffic, as on the reference (module docstring,
            # "fault change").
            self.fabric.sync_stalls()
            self._due_next[:] = b"\x01" * len(self._due_next)
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
            # Mid-service the reference step does nothing.
            c.step(now)
            if c.current is not current:
                moved = True
                if c.current is not None:
                    # A zero-length service still ends on the next step.
                    end = c.busy_until if c.busy_until > now else now + 1
                    self._calendar.setdefault(end, []).append(node)
                if self._det_bank is not None:
                    self._det_bank.dirty.add(node)
        if moved and (
            (ni.source_queue and ni.can_admit()) or _loadable(ni)
        ):
            self._due_next[node] = 1
