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

Every state change that could un-block a node wakes it: queue
``notify`` hooks, fabric delivery/injection-done events, transaction
completion, priority-service requests, and a completion calendar for
in-progress services.

The introspection layers (telemetry tracing, fault injection, runtime
invariants, the liveness watchdog, CWG detection) are reference-only:
they reach into per-flit object state that the vector backend does not
materialize.  Requesting any of them raises
:class:`~repro.util.errors.UnsupportedFeatureError` at construction —
never a silent no-op.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.config import SimConfig
from repro.endpoint.interface import NetworkInterface
from repro.sim.engine import Engine
from repro.sim.vector.fabric import VectorFabric
from repro.util.errors import UnsupportedFeatureError


def _check_supported(config: SimConfig) -> None:
    unsupported = []
    if config.faults:
        unsupported.append("fault injection (faults=...)")
    if config.invariants_every:
        unsupported.append("runtime invariants (invariants_every=...)")
    if config.watchdog_timeout:
        unsupported.append("the liveness watchdog (watchdog_timeout=...)")
    if config.cwg_interval:
        unsupported.append("CWG detection (cwg_interval=...)")
    if config.detector != "endpoint":
        # The lazy detector bank mirrors only the endpoint state
        # machine; CMH probes and timeout sites need the reference
        # engine's per-cycle visibility.
        unsupported.append(f"non-default detectors (detector={config.detector!r})")
    if unsupported:
        raise UnsupportedFeatureError(
            "the vector backend does not support "
            + ", ".join(unsupported)
            + "; run these with backend='reference'"
        )


class VectorNI(NetworkInterface):
    """Reference NI that reports wake-worthy endpoint activity.

    ``_vec_engine`` is attached by :class:`VectorEngine` right after
    construction, before any cycle runs.
    """

    _vec_engine: "VectorEngine" = None

    def enqueue_root(self, root) -> None:
        super().enqueue_root(root)
        # Traffic runs before the NI phase, so the admission attempt
        # belongs to the current cycle.
        self._vec_engine._due[self.node] = 1

    def on_transaction_complete(self) -> None:
        self.outstanding -= 1
        # A freed MSHR lets _admit_roots proceed.  Completions happen in
        # the NI phase (controller service); if this node's slot in the
        # current sweep is still ahead it can react this cycle, exactly
        # as the reference's unconditional sweep would.
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
    @staticmethod
    def _eval(det) -> bool:
        controller = det.ni.controller
        if controller.current is not None and controller.current_in_cls == det.in_cls:
            return False
        in_q = det._in_q
        out_q = det._out_q
        if det._full_mode:
            if (
                in_q.capacity - len(in_q.entries) - in_q.held - in_q.reserved > 0
                or out_q.capacity - len(out_q.entries) - out_q.held - out_q.reserved
                > 0
            ):
                return False
        elif not (det._queue_stressed(in_q) and det._queue_stressed(out_q)):
            return False
        return det._head_eligible(in_q.entries[0] if in_q.entries else None)

    def materialize(self, i: int, now: int) -> None:
        det = self.dets[i]
        version = det._in_q.version + det._out_q.version
        if version != det.last_version:
            det.last_version = version
            det.since = now
            det.episode_counted = False
            self.snap[i] = self._eval(det)
        else:
            cond = self._eval(det)
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


def _make_notify(q, node, qi, qm_free, qm_res, due_next, dirty, suppress):
    """Queue-mutation hook: kernel slot mirror + wake + detector dirty.

    ``qi`` is None for output queues (no kernel mirror); ``dirty`` is
    None when the scheme has no detectors.  The mirror is recomputed
    from scratch so raw field writes (progressive recovery's reserved→
    held conversion) are covered by the ``commit`` that follows them.

    ``suppress`` holds the node currently taking its NI step: its own
    mutations do not wake it (a blocked attempt's hold/reserve rollback
    would otherwise re-wake the node every cycle, defeating the gating
    entirely).  Genuine own progress is flagged by ``_step_node``
    instead; mirror and detector dirtying are never suppressed.
    """
    if qi is not None and dirty is not None:
        def notify() -> None:
            qm_free[qi] = q.capacity - len(q.entries) - q.held - q.reserved
            qm_res[qi] = q.reserved
            dirty.add(node)
            if suppress[0] != node:
                due_next[node] = 1
    elif qi is not None:
        def notify() -> None:
            qm_free[qi] = q.capacity - len(q.entries) - q.held - q.reserved
            qm_res[qi] = q.reserved
            if suppress[0] != node:
                due_next[node] = 1
    elif dirty is not None:
        def notify() -> None:
            dirty.add(node)
            if suppress[0] != node:
                due_next[node] = 1
    else:
        def notify() -> None:
            if suppress[0] != node:
                due_next[node] = 1
    return notify


class VectorEngine(Engine):
    """Engine variant running flit movement on the compiled kernel."""

    interface_class = VectorNI

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
        #: node whose own NI step is in progress (notify wake filter).
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
        qm_free = self.fabric._qm_free
        qm_res = self.fabric._qm_res
        due_next = self._due_next
        suppress = self._suppress
        for ni in self.interfaces:
            base = ni.node * C
            for cls, q in enumerate(ni.in_bank.queues):
                q.notify = _make_notify(
                    q, ni.node, base + cls, qm_free, qm_res, due_next, dirty,
                    suppress,
                )
                q.notify()
            for q in ni.out_bank.queues:
                q.notify = _make_notify(
                    q, ni.node, None, qm_free, qm_res, due_next, dirty, suppress
                )
            # A rescue's priority service is selected at the node's next
            # controller step, so the node must take one.
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
        raise UnsupportedFeatureError(
            "telemetry tracing is not supported by the vector backend; "
            "run traced experiments with backend='reference'"
        )

    # ------------------------------------------------------------------
    # Wake plumbing
    # ------------------------------------------------------------------
    def _wake_release(self, node: int) -> None:
        """An injection channel freed up (fabric events, lane release)."""
        self._due_next[node] = 1

    def _wrap_priority(self, controller, node: int):
        orig = controller.request_priority_service

        def request_priority_service(msg, callback) -> None:
            orig(msg, callback)
            self._due_next[node] = 1

        return request_priority_service

    # ------------------------------------------------------------------
    # Cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Reference cycle order with the endpoint phase gated.

        The skipped layers (faults, CWG, tracer, invariants) are
        rejected at construction, so this matches ``Engine.step``
        exactly for every supported configuration.
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
        self.stats.on_cycle(now)

    def _step_node(self, ni, node: int, now: int) -> None:
        """One reference NI step, minus redundant mid-service work.

        Own-step queue notifies are suppressed, so genuine progress
        (an admission, an injection load, a completed service) flags a
        next-cycle wake here; a step where every attempt rolled back
        leaves state bit-identical and the node sleeps until a foreign
        event changes something, exactly when the reference's retries
        would first behave differently.
        """
        progressed = False
        if ni.source_queue:
            depth = len(ni.source_queue)
            ni._admit_roots(now)
            if len(ni.source_queue) != depth:
                progressed = True
        fabric = self.fabric
        for chan, queue in ni._injection_pairs:
            if chan.owner is None and queue.entries:
                fabric.start_injection(chan, queue.pop(), now)
                progressed = True
        c = ni.controller
        if c.current is not None and now < c.busy_until:
            # Mid-service the reference step only increments
            # busy_cycles; reconciled at completion (and in
            # run()/_reconcile_busy for end-of-run snapshots).
            if progressed:
                self._due_next[node] = 1
            return
        if c.current is not None:
            c.busy_cycles += now - self._svc_start[node] - 1
        serviced = c.messages_serviced
        c.step(now)
        if c.messages_serviced != serviced:
            progressed = True  # completion pushed/placed subordinates
        if c.current is not None:
            self._svc_start[node] = now
            until = c.busy_until
            self._calendar.setdefault(until if until > now else now + 1, []).append(
                node
            )
            progressed = True
        if progressed:
            self._due_next[node] = 1
        bank = self._det_bank
        if bank is not None:
            # current/current_in_cls transitions without a queue signal
            # (priority selection, all-overflow rescue completion) still
            # change detector conditions.
            bank.dirty.add(node)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()
        self._reconcile_busy()

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
        bank = self._det_bank
        due = bank.collect_due(now)
        if not due:
            return
        due.sort()
        scheme = self.scheme
        stats = self.stats
        for i in due:
            det = bank.dets[i]
            if not det.episode_counted:
                det.episode_counted = True
                scheme.deadlocks_detected += 1
                stats.on_deadlock(now, resolved=False)
        # Counted detectors stay fired silently, as in the reference; a
        # new episode passes through a condition change, which dirties
        # the node and re-arms the calendar.

    def _dr_step(self, now: int) -> None:
        bank = self._det_bank
        due = bank.collect_due(now)
        if not due:
            return
        controller = self.scheme.controller
        drain = self.scheme.config.recovery_policy == "drain"
        dirty = bank.dirty
        heap = bank.heap
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
            if controller._try_deflect(det, now):
                if drain:
                    out_q = det.ni.out_bank.queue(det.out_cls)
                    while out_q.admission_full and controller._try_deflect(det, now):
                        pass
                det.reset(now)
                # The pops/pushes dirtied the node; the next drain
                # re-arms whatever is still stressed.
            else:
                # The reference retries a fired detector every cycle.
                heappush(heap, (now + 1, i, bank.gen[i]))

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
        bank.drain_dirty(now)
        pc = self.scheme.controller
        pc._fired = _FiredView(bank, now)
        if pc.phase == pc.IDLE:
            pc._circulate(now)
        elif pc.phase == pc.LANE:
            if pc.lane.step(now):
                pc._on_lane_arrival(now)
        elif pc.phase == pc.RETURN:
            pc._return_timer -= 1
            if pc._return_timer <= 0:
                pc._on_token_returned(now)
        # SERVICE: nothing to do; the MC callback advances the machine.

    def _install_pr_hooks(self) -> None:
        """Route the router-capture scan through the kernel."""
        pc = self.scheme.controller
        fabric = self.fabric
        lib = fabric._lib
        k = fabric._k
        timeout = self.scheme.config.router_timeout

        def _blocked_at_router(router: int, now: int):
            sid = lib.k_longest_blocked(k, router, now, timeout)
            return None if sid < 0 else fabric._handle(sid)

        pc._blocked_at_router = _blocked_at_router
