"""Struct-of-arrays fabric: numpy state advanced by the C kernel.

:class:`VectorFabric` is a drop-in replacement for
:class:`repro.network.fabric.Fabric`.  All per-channel and per-message
network state lives in flat ``int32`` numpy arrays shared with the
compiled kernel (:mod:`repro.sim.vector.kernel`); the three cycle phases
run entirely in C behind one call per cycle, and endpoint interactions
come back as an event buffer that Python drains in exactly the order
the reference fabric would have made the equivalent calls — which is
what keeps the two backends bit-identical, floating-point accumulation
order included.

Id spaces
---------
* virtual channel / sender id ``c`` in ``[0, NVC)`` with
  ``NVC = links * num_vcs``; ``c = lid * num_vcs + index``.
* injection sender id ``NVC + node * C + cls`` (``C`` queue classes).
* message slot ("vid"): dense handle into the ``m_*`` arrays; capacity
  ``NVC + N*C + 8`` because every live packet holds at least one sender.

The endpoint slot mirror (``qm_free``/``qm_res``) lets the kernel decide
delivery-slot claims without calling into Python; the engine installs a
``notify`` hook on every NI input queue that rewrites the mirror after
any mutation, so the kernel's view is exact at every phase boundary.

Recovery schemes see the fabric through thin handle objects
(:class:`VecVC`, :class:`VecInjChannel`) that satisfy the sender
interface of :mod:`repro.network.channel`, so the unmodified scheme
controllers (including progressive recovery's lane) work against the
array state.
"""

from __future__ import annotations

import numpy as np

from repro.network.soa import TopologySoA, build_route_table
from repro.network.topology import Topology
from repro.protocol.message import Message
from repro.util.errors import ConfigurationError, SimulationError

from repro.sim.vector.kernel import load_kernel

# Header cells (must match kernel.c).
H_PN = 0
H_OCC = 2
H_BUSYN = 3
H_TRACE = 4
H_MISS_R = 6
H_MISS_DSTR = 7
H_MISS_CLS = 8

# k_step failure codes (must match kernel.c).
K_ROUTE_MISS = -1

# int64 counters (must match kernel.c).
C_FORWARDED = 0
C_INJECTED = 1
C_EJECTED = 2
C_ALLOCFAIL = 3

# Event types (must match kernel.c).
EV_CLAIM = 1
EV_DELIVER = 2
EV_INJDONE = 3
EV_GRANT = 4
EV_BLOCKED = 5

#: Route-table keys are densely indexed, 4 bytes per (router,
#: destination router, VC class); refuse configurations whose key space
#: would not fit comfortably in memory.
_MAX_ROUTE_KEYS = 8 << 20


def oversized_route_table(num_routers: int, vc_classes: int) -> str | None:
    """Why the kernel cannot route this many routers and VC classes, or
    None when the route table fits under :data:`_MAX_ROUTE_KEYS`."""
    keys = num_routers * num_routers * vc_classes
    if keys <= _MAX_ROUTE_KEYS:
        return None
    return f"a routing key space of {keys} (over {_MAX_ROUTE_KEYS})"


#: Sentinel returned by handle ``next_sink`` for routed senders; only
#: ``is None`` tests are ever performed on it (and it is always truthy).
_ROUTED = object()


class VecVC:
    """Sender-interface view of one virtual channel's array state.

    Handed to progressive recovery (``frontier_senders`` entries, lane
    sources); mutations go straight to the shared arrays, so the kernel
    sees them next cycle.
    """

    __slots__ = ("fabric", "sid", "link", "index", "router")

    is_injection = False

    def __init__(self, fabric: "VectorFabric", sid: int) -> None:
        self.fabric = fabric
        self.sid = sid
        lid, self.index = divmod(sid, fabric.num_vcs)
        self.link = fabric.topology.links[lid]
        self.router = self.link.dst

    @property
    def owner(self) -> Message | None:
        vid = self.fabric._s_owner[self.sid]
        return None if vid < 0 else self.fabric._vids[vid]

    @property
    def next_sink(self):
        return None if self.fabric._s_sink[self.sid] < 0 else _ROUTED

    # -- sender interface (recovery lane) -------------------------------
    def ready_flit(self, now: int) -> int | None:
        f = self.fabric
        sid = self.sid
        if f._v_count[sid] == 0:
            return None
        p = sid * f.D + f._v_hp[sid]
        if f._v_arr[p] >= now:
            return None
        return int(f._v_flit[p])

    def pop_flit(self) -> int:
        f = self.fabric
        sid = self.sid
        hp = int(f._v_hp[sid])
        flit = int(f._v_flit[sid * f.D + hp])
        f._v_hp[sid] = 0 if hp + 1 == f.D else hp + 1
        f._v_count[sid] -= 1
        f._hdr[H_OCC] -= 1
        return flit

    def release(self) -> None:
        f = self.fabric
        sid = self.sid
        if f._v_count[sid] != 0:  # pragma: no cover - guarded by callers
            raise SimulationError(f"releasing non-empty VC sid={sid}")
        vid = int(f._s_owner[sid])
        f._s_owner[sid] = -1
        f._s_sink[sid] = -1
        if vid >= 0:
            f._free_vid(vid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        o = self.owner
        return (
            f"VecVC(sid={self.sid} owner={o.uid if o else '-'} "
            f"occ={int(self.fabric._v_count[self.sid])})"
        )


class VecInjChannel:
    """Per-(node, class) injection channel over the array state.

    ``owner`` is a plain Python attribute — every transition (load,
    tail departure, direct delivery, rescue release) passes through
    Python, so no array lookup is needed on the per-cycle NI reload
    check.
    """

    __slots__ = ("fabric", "sid", "node", "router", "vc_class", "owner")

    is_injection = True

    def __init__(
        self, fabric: "VectorFabric", sid: int, node: int, router: int,
        vc_class: int,
    ) -> None:
        self.fabric = fabric
        self.sid = sid
        self.node = node
        self.router = router
        self.vc_class = vc_class
        self.owner: Message | None = None

    @property
    def idle(self) -> bool:
        return self.owner is None

    @property
    def next_sink(self):
        return None if self.fabric._s_sink[self.sid] < 0 else _ROUTED

    # -- sender interface (recovery lane; flit counts live in m_sent so
    # they stay coherent with the kernel's streaming) --------------------
    def ready_flit(self, now: int) -> int | None:
        if self.owner is None:
            return None
        f = self.fabric
        vid = f._s_owner[self.sid]
        sent = f._m_sent[vid]
        if sent < f._m_size[vid]:
            return int(sent)
        return None

    def pop_flit(self) -> int:
        f = self.fabric
        vid = f._s_owner[self.sid]
        flit = int(f._m_sent[vid])
        f._m_sent[vid] = flit + 1
        self.owner.flits_sent = flit + 1
        return flit

    def release(self) -> None:
        f = self.fabric
        vid = int(f._s_owner[self.sid])
        f._s_owner[self.sid] = -1
        f._s_sink[self.sid] = -1
        self.owner = None
        if vid >= 0:
            f._free_vid(vid)
        if f.wake_node is not None:
            f.wake_node(self.node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        o = self.owner
        return (
            f"VecInj(node={self.node} cls={self.vc_class} "
            f"owner={o.uid if o else '-'})"
        )


class VectorFabric:
    """Array-backed fabric; same cycle semantics as the reference.

    The route table (:func:`~repro.network.soa.build_route_table`,
    stride ``3 + max_static_candidates``) is built whole here; its key
    count is the size limit, :func:`oversized_route_table`, which
    ``backend="auto"`` checks for a torus or mesh before building
    anything.
    """

    def __init__(
        self,
        topology: Topology,
        num_vcs: int,
        flit_buffer_depth: int,
        routing,
        num_queue_classes: int,
        queue_capacity: int,
        queue_class_of,
    ) -> None:
        self.topology = topology
        self.num_vcs = num_vcs
        self.flit_buffer_depth = flit_buffer_depth
        self.routing = routing
        self.soa = TopologySoA(topology, num_vcs)
        self._queue_class_of = queue_class_of
        #: telemetry hook (repro.telemetry.Tracer) or None, as on the
        #: reference fabric.  Injection is reported from Python; grants
        #: and failed allocations happen inside the kernel, which
        #: reports them as events only while the engine's
        #: ``attach_tracer`` has set ``H_TRACE``.
        self.tracer = None
        #: engine wake hook ``wake_node(node)``: called when an
        #: injection channel frees up so the gated NI reloads it.
        self.wake_node = None

        L = self.soa.num_links
        V = num_vcs
        D = flit_buffer_depth
        N = topology.num_nodes
        C = num_queue_classes
        R = topology.num_routers
        VCLS = routing.vc_map.num_classes

        self.NVC = NVC = L * V
        self.C = C
        self.D = D
        #: total sender ids: all VCs plus one injection channel per
        #: (node, queue class).
        self.S = S = NVC + N * C
        #: message-slot capacity; every live packet owns >= 1 sender.
        self.M = M = S + 8

        too_big = oversized_route_table(R, VCLS)
        if too_big:
            raise ConfigurationError(
                f"vector backend: {too_big}; use backend='reference' for "
                "this topology size"
            )
        maxcand = routing.max_static_candidates()
        # Claims convert free or reserved slots into held ones, so the
        # senders parked at one ejection port are bounded per class by
        # the queue capacity (plus the transient over-commit of
        # reservation vacating).
        epcap = C * (queue_capacity + 4) + 8
        scap = S + 8
        # Per cycle: one tail per ejection port, one allocation outcome
        # per pending sender (claims only, unless traced), one injected
        # flit — so at most one released injection channel — per node.
        evcap = scap + 2 * N

        z = lambda n: np.zeros(n, dtype=np.int32)  # noqa: E731
        self._s_owner = np.full(S, -1, dtype=np.int32)
        self._s_sink = np.full(S, -1, dtype=np.int32)
        s_router = z(S)
        s_router[:NVC] = self.soa.vc_router
        for node in range(N):
            s_router[NVC + node * C : NVC + (node + 1) * C] = (
                topology.router_of_node(node)
            )
        self._s_router = s_router
        self._v_count = z(NVC)
        self._v_hp = z(NVC)
        self._v_flit = z(NVC * D)
        self._v_arr = z(NVC * D)
        self._vc_dim = np.ascontiguousarray(self.soa.vc_dim)
        self._vc_dateline = np.ascontiguousarray(self.soa.vc_dateline)
        self._m_size = z(M)
        self._m_dst = z(M)
        self._m_dstr = z(M)
        self._m_vcls = z(M)
        self._m_qcls = z(M)
        self._m_hasres = z(M)
        self._m_sent = z(M)
        self._m_crossed = z(M)
        self._m_hops = z(M)
        self._m_blocked = z(M)
        self._m_ejected = z(M)
        self._ls_s = z(L * V)
        self._ls_sink = z(L * V)
        self._ls_inj = z(L * V)
        self._ls_n = z(L)
        self._l_rr = z(L)
        self._busy_order = z(L)
        self._busy_in = z(L)
        self._ep_s = z(N * epcap)
        self._ep_n = z(N)
        self._ep_rr = z(N)
        self._pending = z(scap)
        self._still = z(scap)
        self._qm_free = np.full(N * C, queue_capacity, dtype=np.int32)
        self._qm_res = z(N * C)
        # Complete route table up front; a kernel miss is an error.
        self._rk_idx, self._rows = build_route_table(
            self.soa, routing, 3 + maxcand
        )
        self._ev = z(evcap * 3)
        self._inj_used = z(N)
        self._hdr = z(16)
        self._cnt = np.zeros(4, dtype=np.int64)

        self._lib = load_kernel()
        self._k_step = self._lib.k_step
        arrays = (
            self._s_owner, self._s_sink, self._s_router,
            self._v_count, self._v_hp, self._v_flit, self._v_arr,
            self._vc_dim, self._vc_dateline,
            self._m_size, self._m_dst, self._m_dstr, self._m_vcls,
            self._m_qcls, self._m_hasres, self._m_sent, self._m_crossed,
            self._m_hops, self._m_blocked, self._m_ejected,
            self._ls_s, self._ls_sink, self._ls_inj, self._ls_n,
            self._l_rr, self._busy_order, self._busy_in,
            self._ep_s, self._ep_n, self._ep_rr,
            self._pending, self._still, self._qm_free, self._qm_res,
            self._rk_idx, self._rows, self._ev, self._inj_used,
            self._hdr, self._cnt,
        )
        self._array_refs = arrays  # keep the buffers alive for the kernel
        import ctypes

        ptrs = (ctypes.c_int64 * len(arrays))(
            *(a.ctypes.data for a in arrays)
        )
        dims = (ctypes.c_int32 * 11)(
            L, V, D, N, C, R, epcap, maxcand, evcap, scap, VCLS
        )
        self._k = self._lib.k_new(ptrs, dims)
        if not self._k:  # pragma: no cover - allocation failure
            raise MemoryError("kernel state allocation failed")

        # vid <-> Message bookkeeping.
        self._vids: list[Message | None] = [None] * M
        self._free_vids = list(range(M - 1, -1, -1))

        # Endpoint hooks and handles.
        self._reserve_hooks = [None] * N
        self._deliver_hooks = [None] * N
        self._inj_channels: dict[tuple[int, int], VecInjChannel] = {}
        self._inj_by_sid: dict[int, VecInjChannel] = {}
        self._vc_handles: dict[int, VecVC] = {}

    def __del__(self):  # pragma: no cover - lifecycle
        k = getattr(self, "_k", None)
        if k:
            self._lib.k_free(k)
            self._k = None

    # ------------------------------------------------------------------
    # Wiring (same surface as the reference fabric)
    # ------------------------------------------------------------------
    def set_endpoint_hooks(self, node: int, try_reserve, deliver) -> None:
        self._reserve_hooks[node] = try_reserve
        self._deliver_hooks[node] = deliver

    def injection_channel(self, node: int, vc_class: int) -> VecInjChannel:
        key = (node, vc_class)
        chan = self._inj_channels.get(key)
        if chan is None:
            sid = self.NVC + node * self.C + vc_class
            chan = VecInjChannel(
                self, sid, node, self.topology.router_of_node(node), vc_class
            )
            self._inj_channels[key] = chan
            self._inj_by_sid[sid] = chan
        return chan

    # ------------------------------------------------------------------
    # Packet entry
    # ------------------------------------------------------------------
    def start_injection(self, chan: VecInjChannel, msg: Message, now: int) -> None:
        if chan.owner is not None:  # pragma: no cover - guarded
            raise SimulationError("loading busy injection channel")
        if not self._free_vids:  # pragma: no cover - sized to S + 8
            raise SimulationError("message-slot pool exhausted")
        vid = self._free_vids.pop()
        self._vids[vid] = msg
        msg.injected_cycle = now
        msg.blocked_since = now
        if msg.dst_router < 0:
            msg.dst_router = self.topology.router_of_node(msg.dst)
        self._m_size[vid] = msg.size
        self._m_dst[vid] = msg.dst
        self._m_dstr[vid] = msg.dst_router
        self._m_vcls[vid] = msg.vc_class
        self._m_qcls[vid] = self._queue_class_of(msg.mtype)
        self._m_hasres[vid] = 1 if msg.has_reservation else 0
        self._m_sent[vid] = msg.flits_sent
        self._m_crossed[vid] = msg.crossed_mask
        self._m_hops[vid] = msg.hops
        self._m_blocked[vid] = now
        self._m_ejected[vid] = 0
        sid = chan.sid
        self._s_owner[sid] = vid
        self._s_sink[sid] = -1
        pn = self._hdr[H_PN]
        self._pending[pn] = sid
        self._hdr[H_PN] = pn + 1
        chan.owner = msg
        if self.tracer is not None:
            self.tracer.message_injected(msg, now)

    # ------------------------------------------------------------------
    # Cycle
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        evn = self._k_step(self._k, now)
        if evn > 0:
            self._drain_events(evn, now)
        elif evn == K_ROUTE_MISS:
            hdr = self._hdr
            raise SimulationError(
                "route table has no row for (router, destination, class) "
                f"= ({hdr[H_MISS_R]}, {hdr[H_MISS_DSTR]}, {hdr[H_MISS_CLS]})"
            )
        elif evn < 0:  # pragma: no cover - sized generously
            raise SimulationError("kernel event buffer overflow")

    def _drain_events(self, evn: int, now: int) -> None:
        vids = self._vids
        NVC = self.NVC
        tracer = self.tracer
        # One bulk read: (type, vid, sid) triples as Python ints.
        flat = iter(self._ev[: 3 * evn].tolist())
        for etype, vid, sid in zip(flat, flat, flat):
            msg = vids[vid]
            if etype == EV_CLAIM:
                # The kernel already claimed against the slot mirror;
                # replaying through the NI hook performs the identical
                # queue mutation (and must agree with the mirror).
                if not self._reserve_hooks[msg.dst](msg):
                    raise SimulationError(
                        "slot mirror diverged from queue state"
                    )  # pragma: no cover - mirror is exact
                msg.blocked_since = -1
                if tracer is not None:
                    tracer.message_unblocked(msg, now)
            elif etype == EV_DELIVER:
                msg.flits_ejected = int(self._m_ejected[vid])
                if sid >= NVC:  # direct local delivery: free the injector
                    self._release_injector(sid)
                self._free_vid(vid)
                self._deliver_hooks[msg.dst](msg, now)
            elif etype == EV_INJDONE:  # tail left the injection channel
                self._release_injector(sid)
            # The last two kinds arrive only while a tracer is attached.
            elif etype == EV_BLOCKED:  # ``sid`` cell carries the router
                tracer.message_blocked(msg, sid, now)
            else:  # EV_GRANT
                tracer.message_unblocked(msg, now)

    def _release_injector(self, sid: int) -> None:
        chan = self._inj_by_sid[sid]
        chan.owner = None
        if self.wake_node is not None:
            self.wake_node(chan.node)

    def _free_vid(self, vid: int) -> None:
        self._vids[vid] = None
        self._free_vids.append(vid)

    # ------------------------------------------------------------------
    # Introspection (recovery, quiesce, tests)
    # ------------------------------------------------------------------
    def _handle(self, sid: int):
        if sid >= self.NVC:
            return self._inj_by_sid[sid]
        h = self._vc_handles.get(sid)
        if h is None:
            h = self._vc_handles[sid] = VecVC(self, sid)
        return h

    @property
    def pending(self) -> list:
        """Frontier handles in kernel order."""
        pn = int(self._hdr[H_PN])
        return [self._handle(sid) for sid in self._pending[:pn].tolist()]

    def frontier_senders(self) -> list:
        """Senders holding an unrouted header, in kernel order.  Only the
        kernel keeps a waiting header's ``blocked_since``, ``hops`` and
        ``crossed_mask`` current: they are copied onto the message first,
        as ``detach_frontier`` does."""
        out = []
        for s in self.pending:
            msg = s.owner
            if msg is not None and s.next_sink is None:
                vid = self._s_owner[s.sid]
                msg.blocked_since = int(self._m_blocked[vid])
                msg.hops = int(self._m_hops[vid])
                msg.crossed_mask = int(self._m_crossed[vid])
                out.append(s)
        return out

    def owned_channels(self):
        """The reference fabric's walk, in its order, over the arrays."""
        NVC = self.NVC
        sinks = self._s_sink
        owned = np.flatnonzero(self._s_owner[:NVC] >= 0).tolist()
        owned += [c.sid for c in self._inj_channels.values() if c.owner is not None]
        for sid in owned:
            sink = int(sinks[sid])
            yield self._handle(sid), (
                self._handle(sink) if 0 <= sink < NVC else None
            )

    def buffer_audit(self) -> tuple[int, int, tuple | None]:
        """The reference fabric's audit, read off ``_v_count``,
        ``_s_owner`` and the ``H_OCC`` ledger."""
        count = self._v_count
        unowned = self._s_owner[: self.NVC] < 0
        bad = np.flatnonzero((count > 0) & (unowned | (count > self.D)))
        first: tuple | None = None
        if len(bad):
            sid = int(bad[0])
            first = (*divmod(sid, self.num_vcs), int(count[sid]),
                     not unowned[sid])
        return int(self._hdr[H_OCC]), int(count.sum()), first

    def detach_frontier(self, sender) -> None:
        """Remove a frontier from the pending set (rescue path).

        Message progress fields are synced from the arrays because the
        recovery lane and its bookkeeping operate on the object.
        """
        sid = sender.sid
        self._lib.k_detach(self._k, sid)
        vid = self._s_owner[sid]
        if vid >= 0:
            msg = self._vids[vid]
            msg.flits_sent = int(self._m_sent[vid])
            msg.hops = int(self._m_hops[vid])
            msg.crossed_mask = int(self._m_crossed[vid])
            msg.blocked_since = int(self._m_blocked[vid])
            msg.flits_ejected = int(self._m_ejected[vid])

    def held_messages(self):
        """Every message owning a virtual or injection channel."""
        return [msg for msg in self._vids if msg is not None]

    def occupancy(self) -> int:
        return int(self._hdr[H_OCC])

    def busy_link_count(self) -> int:
        """Links that currently have at least one sender routed over them."""
        return int(self._hdr[H_BUSYN])

    @property
    def flits_forwarded(self) -> int:
        return int(self._cnt[C_FORWARDED])

    @property
    def flits_injected(self) -> int:
        return int(self._cnt[C_INJECTED])

    @property
    def flits_ejected(self) -> int:
        return int(self._cnt[C_EJECTED])

    @property
    def alloc_failures(self) -> int:
        return int(self._cnt[C_ALLOCFAIL])
