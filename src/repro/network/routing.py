"""Virtual-channel maps and routing functions.

A :class:`VcMap` assigns each virtual-channel index on every link to a
*logical network* (message class) and a role (escape or adaptive).  The
three deadlock-handling techniques differ exactly here:

* **SA** — one logical network per message type: ``partitioned`` map with
  ``num_classes = L``.  Per-type availability is ``1 + (C/L - E_r)`` with
  split extras or ``1 + (C - E_m)`` with shared extras (Section 2.1).
* **DR** — two logical networks (request/reply): ``partitioned`` with
  ``num_classes = 2``.
* **PR** — a single class with every channel adaptive and *no* escape:
  ``tfar`` map (True Fully Adaptive Routing).

Routing functions build on the map: deterministic dimension-order routing
over the escape pair (Dally-Seitz dateline classes), Duato's protocol
(minimal-adaptive over the adaptive set with the escape pair as fallback),
and true fully adaptive routing.

Two implementations share one candidate protocol (``bind`` /
``candidates`` / ``static_candidate_ids`` / ``max_static_candidates``):

* :class:`RoutingFunction` — the memoized grid router over
  ``productive_directions`` (torus and mesh; dateline-aware escape).
* :class:`TableRouting` — table-driven routing over any
  :class:`~repro.network.topology.Topology`: BFS-minimal adaptive hops
  plus the topology's ``route_path`` discipline as escape (direct links
  on a full mesh — Cano et al., HOTI'25 — or up*/down* tree routing on
  irregular graphs).

The factory functions (:func:`dimension_order_routing`,
:func:`duato_routing`, :func:`true_fully_adaptive_routing`,
:func:`full_mesh_routing`) dispatch on the topology, so the schemes
never name a concrete router.  None of this *assumes* deadlock freedom:
:mod:`repro.analysis.cdg` certifies or refutes each (topology, routing)
pair from its static channel-dependency graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.channel import VirtualChannel
from repro.network.topology import (
    FullMesh,
    GridTopology,
    IrregularGraph,
    Link,
    Topology,
)
from repro.util.errors import ConfigurationError

#: Escape channels needed per logical network on a torus (dateline pair).
ESCAPE_PER_NETWORK = 2


def _fifo_occupancy(vc: VirtualChannel) -> int:
    return len(vc.fifo)


@dataclass(frozen=True)
class VcMap:
    """Assignment of VC indices to logical networks and roles.

    Attributes
    ----------
    num_vcs:
        Virtual channels per unidirectional link (``C``).
    num_classes:
        Number of logical networks.
    escape:
        Per class, the ``(class0, class1)`` dateline escape pair, or
        ``None`` for classes with no escape (TFAR).
    adaptive:
        Per class, the tuple of fully adaptive VC indices available to it.
    """

    num_vcs: int
    num_classes: int
    escape: tuple[tuple[int, int] | None, ...]
    adaptive: tuple[tuple[int, ...], ...]

    def availability(self, cls: int) -> int:
        """Channels a packet of this class can choose from at a hop.

        The paper's availability metric: one escape channel (only one of
        the pair is usable at a given hop) plus all adaptive channels.
        """
        esc = 1 if self.escape[cls] is not None else 0
        return esc + len(self.adaptive[cls])

    def classes_of_vc(self, vc_index: int) -> list[int]:
        """Logical networks allowed to use a VC index (for validation)."""
        out = []
        for cls in range(self.num_classes):
            pair = self.escape[cls]
            if (pair is not None and vc_index in pair) or vc_index in self.adaptive[
                cls
            ]:
                out.append(cls)
        return out


def partitioned_vc_map(
    num_vcs: int, num_classes: int, shared_extras: bool = False
) -> VcMap:
    """Logical networks for SA (``num_classes = L``) or DR (= 2).

    ``shared_extras`` implements the Martinez-style improvement where all
    channels beyond the per-class escape minimum are shared among every
    class, raising availability from ``1 + (C/L - E_r)`` to
    ``1 + (C - E_m)``.
    """
    if num_classes < 1:
        raise ConfigurationError("need at least one message class")
    e_m = ESCAPE_PER_NETWORK * num_classes
    if num_vcs < e_m:
        raise ConfigurationError(
            f"{num_vcs} VCs cannot host {num_classes} logical networks: "
            f"need at least E_m = {e_m} escape channels (Section 2.1)"
        )
    escape: list[tuple[int, int]] = []
    adaptive: list[tuple[int, ...]] = []
    if shared_extras:
        for cls in range(num_classes):
            escape.append((2 * cls, 2 * cls + 1))
        extras = tuple(range(e_m, num_vcs))
        adaptive = [extras for _ in range(num_classes)]
    else:
        # Split channels as evenly as possible; earlier classes absorb the
        # remainder.  Each class's first two channels are its escape pair.
        base = num_vcs // num_classes
        rem = num_vcs % num_classes
        start = 0
        for cls in range(num_classes):
            share = base + (1 if cls < rem else 0)
            if share < ESCAPE_PER_NETWORK:
                raise ConfigurationError(
                    f"class {cls} share {share} < {ESCAPE_PER_NETWORK} escape VCs"
                )
            escape.append((start, start + 1))
            adaptive.append(tuple(range(start + 2, start + share)))
            start += share
    return VcMap(num_vcs, num_classes, tuple(escape), tuple(adaptive))


def tfar_vc_map(num_vcs: int) -> VcMap:
    """Single class, every channel adaptive, no escape (PR's map)."""
    if num_vcs < 1:
        raise ConfigurationError("need at least one VC")
    return VcMap(num_vcs, 1, (None,), (tuple(range(num_vcs)),))


def duato_vc_map(num_vcs: int) -> VcMap:
    """Single class with an escape pair: Duato's protocol on one network."""
    return partitioned_vc_map(num_vcs, 1)


class RoutingFunction:
    """Supplies candidate output VCs for a packet at a router.

    ``link_vcs`` maps link id to that link's :class:`VirtualChannel`
    list; it is bound by the fabric after construction via :meth:`bind`.
    """

    def __init__(
        self, topology: GridTopology, vc_map: VcMap, adaptive: bool
    ) -> None:
        self.topology = topology
        self.vc_map = vc_map
        #: Whether adaptive candidates are offered (Duato/TFAR) or the
        #: packet is restricted to dimension-order escape routing.
        self.adaptive = adaptive
        self.link_vcs: list[list[VirtualChannel]] | None = None
        #: (router, dst_router, vc_class, crossed_mask) -> static
        #: candidate structure; see :meth:`candidates`.
        self._memo: dict[tuple[int, int, int, int],
                         tuple[tuple[VirtualChannel, ...],
                               VirtualChannel | None]] = {}

    def bind(self, link_vcs: list[list[VirtualChannel]]) -> None:
        self.link_vcs = link_vcs
        self._memo.clear()

    # ------------------------------------------------------------------
    def escape_candidate(
        self, router: int, dst_router: int, msg
    ) -> VirtualChannel | None:
        """The single dimension-order escape VC for this hop, if any."""
        pair = self.vc_map.escape[msg.vc_class]
        if pair is None:
            return None
        dirs = self.topology.productive_directions(router, dst_router)
        if not dirs:
            return None
        # Lowest dimension first; prefer +1 on a tie of directions.
        dim, direction, _ = min(dirs, key=lambda t: (t[0], -t[1]))
        link = self.topology.out_link(router, dim, direction)
        cls1 = link.crosses_dateline or (msg.crossed_mask >> dim) & 1
        vc_index = pair[1] if cls1 else pair[0]
        return self.link_vcs[link.lid][vc_index]

    def adaptive_candidates(
        self, router: int, dst_router: int, msg
    ) -> list[VirtualChannel]:
        """Free adaptive VCs on all productive links, emptiest first."""
        indices = self.vc_map.adaptive[msg.vc_class]
        if not indices or not self.adaptive:
            return []
        out: list[VirtualChannel] = []
        for dim, direction, _ in self.topology.productive_directions(
            router, dst_router
        ):
            link = self.topology.out_link(router, dim, direction)
            vcs = self.link_vcs[link.lid]
            for idx in indices:
                vc = vcs[idx]
                if vc.owner is None:
                    out.append(vc)
        out.sort(key=lambda vc: len(vc.fifo))
        return out

    def _static_candidates(
        self, router: int, dst_router: int, vc_class: int, crossed_mask: int
    ) -> tuple[tuple[VirtualChannel, ...], VirtualChannel | None]:
        """The hop's candidate VCs independent of channel occupancy.

        Which VCs are *eligible* at a hop depends only on the (current
        router, destination router, VC class, dateline-crossing mask)
        tuple, so the productive-direction walk and link lookups are done
        once per key; :meth:`candidates` then applies the per-attempt
        dynamic parts (ownership filter, emptiest-first sort).
        """
        adaptive: list[VirtualChannel] = []
        indices = self.vc_map.adaptive[vc_class]
        if indices and self.adaptive:
            for dim, direction, _ in self.topology.productive_directions(
                router, dst_router
            ):
                vcs = self.link_vcs[self.topology.out_link(router, dim, direction).lid]
                for idx in indices:
                    adaptive.append(vcs[idx])
        esc = None
        pair = self.vc_map.escape[vc_class]
        if pair is not None:
            dirs = self.topology.productive_directions(router, dst_router)
            if dirs:
                dim, direction, _ = min(dirs, key=lambda t: (t[0], -t[1]))
                link = self.topology.out_link(router, dim, direction)
                cls1 = link.crosses_dateline or (crossed_mask >> dim) & 1
                esc = self.link_vcs[link.lid][pair[1] if cls1 else pair[0]]
        return tuple(adaptive), esc

    def candidates(self, router: int, dst_router: int, msg) -> list[VirtualChannel]:
        """All candidate output VCs in preference order.

        Adaptive choices first (Duato: a packet may always fall back to
        the escape path, listed last).  Only *free* adaptive channels are
        returned; the escape candidate is returned regardless so callers
        can wait on it.
        """
        key = (router, dst_router, msg.vc_class, msg.crossed_mask)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = self._static_candidates(*key)
        static_adaptive, esc = entry
        # Free channels keep their static (direction-major) order under
        # the stable emptiest-first sort — identical to rebuilding the
        # candidate list from scratch every attempt.
        cands = [vc for vc in static_adaptive if vc.owner is None]
        cands.sort(key=_fifo_occupancy)
        if esc is not None:
            cands.append(esc)
        return cands

    # ------------------------------------------------------------------
    # Static export (vector backend, CDG analysis)
    # ------------------------------------------------------------------
    def static_candidate_ids(
        self, router: int, dst_router: int, vc_class: int, crossed_mask: int
    ) -> tuple[tuple[int, ...], int]:
        """One routing-memo row as virtual-channel ids.

        ``(adaptive_vc_ids, escape_vc_id_or_-1)`` with
        ``vc id = lid * num_vcs + index``, in exactly the order
        :meth:`_static_candidates` produces the channels.  Unlike the
        memo this needs no bound ``link_vcs``, so the vector backend and
        the CDG extractor can consult it before any fabric exists.
        """
        num_vcs = self.vc_map.num_vcs
        out: list[int] = []
        indices = self.vc_map.adaptive[vc_class]
        dirs = self.topology.productive_directions(router, dst_router)
        if indices and self.adaptive:
            for dim, direction, _ in dirs:
                lid = self.topology.out_link(router, dim, direction).lid
                for idx in indices:
                    out.append(lid * num_vcs + idx)
        esc = -1
        pair = self.vc_map.escape[vc_class]
        if pair is not None and dirs:
            dim, direction, _ = min(dirs, key=lambda t: (t[0], -t[1]))
            link = self.topology.out_link(router, dim, direction)
            cls1 = link.crosses_dateline or (crossed_mask >> dim) & 1
            esc = link.lid * num_vcs + (pair[1] if cls1 else pair[0])
        return tuple(out), esc

    def max_static_candidates(self) -> int:
        """Upper bound on adaptive candidates per hop (table sizing)."""
        if not self.adaptive:
            return 0
        widest = max((len(a) for a in self.vc_map.adaptive), default=0)
        return 2 * self.topology.ndim * widest


class TableRouting:
    """Table-driven routing over an arbitrary :class:`Topology`.

    Candidates per hop are the BFS-minimal next links (adaptive set) and
    the first hop of the topology's ``route_path`` discipline (escape):
    direct links on a :class:`~repro.network.topology.FullMesh`
    (Cano-style — with ``num_vcs=1`` this is VC-free routing), up*/down*
    tree hops on an :class:`~repro.network.topology.IrregularGraph`.
    There are no datelines off the grid, so escape traffic always uses
    class-0 of the escape pair and the crossing mask stays zero.

    The *dynamic* candidate discipline is identical to
    :class:`RoutingFunction`: free adaptive channels emptiest-first
    (stable on the static order), escape appended regardless of
    occupancy so callers can wait on it.
    """

    def __init__(
        self, topology: Topology, vc_map: VcMap, adaptive: bool,
        name: str = "table",
    ) -> None:
        self.topology = topology
        self.vc_map = vc_map
        self.adaptive = adaptive
        self.name = name
        self.link_vcs: list[list[VirtualChannel]] | None = None
        #: (router, dst_router) -> (minimal next links, escape link).
        self._hops: dict[tuple[int, int], tuple[tuple[Link, ...], Link | None]] = {}
        self._memo: dict[tuple[int, int, int],
                         tuple[tuple[VirtualChannel, ...],
                               VirtualChannel | None]] = {}

    def bind(self, link_vcs: list[list[VirtualChannel]]) -> None:
        self.link_vcs = link_vcs
        self._memo.clear()

    # ------------------------------------------------------------------
    def hop_links(
        self, router: int, dst_router: int
    ) -> tuple[tuple[Link, ...], Link | None]:
        """``(BFS-minimal next links in out-link order, escape link)``.

        The escape link is the first hop of ``topology.route_path``;
        ``((), None)`` when ``router == dst_router``.  Memoized per pair.
        """
        key = (router, dst_router)
        entry = self._hops.get(key)
        if entry is None:
            topo = self.topology
            if router == dst_router:
                entry = ((), None)
            else:
                want = topo.min_hops(router, dst_router) - 1
                minimal = tuple(
                    ln for ln in topo.out_links(router)
                    if topo.min_hops(ln.dst, dst_router) == want
                )
                entry = (minimal, topo.route_path(router, dst_router)[0])
            self._hops[key] = entry
        return entry

    def _static_candidates(
        self, router: int, dst_router: int, vc_class: int
    ) -> tuple[tuple[VirtualChannel, ...], VirtualChannel | None]:
        minimal, escape_link = self.hop_links(router, dst_router)
        adaptive: list[VirtualChannel] = []
        indices = self.vc_map.adaptive[vc_class]
        if indices and self.adaptive:
            for link in minimal:
                vcs = self.link_vcs[link.lid]
                for idx in indices:
                    adaptive.append(vcs[idx])
        esc = None
        pair = self.vc_map.escape[vc_class]
        if pair is not None and escape_link is not None:
            esc = self.link_vcs[escape_link.lid][pair[0]]
        return tuple(adaptive), esc

    def escape_candidate(
        self, router: int, dst_router: int, msg
    ) -> VirtualChannel | None:
        """The single escape VC for this hop, if any."""
        return self._memoized(router, dst_router, msg.vc_class)[1]

    def adaptive_candidates(
        self, router: int, dst_router: int, msg
    ) -> list[VirtualChannel]:
        """Free adaptive VCs on all minimal links, emptiest first."""
        static_adaptive, _ = self._memoized(router, dst_router, msg.vc_class)
        out = [vc for vc in static_adaptive if vc.owner is None]
        out.sort(key=_fifo_occupancy)
        return out

    def _memoized(
        self, router: int, dst_router: int, vc_class: int
    ) -> tuple[tuple[VirtualChannel, ...], VirtualChannel | None]:
        key = (router, dst_router, vc_class)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = self._static_candidates(*key)
        return entry

    def candidates(self, router: int, dst_router: int, msg) -> list[VirtualChannel]:
        """All candidate output VCs in preference order (see class doc)."""
        static_adaptive, esc = self._memoized(router, dst_router, msg.vc_class)
        cands = [vc for vc in static_adaptive if vc.owner is None]
        cands.sort(key=_fifo_occupancy)
        if esc is not None:
            cands.append(esc)
        return cands

    # ------------------------------------------------------------------
    # Static export (vector backend, CDG analysis)
    # ------------------------------------------------------------------
    def static_candidate_ids(
        self, router: int, dst_router: int, vc_class: int, crossed_mask: int
    ) -> tuple[tuple[int, ...], int]:
        """As :meth:`RoutingFunction.static_candidate_ids`.

        ``crossed_mask`` is accepted for interface parity but ignored:
        nothing here crosses a dateline, so every mask maps to the same
        row.
        """
        num_vcs = self.vc_map.num_vcs
        minimal, escape_link = self.hop_links(router, dst_router)
        indices = self.vc_map.adaptive[vc_class] if self.adaptive else ()
        ids = tuple(
            link.lid * num_vcs + idx for link in minimal for idx in indices
        )
        esc = -1
        pair = self.vc_map.escape[vc_class]
        if pair is not None and escape_link is not None:
            esc = escape_link.lid * num_vcs + pair[0]
        return ids, esc

    def max_static_candidates(self) -> int:
        """Upper bound on adaptive candidates per hop (table sizing)."""
        if not self.adaptive:
            return 0
        widest = max((len(a) for a in self.vc_map.adaptive), default=0)
        degree = max(
            (len(self.topology.out_links(r))
             for r in range(self.topology.num_routers)),
            default=0,
        )
        return degree * widest


#: Anything the fabric/schemes accept as a routing function.
Routing = RoutingFunction | TableRouting


def _require_escape(vc_map: VcMap, what: str) -> None:
    if any(pair is None for pair in vc_map.escape):
        raise ConfigurationError(f"{what} requires an escape pair per class")


def dimension_order_routing(topology: Topology, vc_map: VcMap) -> Routing:
    """Deterministic escape-only routing per class.

    Dimension order over the Dally-Seitz dateline pair on grids; the
    topology's deterministic ``route_path`` discipline (direct / tree
    routing) elsewhere.
    """
    _require_escape(vc_map, "DOR")
    if isinstance(topology, GridTopology):
        return RoutingFunction(topology, vc_map, adaptive=False)
    return TableRouting(topology, vc_map, adaptive=False, name="escape")


def duato_routing(topology: Topology, vc_map: VcMap) -> Routing:
    """Duato's protocol: minimal adaptive + deterministic escape.

    On an :class:`~repro.network.topology.IrregularGraph` the adaptive
    set is disabled: minimal detours off the up*/down* tree create
    indirect dependencies between tree channels (a packet can hold an
    up-channel, detour, and later request a deeper up-channel), which
    breaks the escape ordering Duato's condition needs — `repro
    cdg-check` refutes exactly that pair.  Irregular graphs therefore
    route escape-only under avoidance schemes; recovery schemes (PR)
    keep full adaptivity and handle the fallout.
    """
    _require_escape(vc_map, "Duato routing")
    if isinstance(topology, GridTopology):
        return RoutingFunction(topology, vc_map, adaptive=True)
    if isinstance(topology, IrregularGraph):
        return TableRouting(topology, vc_map, adaptive=False, name="updown")
    return TableRouting(topology, vc_map, adaptive=True, name="duato-table")


def true_fully_adaptive_routing(topology: Topology, vc_map: VcMap) -> Routing:
    """All channels adaptive, no escape; deadlock handled by recovery."""
    if isinstance(topology, GridTopology):
        return RoutingFunction(topology, vc_map, adaptive=True)
    return TableRouting(topology, vc_map, adaptive=True, name="tfar-table")


def full_mesh_routing(topology: FullMesh, vc_map: VcMap | None = None) -> Routing:
    """Cano-style direct full-mesh routing (HOTI'25).

    Single-hop direct links generate no channel-to-channel dependencies,
    so this is deadlock-free with zero dedicated escape VCs — with the
    default one-VC map it is literally VC-free.
    """
    if not isinstance(topology, FullMesh):
        raise ConfigurationError(
            f"full_mesh_routing needs a FullMesh, got {topology!r}"
        )
    if vc_map is None:
        vc_map = tfar_vc_map(1)
    return TableRouting(topology, vc_map, adaptive=True, name="cano-direct")
