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

Routing functions build on the map: deterministic escape routing over
the escape pair (Dally-Seitz dateline classes), Duato's protocol
(minimal-adaptive over the adaptive set with the escape pair as fallback),
and true fully adaptive routing.  One :class:`Routing` serves every
:class:`~repro.network.topology.Topology`, since a routing function is a
relation on an arbitrary directed graph (Mendlovic & Matias).

The factory functions (:func:`dimension_order_routing`,
:func:`duato_routing`, :func:`true_fully_adaptive_routing`,
:func:`full_mesh_routing`) each name the router they build, so the
schemes never construct one themselves.  None of this *assumes*
deadlock freedom: :mod:`repro.analysis.cdg` certifies or refutes each
(topology, routing) pair from its static channel-dependency graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.channel import VirtualChannel
from repro.network.topology import FullMesh, IrregularGraph, Topology
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


class Routing:
    """Supplies candidate output VCs for a packet at a router.

    One rule for every topology: a hop's candidates are the class's
    adaptive VCs on each of ``topology.minimal_links(router, dst)`` (in
    out-link order), followed — only for classes with an escape pair —
    by the escape VC on the first hop of ``topology.route_path(router,
    dst)``: dimension order on grids, the direct link on a full mesh
    (Cano et al., HOTI'25), up*/down* tree routing on irregular graphs.
    Datelines are link attributes: the escape hop takes dateline class 1
    when its link crosses the dateline or the packet already crossed one
    in that link's dimension.  Off the grid no link crosses a dateline,
    so escape traffic stays in class 0.

    ``link_vcs`` maps link id to that link's :class:`VirtualChannel`
    list; it is bound by the fabric after construction via :meth:`bind`.
    """

    def __init__(
        self, topology: Topology, vc_map: VcMap, adaptive: bool, name: str
    ) -> None:
        self.topology = topology
        self.vc_map = vc_map
        #: Whether adaptive candidates are offered (Duato/TFAR) or the
        #: packet is restricted to the escape channel.
        self.adaptive = adaptive
        #: Short label naming the routing in reports (``repro cdg-check``).
        self.name = name
        self.link_vcs: list[list[VirtualChannel]] | None = None
        #: (router, dst_router, vc_class, crossed_mask) -> static
        #: candidate structure; see :meth:`candidates`.
        self._memo: dict[tuple[int, int, int, int],
                         tuple[tuple[VirtualChannel, ...],
                               VirtualChannel | None]] = {}

    def bind(self, link_vcs: list[list[VirtualChannel]]) -> None:
        self.link_vcs = link_vcs
        self._memo.clear()

    def static_candidate_ids(
        self, router: int, dst_router: int, vc_class: int, crossed_mask: int
    ) -> tuple[tuple[int, ...], int]:
        """The hop's candidate row as virtual-channel ids.

        ``(adaptive_vc_ids, escape_vc_id_or_-1)`` with
        ``vc id = lid * num_vcs + index``.  This is the only definition
        of a row: :meth:`candidates` fills its memo from it, and the
        vector backend's route table and the CDG certifier read it
        directly — it needs no bound ``link_vcs``.
        """
        topo = self.topology
        num_vcs = self.vc_map.num_vcs
        indices = self.vc_map.adaptive[vc_class] if self.adaptive else ()
        links = topo.minimal_links(router, dst_router) if indices else ()
        ids = tuple(link.lid * num_vcs + idx for link in links for idx in indices)
        esc = -1
        pair = self.vc_map.escape[vc_class]
        if pair is not None:
            link = topo.route_path(router, dst_router)[0]
            cls1 = link.crosses_dateline or (crossed_mask >> link.dim) & 1
            esc = link.lid * num_vcs + pair[cls1]
        return ids, esc

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
            ids, esc_id = self.static_candidate_ids(*key)
            V = self.vc_map.num_vcs
            vcs = self.link_vcs
            entry = self._memo[key] = (
                tuple(vcs[i // V][i % V] for i in ids),
                vcs[esc_id // V][esc_id % V] if esc_id >= 0 else None,
            )
        static_adaptive, esc = entry
        # Free channels keep their static (out-link-major) order under
        # the stable emptiest-first sort — identical to rebuilding the
        # candidate list from scratch every attempt.
        cands = [vc for vc in static_adaptive if vc.owner is None]
        cands.sort(key=_fifo_occupancy)
        if esc is not None:
            cands.append(esc)
        return cands

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


def _require_escape(vc_map: VcMap, what: str) -> None:
    if any(pair is None for pair in vc_map.escape):
        raise ConfigurationError(f"{what} requires an escape pair per class")


def dimension_order_routing(topology: Topology, vc_map: VcMap) -> Routing:
    """Deterministic escape-only routing per class.

    The topology's ``route_path`` discipline over the escape pair:
    dimension order with Dally-Seitz datelines on grids, direct or tree
    routing elsewhere.
    """
    _require_escape(vc_map, "DOR")
    return Routing(topology, vc_map, adaptive=False, name="dor")


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
    if isinstance(topology, IrregularGraph):
        return Routing(topology, vc_map, adaptive=False, name="updown")
    return Routing(topology, vc_map, adaptive=True, name="duato")


def true_fully_adaptive_routing(topology: Topology, vc_map: VcMap) -> Routing:
    """All channels adaptive, no escape; deadlock handled by recovery."""
    return Routing(topology, vc_map, adaptive=True, name="tfar")


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
    return Routing(topology, vc_map, adaptive=True, name="cano-direct")
