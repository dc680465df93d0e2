"""Struct-of-arrays export of topology and channel structure.

The vector backend (:mod:`repro.sim.vector`) keeps all fabric state in
flat numpy arrays and advances it with a compiled kernel; this module is
the bridge from the object world.  :class:`TopologySoA` flattens any
:class:`~repro.network.topology.Topology` — link endpoints, dimensions,
dateline flags, node-to-router map — and :func:`build_route_table`
precomputes every routing-memo row in terms of *virtual-channel ids*
(``lid * num_vcs + index``) instead of ``VirtualChannel`` objects, so
the kernel's allocation scan can consult a candidate table and still
make exactly the choices the reference engine makes.

A row depends on the destination only through the hop's *route* — its
set of minimal out-links and its escape link — so the table stores one
row per distinct route and VC class and maps each (router, destination,
class) key to it.  Routes are found per pair and deduplicated as they
are found (one ``np.unique`` over packed port sets on grids, a dict over
``minimal_links`` / ``route_path`` elsewhere).  The contract — checked
key by key in ``tests/test_route_table.py`` — is that every key, under
every dateline mask, resolves to :meth:`Routing.static_candidate_ids
<repro.network.routing.Routing.static_candidate_ids>`.
"""

from __future__ import annotations

import numpy as np

from repro.network.routing import Routing
from repro.network.topology import GridTopology, Topology


class TopologySoA:
    """Flat array view of a :class:`~repro.network.topology.Topology`.

    ``vc_dim`` / ``vc_dateline`` carry the dateline machinery; for
    topologies without wrap links they are all zero and the kernel's
    crossing mask degenerates to a constant 0.
    """

    def __init__(self, topology: Topology, num_vcs: int) -> None:
        self.topology = topology
        self.num_vcs = num_vcs
        links = topology.links
        self.num_links = len(links)
        #: total virtual channels; vc id = lid * num_vcs + index.
        self.num_vcs_total = self.num_links * num_vcs
        self.link_src = np.array([ln.src for ln in links], dtype=np.int32)
        self.link_dst = np.array([ln.dst for ln in links], dtype=np.int32)
        self.link_dim = np.array([ln.dim for ln in links], dtype=np.int32)
        self.link_dateline = np.array(
            [1 if ln.crosses_dateline else 0 for ln in links], dtype=np.int32
        )
        self.router_of_node = np.array(
            [topology.router_of_node(n) for n in range(topology.num_nodes)],
            dtype=np.int32,
        )
        # Per-VC static facts, indexed by vc id.
        self.vc_link = np.repeat(
            np.arange(self.num_links, dtype=np.int32), num_vcs
        )
        self.vc_router = self.link_dst[self.vc_link]
        self.vc_dim = self.link_dim[self.vc_link]
        self.vc_dateline = self.link_dateline[self.vc_link]

    def vc_id(self, lid: int, index: int) -> int:
        return lid * self.num_vcs + index


def build_route_table(
    soa: TopologySoA, routing: Routing, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every routing-memo row, precomputed (``(rk_idx, rows)``).

    ``rk_idx`` is indexed by the dense key
    ``(router * R + dst_router) * classes + vc_class`` and holds a row
    number (-1 on the diagonal, which is never routed); ``rows`` is the
    flat ``row * stride`` buffer of ``[count, escape id for dateline
    class 0, escape id for dateline class 1, candidate ids...]`` (both
    escape ids -1 for a class without an escape pair).  Row ``route *
    classes + vc_class`` is the row of one distinct route, so each row is
    stored once.

    The dateline mask is not part of the key: it only selects between
    the two escape ids, and the kernel picks class 1 exactly when
    ``static_candidate_ids`` does — the escape link crosses the dateline
    or the mask bit of its dimension is set.  With that pick, every
    off-diagonal key under every mask resolves to
    ``routing.static_candidate_ids(router, dst_router, vc_class, mask)``.
    Filling the table at fabric construction means the kernel's
    allocation phase never misses.
    """
    topology = soa.topology
    R = topology.num_routers
    # Hop-link columns: one per out-link of the busiest router, the same
    # bound ``Routing.max_static_candidates`` sizes ``stride`` by.
    degree = int(np.bincount(soa.link_src, minlength=R).max())
    if isinstance(topology, GridTopology):
        links, escape_link, route = _grid_routes(topology, degree)
    else:
        links, escape_link, route = _graph_routes(topology, degree)
    vc_map = routing.vc_map
    num_vcs = soa.num_vcs
    vcls = vc_map.num_classes

    rows = np.zeros((len(links), vcls, stride), dtype=np.int32)
    valid = links >= 0
    n_links = valid.sum(axis=1, dtype=np.int32)
    for cls in range(vcls):
        block = rows[:, cls]  # (routes, stride) view
        idx = np.array(
            vc_map.adaptive[cls] if routing.adaptive else (), dtype=np.int32
        )
        m = len(idx)
        block[:, 0] = n_links * m
        # Candidate order: hop links in order x the class's adaptive VC
        # indices in order.
        for s in range(degree):
            block[:, 3 + s * m : 3 + (s + 1) * m] = np.where(
                valid[:, s, None], links[:, s, None] * num_vcs + idx, 0
            )
        pair = vc_map.escape[cls]
        block[:, 1:3] = (
            -1 if pair is None else escape_link[:, None] * num_vcs + pair
        )

    rk_idx = np.full((R * R, vcls), -1, dtype=np.int32)
    rk_idx[~np.eye(R, dtype=bool).ravel()] = (
        route[:, None] * vcls + np.arange(vcls)
    )
    return rk_idx.reshape(-1), rows.reshape(-1)


def _grid_routes(
    topology: GridTopology, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct routes of a grid and the route of each off-diagonal pair.

    A pair's route is its router and the set of ``minimal_links`` ports,
    ``(dim, direction)`` packed as bit ``2 * dim + (direction < 0)`` —
    the escape link is the first of them (``route_path``), so the port
    set decides the whole row.  The minimal-direction rule (ties
    included) is sampled from the topology along one axis line per
    dimension — it is separable by dimension and depends only on the two
    coordinates — then broadcast to every pair, so it is stated in
    :mod:`repro.network.topology` only.  One ``np.unique`` over the
    packed ``router << 2 * ndim | ports`` codes yields the routes; their
    links come out ``(routes, degree)`` in ``productive_directions``
    order (dimension ascending, +1 before -1), left-packed and -1 padded.
    """
    R = topology.num_routers
    ndim = topology.ndim
    nport = 2 * ndim
    out_lid = np.full((R, nport), -1, dtype=np.int32)
    for ln in topology.links:
        out_lid[ln.src, 2 * ln.dim + (ln.direction < 0)] = ln.lid
    coords = np.array([topology.coords(r) for r in range(R)])
    ports = np.zeros((R, R), dtype=np.int64)
    origin = [0] * ndim
    for d, k in enumerate(topology.dims):
        line = [
            topology.router_id(origin[:d] + [a] + origin[d + 1 :])
            for a in range(k)
        ]
        productive = np.zeros((2, k, k), dtype=np.int64)
        for a in range(k):
            for b in range(k):
                for _, direction, _ in topology.productive_directions(
                    line[a], line[b]
                ):
                    productive[int(direction < 0), a, b] = 1
        c = coords[:, d]
        for minus in (0, 1):
            ports |= productive[minus][c[:, None], c] << (2 * d + minus)
    codes = np.arange(R, dtype=np.int64)[:, None] << nport | ports
    codes, route = np.unique(
        codes[~np.eye(R, dtype=bool)], return_inverse=True
    )
    router = codes >> nport
    links = np.full((len(codes), degree), -1, dtype=np.int32)
    filled = np.zeros(len(codes), dtype=np.intp)
    for port in range(nport):
        sel = np.flatnonzero((codes >> port) & 1)
        links[sel, filled[sel]] = out_lid[router[sel], port]
        filled[sel] += 1
    return links, links[:, 0], route


def _graph_routes(
    topology: Topology, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(minimal_links, route_path first hop)`` routes as link
    ids, and the route of each off-diagonal pair.

    The escape hop is whatever the topology's ``route_path`` discipline
    says, pair by pair, so this stage stays one Python call per pair;
    the substrates routed this way have tens of routers.
    """
    R = topology.num_routers
    routes: dict[tuple[tuple[int, ...], int], int] = {}
    route = np.empty(R * (R - 1), dtype=np.int64)
    p = 0
    for r in range(R):
        for dst in range(R):
            if dst != r:
                key = (
                    tuple(ln.lid for ln in topology.minimal_links(r, dst)),
                    topology.route_path(r, dst)[0].lid,
                )
                route[p] = routes.setdefault(key, len(routes))
                p += 1
    links = np.full((len(routes), degree), -1, dtype=np.int32)
    escape_link = np.empty(len(routes), dtype=np.int32)
    for (lids, esc), u in routes.items():
        links[u, : len(lids)] = lids
        escape_link[u] = esc
    return links, escape_link, route
