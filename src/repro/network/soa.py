"""Struct-of-arrays export of topology and channel structure.

The vector backend (:mod:`repro.sim.vector`) keeps all fabric state in
flat numpy arrays and advances it with a compiled kernel; this module is
the bridge from the object world.  :class:`TopologySoA` flattens any
:class:`~repro.network.topology.Topology` — link endpoints, dimensions,
dateline flags, node-to-router map — and :func:`build_route_table`
precomputes every routing-memo row in terms of *virtual-channel ids*
(``lid * num_vcs + index``) instead of ``VirtualChannel`` objects, so
the kernel's allocation scan can consult a candidate table and still
make exactly the choices the reference engine makes.  The table is
assembled with array operations from per-pair hop links (broadcast from
per-dimension samples of ``productive_directions`` on grids, read from
the topology's ``minimal_links`` and ``route_path`` elsewhere); its
contract — checked key by key in ``tests/test_route_table.py`` — is that
every key resolves to :meth:`Routing.static_candidate_ids
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
    ``(((router * R + dst_router) * classes + vc_class) << ndim) | mask``
    and holds a row number (-1 on the diagonal, which is never routed);
    ``rows`` is the flat ``row * stride`` buffer of
    ``[count, escape_id, candidate ids...]``.  Every off-diagonal key
    resolves to exactly ``routing.static_candidate_ids(router,
    dst_router, vc_class, mask)``.  Filling the table at fabric
    construction means the kernel's allocation phase never misses: the
    key space keeps producing fresh (position, destination, dateline)
    combinations for tens of thousands of cycles.

    Each distinct row is stored once.  A row depends on the mask only
    through the escape channel's dateline class, so there are two rows
    per (router, destination, class) and ``rk_idx`` picks between them.
    """
    topology = soa.topology
    R = topology.num_routers
    # Hop-link columns: one per out-link of the busiest router, the same
    # bound ``Routing.max_static_candidates`` sizes ``stride`` by.
    degree = int(np.bincount(soa.link_src, minlength=R).max())
    if isinstance(topology, GridTopology):
        links = _grid_hop_links(topology, degree)
        escape_link = links[:, 0]  # route_path: first minimal link
    else:
        links, escape_link = _graph_hop_links(topology, degree)
    vc_map = routing.vc_map
    num_vcs = soa.num_vcs
    ndim = topology.ndim
    vcls = vc_map.num_classes
    P = links.shape[0]  # off-diagonal (router, destination) pairs

    # One row per dateline class of the escape channel.
    rows = np.zeros((max(P, 1), vcls, 2, stride), dtype=np.int32)
    valid = links >= 0
    n_links = valid.sum(axis=1, dtype=np.int32)
    for cls in range(vcls):
        block = rows[:P, cls]  # (P, 2, stride) view
        idx = np.array(
            vc_map.adaptive[cls] if routing.adaptive else (), dtype=np.int32
        )
        m = len(idx)
        block[:, :, 0] = (n_links * m)[:, None]
        if m:
            # Candidate order: hop links in order x the class's adaptive
            # VC indices in order.
            for s in range(links.shape[1]):
                ids = np.where(
                    valid[:, s, None], links[:, s, None] * num_vcs + idx, 0
                )
                block[:, :, 2 + s * m : 2 + (s + 1) * m] = ids[:, None, :]
        pair = vc_map.escape[cls]
        if pair is None:
            block[:, :, 1] = -1
        else:
            for cls1 in (0, 1):
                block[:, cls1, 1] = escape_link * num_vcs + pair[cls1]

    row0 = (
        np.arange(P, dtype=np.int32)[:, None] * vcls
        + np.arange(vcls, dtype=np.int32)
    ) * 2
    # Dateline class 1 when the escape hop crosses the dateline or the
    # packet already did in that dimension (the mask bit).
    masks = np.arange(1 << ndim, dtype=np.int32)
    row_of_mask = soa.link_dateline[escape_link][:, None] | (
        (masks >> soa.link_dim[escape_link][:, None]) & 1
    )
    rk_idx = np.full((R * R, vcls << ndim), -1, dtype=np.int32)
    rk_idx[~np.eye(R, dtype=bool).ravel()] = (
        row0[:, :, None] + row_of_mask[:, None, :]
    ).reshape(P, -1)
    return rk_idx.reshape(-1), rows.reshape(-1)


def _grid_hop_links(topology: GridTopology, degree: int) -> np.ndarray:
    """``minimal_links`` ids per off-diagonal (router, destination).

    ``(R * (R - 1), degree)`` in ``productive_directions`` order
    (dimension ascending, +1 before -1), left-packed and -1 padded.  The
    minimal-direction rule (ties included) is sampled from the topology
    along one axis line per dimension — it is separable by dimension
    and depends only on the two coordinates — then broadcast to every
    pair, so it is stated in :mod:`repro.network.topology` only.
    """
    R = topology.num_routers
    ndim = topology.ndim
    out_lid = np.full((R, 2 * ndim), -1, dtype=np.int32)
    for ln in topology.links:
        out_lid[ln.src, 2 * ln.dim + (ln.direction < 0)] = ln.lid
    coords = np.array([topology.coords(r) for r in range(R)])
    off = ~np.eye(R, dtype=bool)
    src = np.nonzero(off)[0]
    links = np.full((len(src), degree), -1, dtype=np.int32)
    filled = np.zeros(len(src), dtype=np.intp)
    origin = [0] * ndim
    for d, k in enumerate(topology.dims):
        line = [
            topology.router_id(origin[:d] + [a] + origin[d + 1 :])
            for a in range(k)
        ]
        productive = np.zeros((2, k, k), dtype=bool)
        for a in range(k):
            for b in range(k):
                for _, direction, _ in topology.productive_directions(
                    line[a], line[b]
                ):
                    productive[int(direction < 0), a, b] = True
        c = coords[:, d]
        for minus in (0, 1):
            sel = np.flatnonzero(productive[minus][c[:, None], c][off])
            links[sel, filled[sel]] = out_lid[src[sel], 2 * d + minus]
            filled[sel] += 1
    return links


def _graph_hop_links(
    topology: Topology, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """``minimal_links`` and ``route_path``'s first hop per off-diagonal
    pair, as link ids.

    The escape hop is whatever the topology's ``route_path`` discipline
    says, pair by pair, so this stage stays one Python call per pair;
    the substrates routed this way have tens of routers.
    """
    R = topology.num_routers
    links = np.full((R * (R - 1), degree), -1, dtype=np.int32)
    escape_link = np.empty(R * (R - 1), dtype=np.int32)
    p = 0
    for r in range(R):
        for dst in range(R):
            if dst != r:
                minimal = topology.minimal_links(r, dst)
                links[p, : len(minimal)] = [ln.lid for ln in minimal]
                escape_link[p] = topology.route_path(r, dst)[0].lid
                p += 1
    return links, escape_link
