"""Network topologies: arbitrary directed multigraphs of routers.

The paper's experiments use bidirectional tori: 8x8 for the synthetic
studies (Table 2) and 4x4 / 2x4 / 2x2 with bristling factors 1/2/4 for the
trace-driven characterization (Section 4.2.2).  A ring is the special case
``dims=(k,)`` (Figure 1).  The schemes themselves are defined per-router
and never assume a torus, so the substrate is generalized: any
:class:`Topology` subclass — grid or not — plugs into the fabric, the
vector backend and the deadlock-handling schemes, and
:mod:`repro.analysis.cdg` certifies (or refutes) the routing on it
*before* simulation.

Terminology
-----------
router
    A switching element.
node
    A network endpoint (processor + NI).  ``bristling`` nodes attach to
    each router, so ``num_nodes = num_routers * bristling``.
link
    A *unidirectional* channel between adjacent routers.  Full-duplex
    physical links are modelled as two opposite unidirectional links.
dateline
    Per dimension ring, the wrap-around edge; crossing it switches the
    escape virtual-channel class, which is what makes dimension-order
    escape routing deadlock-free on a torus (Dally & Seitz).  It is an
    attribute of the link (``crosses_dateline``), so routing needs no
    notion of a grid; topologies without wrap edges never set it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # imported where used: see core/cwg.py
    import networkx as nx


@dataclass(frozen=True)
class Link:
    """A unidirectional router-to-router channel.

    ``crosses_dateline`` marks the wrap-around hop of the ring in
    dimension ``dim`` travelling in direction ``direction`` (+1 or -1).
    Non-grid topologies use ``dim=0, direction=+1`` and never cross a
    dateline.
    """

    lid: int
    src: int
    dst: int
    dim: int
    direction: int
    crosses_dateline: bool


class Topology:
    """An arbitrary directed multigraph of routers with bristled endpoints.

    Subclasses create links in a deterministic order via :meth:`_add_link`
    (link ids are assigned in creation order); every other layer — fabric,
    schemes, vector backend, CDG analysis — depends only on this surface:

    * ``num_routers`` / ``num_nodes`` / ``bristling`` / ``ndim``
    * ``links`` plus per-router :meth:`out_links` / :meth:`in_links`
    * :meth:`router_of_node` / :meth:`nodes_of_router`
    * :meth:`min_hops` — BFS hop distances by default
    * :meth:`minimal_links` — the out-links on some shortest path, in
      out-link order (the adaptive candidates of
      :class:`~repro.network.routing.Routing`)
    * :meth:`route_path` — one deterministic src→dst path: the escape
      discipline and the progressive-recovery lane's path.  By default
      the first minimal link per hop, which on grids is dimension order
      (+1 first on a tie); irregular graphs override it with up*/down*
      tree routing, a full mesh with its direct link

    ``ndim`` sizes the dateline-crossing bitmask; it stays 1 for
    topologies without datelines, where the mask is always zero.
    """

    kind = "topology"

    def __init__(self, num_routers: int, bristling: int = 1) -> None:
        if num_routers < 1:
            raise ConfigurationError(f"invalid router count {num_routers}")
        if bristling < 1:
            raise ConfigurationError(f"invalid bristling {bristling}")
        self.num_routers = int(num_routers)
        self.bristling = int(bristling)
        self.num_nodes = self.num_routers * self.bristling
        self.ndim = 1
        self.links: list[Link] = []
        self._out_adj: list[list[Link]] = [[] for _ in range(self.num_routers)]
        self._in: list[list[Link]] = [[] for _ in range(self.num_routers)]
        self._dist: list[list[int]] | None = None
        #: (src, dst) -> route_path(src, dst), shared with every caller.
        self._paths: dict[tuple[int, int], list[Link]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_link(
        self,
        src: int,
        dst: int,
        dim: int = 0,
        direction: int = +1,
        crosses_dateline: bool = False,
    ) -> Link:
        if not (0 <= src < self.num_routers and 0 <= dst < self.num_routers):
            raise ConfigurationError(
                f"link {src}->{dst} outside routers 0..{self.num_routers - 1}"
            )
        if src == dst:
            raise ConfigurationError(f"self-loop link at router {src}")
        link = Link(len(self.links), src, dst, dim, direction, crosses_dateline)
        self.links.append(link)
        self._out_adj[src].append(link)
        self._in[dst].append(link)
        return link

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def router_of_node(self, node: int) -> int:
        return node // self.bristling

    def nodes_of_router(self, router: int) -> range:
        return range(router * self.bristling, (router + 1) * self.bristling)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def out_links(self, router: int) -> list[Link]:
        return list(self._out_adj[router])

    def in_links(self, router: int) -> list[Link]:
        return self._in[router]

    # ------------------------------------------------------------------
    # Distances and paths
    # ------------------------------------------------------------------
    def _bfs(self, src: int) -> list[int]:
        dist = [-1] * self.num_routers
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt: list[int] = []
            for r in frontier:
                d = dist[r] + 1
                for link in self._out_adj[r]:
                    if dist[link.dst] < 0:
                        dist[link.dst] = d
                        nxt.append(link.dst)
            frontier = nxt
        return dist

    def _distances(self) -> list[list[int]]:
        if self._dist is None:
            self._dist = [self._bfs(r) for r in range(self.num_routers)]
        return self._dist

    def min_hops(self, src: int, dst: int) -> int:
        hops = self._distances()[src][dst]
        if hops < 0:
            raise ConfigurationError(f"router {dst} unreachable from {src}")
        return hops

    def minimal_links(self, src: int, dst: int) -> list[Link]:
        """Out-links of ``src`` that start a shortest path to ``dst``.

        In out-link order; empty when ``src == dst``.
        """
        dist = self._distances()
        want = dist[src][dst] - 1
        return [ln for ln in self._out_adj[src] if dist[ln.dst][dst] == want]

    def route_path(self, src: int, dst: int) -> list[Link]:
        """A deterministic minimal path: first minimal out-link per hop.

        Memoized per pair (callers must not mutate the list).  Subclasses
        may override this with their escape discipline; whether it is
        deadlock-free is *checked*, not assumed — see
        :mod:`repro.analysis.cdg`.
        """
        paths = self._paths
        path = paths.get((src, dst))
        if path is None:
            # Walk to the first pair already known, then store every
            # suffix of the new path: each is the path from its router.
            hops: list[Link] = []
            cur = src
            while cur != dst and (cur, dst) not in paths:
                link = self.minimal_links(cur, dst)[0]
                hops.append(link)
                cur = link.dst
            path = paths.get((cur, dst), [])
            for link in reversed(hops):
                path = [link, *path]
                paths[(link.src, dst)] = path
        return path

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.MultiDiGraph:
        """Router graph with one edge per unidirectional link."""
        import networkx as nx

        g = nx.MultiDiGraph()
        g.add_nodes_from(range(self.num_routers))
        for link in self.links:
            g.add_edge(link.src, link.dst, lid=link.lid, dim=link.dim)
        return g

    def uniform_capacity(self) -> float:
        """Ideal uniform-random throughput bound, flits/node/cycle."""
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        b = f", bristling={self.bristling}" if self.bristling > 1 else ""
        return f"{type(self).__name__}({self.num_routers} routers{b})"


class GridTopology(Topology):
    """Shared machinery for row-major coordinate grids (torus, mesh).

    Adds :meth:`coords` / :meth:`router_id` / :meth:`out_link` (by
    ``(dim, direction)``) and :meth:`productive_directions`, which
    answers :meth:`minimal_links` from coordinates instead of BFS.
    Links are created dimension by dimension, +1 before -1, so the
    inherited :meth:`route_path` (first minimal link per hop) is
    dimension-order routing.
    """

    def __init__(self, dims: tuple[int, ...], bristling: int = 1) -> None:
        if not dims or any(k < 1 for k in dims):
            raise ConfigurationError(f"invalid dims {dims!r}")
        dims = tuple(int(k) for k in dims)
        super().__init__(math.prod(dims), bristling)
        self.dims = dims
        self.ndim = len(self.dims)

        # Strides for row-major coordinate packing.
        self._strides = [1] * self.ndim
        for d in range(self.ndim - 2, -1, -1):
            self._strides[d] = self._strides[d + 1] * self.dims[d + 1]

        # out_links[r][ (dim, dir) ] -> Link ; flattened for speed as dict
        self._out: list[dict[tuple[int, int], Link]] = [
            {} for _ in range(self.num_routers)
        ]
        self._build_links()

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coords(self, router: int) -> tuple[int, ...]:
        """Row-major coordinates of a router id."""
        out = []
        for d in range(self.ndim):
            out.append((router // self._strides[d]) % self.dims[d])
        return tuple(out)

    def router_id(self, coords: tuple[int, ...]) -> int:
        return sum(
            (c % k) * s for c, k, s in zip(coords, self.dims, self._strides)
        )

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def _build_links(self) -> None:
        raise NotImplementedError

    def _add_grid_link(
        self, src: int, dst: int, dim: int, direction: int, crosses: bool = False
    ) -> Link:
        link = self._add_link(src, dst, dim, direction, crosses)
        self._out[src][(dim, direction)] = link
        return link

    def out_link(self, router: int, dim: int, direction: int) -> Link:
        return self._out[router][(dim, direction)]

    # ------------------------------------------------------------------
    # Minimal routing helpers
    # ------------------------------------------------------------------
    def productive_directions(
        self, src: int, dst: int
    ) -> list[tuple[int, int, int]]:
        """Minimal-progress ``(dim, direction, remaining_hops)`` choices,
        dimension ascending, +1 before -1."""
        raise NotImplementedError

    def minimal_links(self, src: int, dst: int) -> list[Link]:
        out = self._out[src]
        return [
            out[(dim, direction)]
            for dim, direction, _ in self.productive_directions(src, dst)
        ]


class Torus(GridTopology):
    """A k-ary n-cube torus with optional bristling.

    Parameters
    ----------
    dims:
        Radix per dimension, e.g. ``(8, 8)`` for an 8x8 torus or ``(4,)``
        for a 4-node ring.
    bristling:
        Number of endpoint nodes sharing each router (Table 2's
        "bristling factor").
    """

    kind = "torus"

    def _build_links(self) -> None:
        for r in range(self.num_routers):
            c = self.coords(r)
            for d in range(self.ndim):
                k = self.dims[d]
                if k < 2:
                    continue
                for direction in (+1, -1):
                    # k == 2 still gets distinct +1/-1 links (two parallel
                    # physical channels), matching a true torus wiring.
                    nc = list(c)
                    nc[d] = (c[d] + direction) % k
                    dst = self.router_id(tuple(nc))
                    crosses = (direction == +1 and c[d] == k - 1) or (
                        direction == -1 and c[d] == 0
                    )
                    self._add_grid_link(r, dst, d, direction, crosses)

    def productive_directions(
        self, src: int, dst: int
    ) -> list[tuple[int, int, int]]:
        """Minimal-progress ``(dim, direction, remaining_hops)`` choices.

        When the two minimal directions tie (``delta == k/2``), both are
        returned, giving adaptive routers the full minimal set; the
        deterministic dimension-order router picks the first (+1).
        """
        a, b = self.coords(src), self.coords(dst)
        out: list[tuple[int, int, int]] = []
        for d in range(self.ndim):
            k = self.dims[d]
            delta = (b[d] - a[d]) % k
            if delta == 0:
                continue
            if 2 * delta < k:
                out.append((d, +1, delta))
            elif 2 * delta > k:
                out.append((d, -1, k - delta))
            else:  # tie: both directions are minimal
                out.append((d, +1, delta))
                out.append((d, -1, delta))
        return out

    def min_hops(self, src: int, dst: int) -> int:
        a, b = self.coords(src), self.coords(dst)
        total = 0
        for d in range(self.ndim):
            k = self.dims[d]
            delta = (b[d] - a[d]) % k
            total += min(delta, k - delta)
        return total

    def bisection_channels(self) -> int:
        """Unidirectional channels crossing a balanced bisection (per direction).

        Splits along the largest even dimension; each row of that dimension
        contributes two rings-worth of crossing channels.
        """
        best = max(self.dims)
        rows = self.num_routers // best
        return 2 * rows  # two crossing links per row-ring, one direction

    def uniform_capacity(self) -> float:
        """Ideal uniform-random throughput bound, flits/node/cycle.

        Bisection argument: half the nodes inject ``lambda`` of which half
        crosses the cut, bounded by the crossing channel bandwidth; also
        bounded by the single injection port per node.
        """
        if all(k == 1 for k in self.dims):
            return 1.0
        cross = self.bisection_channels()
        cap = 4.0 * cross / self.num_nodes
        return min(1.0, cap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(k) for k in self.dims)
        b = f", bristling={self.bristling}" if self.bristling > 1 else ""
        return f"Torus({dims}{b})"


class Mesh2D(GridTopology):
    """An open (non-wrapping) 2D mesh.

    With no wrap edges there are no ring dependencies, so XY
    dimension-order routing is deadlock-free *without* dateline VC
    classes — the topology-level discipline behind the OQ/VOQ
    switch-level avoidance of Papaphilippou & Chu (PAPERS.md).
    ``crosses_dateline`` is always False here, so escape traffic stays
    in dateline class 0 everywhere.
    """

    kind = "mesh2d"

    def __init__(self, dims: tuple[int, ...], bristling: int = 1) -> None:
        if len(dims) != 2:
            raise ConfigurationError(
                f"Mesh2D needs exactly two dims, got {dims!r}"
            )
        super().__init__(dims, bristling)

    def _build_links(self) -> None:
        for r in range(self.num_routers):
            c = self.coords(r)
            for d in range(self.ndim):
                for direction in (+1, -1):
                    n = c[d] + direction
                    if 0 <= n < self.dims[d]:
                        nc = list(c)
                        nc[d] = n
                        self._add_grid_link(
                            r, self.router_id(tuple(nc)), d, direction
                        )

    def productive_directions(
        self, src: int, dst: int
    ) -> list[tuple[int, int, int]]:
        a, b = self.coords(src), self.coords(dst)
        out: list[tuple[int, int, int]] = []
        for d in range(self.ndim):
            delta = b[d] - a[d]
            if delta > 0:
                out.append((d, +1, delta))
            elif delta < 0:
                out.append((d, -1, -delta))
        return out

    def min_hops(self, src: int, dst: int) -> int:
        a, b = self.coords(src), self.coords(dst)
        return sum(abs(x - y) for x, y in zip(a, b))

    def uniform_capacity(self) -> float:
        """Bisection bound as for the torus, but without wrap channels."""
        best = max(self.dims)
        if best < 2:
            return 1.0
        rows = self.num_routers // best
        return min(1.0, 2.0 * rows / self.num_nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(k) for k in self.dims)
        b = f", bristling={self.bristling}" if self.bristling > 1 else ""
        return f"Mesh2D({dims}{b})"


class FullMesh(Topology):
    """Every router pair joined by a dedicated unidirectional link.

    The Cano et al. (HOTI'25) setting: all routing is single-hop, so a
    packet never holds one router-to-router channel while requesting
    another — the channel-dependency graph has no edges at all and
    direct routing is deadlock-free with zero dedicated escape VCs
    (``repro cdg-check`` certifies the pair trivially).
    """

    kind = "fullmesh"

    def __init__(self, num_routers: int, bristling: int = 1) -> None:
        super().__init__(num_routers, bristling)
        self._direct: dict[tuple[int, int], Link] = {}
        for src in range(self.num_routers):
            for dst in range(self.num_routers):
                if dst != src:
                    self._direct[(src, dst)] = self._add_link(src, dst)

    def direct_link(self, src: int, dst: int) -> Link:
        return self._direct[(src, dst)]

    def min_hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def route_path(self, src: int, dst: int) -> list[Link]:
        return [] if src == dst else [self._direct[(src, dst)]]


class IrregularGraph(Topology):
    """An arbitrary connected topology given as an undirected edge list.

    Each undirected edge becomes two opposite unidirectional links
    (full-duplex, like the torus wiring); parallel edges are allowed.
    The escape discipline is up*/down* tree routing: :meth:`route_path`
    climbs the BFS spanning tree rooted at router 0 to the lowest common
    ancestor, then descends.  Up-channels ordered by depth before
    down-channels gives an acyclic escape dependency graph — which
    :mod:`repro.analysis.cdg` certifies rather than assumes.
    """

    kind = "irregular"

    def __init__(
        self,
        num_routers: int,
        edges: list[tuple[int, int]] | list[list[int]],
        bristling: int = 1,
        name: str = "irregular",
    ) -> None:
        super().__init__(num_routers, bristling)
        self.name = name
        pairs = [(int(a), int(b)) for a, b in edges]
        if self.num_routers > 1 and not pairs:
            raise ConfigurationError("irregular graph needs at least one edge")
        self.edges: tuple[tuple[int, int], ...] = tuple(pairs)
        #: first link for each ordered (src, dst) neighbour pair.
        self._forward: dict[tuple[int, int], Link] = {}
        for a, b in pairs:
            fwd = self._add_link(a, b)
            rev = self._add_link(b, a)
            self._forward.setdefault((a, b), fwd)
            self._forward.setdefault((b, a), rev)
        unreachable = [r for r, d in enumerate(self._bfs(0)) if d < 0]
        if unreachable:
            raise ConfigurationError(
                f"routers {unreachable} unreachable from router 0"
            )
        self._build_tree()

    def _build_tree(self) -> None:
        """BFS spanning tree from router 0, deterministic by link order."""
        n = self.num_routers
        self._parent = [-1] * n
        self._depth = [0] * n
        seen = [False] * n
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt: list[int] = []
            for r in frontier:
                for link in self._out_adj[r]:
                    if not seen[link.dst]:
                        seen[link.dst] = True
                        self._parent[link.dst] = r
                        self._depth[link.dst] = self._depth[r] + 1
                        nxt.append(link.dst)
            frontier = nxt

    def _ancestors(self, router: int) -> list[int]:
        """The chain router, parent, ..., root (inclusive)."""
        chain = [router]
        while self._parent[chain[-1]] >= 0:
            chain.append(self._parent[chain[-1]])
        return chain

    def route_path(self, src: int, dst: int) -> list[Link]:
        """Up the spanning tree to the LCA of (src, dst), then down."""
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            down_chain = self._ancestors(dst)
            on_dst_chain = set(down_chain)
            path = []
            cur = src
            while cur not in on_dst_chain:  # climb to the LCA
                parent = self._parent[cur]
                path.append(self._forward[(cur, parent)])
                cur = parent
            # descend: dst's chain from the LCA down to dst
            for child in reversed(down_chain[: down_chain.index(cur)]):
                path.append(self._forward[(cur, child)])
                cur = child
            self._paths[key] = path
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        b = f", bristling={self.bristling}" if self.bristling > 1 else ""
        return f"IrregularGraph({self.name}: {self.num_routers} routers{b})"


def ring(k: int, bristling: int = 1) -> Torus:
    """A k-node bidirectional ring (the Figure 1 example topology)."""
    return Torus((k,), bristling=bristling)


def irregular_example(bristling: int = 1) -> IrregularGraph:
    """The 9-router irregular example used by tests, CI and experiments.

    Deliberately non-symmetric: a 4-cycle core, a bristled side ring and
    a pendant chain, joined by cross links, so minimal paths are neither
    unique nor tree paths and the CDG checker has real work to do.
    """
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0),      # core cycle
        (1, 4), (4, 5), (5, 2),              # side ring re-entering the core
        (4, 6), (6, 7), (7, 8), (8, 4),      # pendant ring
        (3, 6),                              # cross link
    ]
    return IrregularGraph(9, edges, bristling=bristling, name="irregular9")


def fat_tree(
    dims: tuple[int, ...] = (4, 4),
    bristling: int = 1,
    max_fatness: int = 4,
) -> IrregularGraph:
    """A Leiserson-style fat tree built on :class:`IrregularGraph`.

    ``dims`` gives the down-arity per level, root first: ``(4, 4)`` is a
    root with 4 aggregation switches of 4 leaves each (21 routers).
    Link capacity grows toward the root by *parallel* undirected edges:
    the trunk between a switch and its parent carries as many parallel
    channels as the switch has leaf descendants, capped at
    ``max_fatness``.  The up*/down* escape discipline uses the first
    parallel link per trunk (the BFS spanning tree from the root is the
    tree itself); the extra parallel links are adaptive candidates for
    routings that allow them (PR's true fully adaptive routing), which
    is where the fatness pays off under load.

    Router ids are assigned in BFS order (root 0, then level by level),
    so sweep targets near id 0 sit at the bandwidth bottleneck.
    """
    if not dims or any(k < 1 for k in dims):
        raise ConfigurationError(f"invalid fat-tree arities {dims!r}")
    if max_fatness < 1:
        raise ConfigurationError("max_fatness must be positive")
    dims = tuple(int(k) for k in dims)
    edges: list[tuple[int, int]] = []
    level = [0]
    next_id = 1
    for depth, arity in enumerate(dims):
        below = math.prod(dims[depth + 1:])
        fatness = min(max_fatness, below)
        nxt: list[int] = []
        for parent in level:
            for _ in range(arity):
                child = next_id
                next_id += 1
                nxt.append(child)
                edges.extend([(parent, child)] * fatness)
        level = nxt
    label = "x".join(str(k) for k in dims)
    return IrregularGraph(
        next_id, edges, bristling=bristling, name=f"fattree{label}"
    )


def load_topology(path: str | Path, bristling: int | None = None) -> IrregularGraph:
    """Load an :class:`IrregularGraph` from a JSON file.

    Format::

        {"name": "cluster9", "routers": 9, "bristling": 1,
         "links": [[0, 1], [1, 2], ...]}

    ``links`` entries are undirected edges, each expanded to two opposite
    unidirectional links.  A ``bristling`` argument overrides the file's.
    """
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot load topology file {path}: {exc}"
        ) from exc
    if not isinstance(data, dict) or "routers" not in data or "links" not in data:
        raise ConfigurationError(
            f"topology file {path} must be an object with 'routers' and 'links'"
        )
    b = bristling if bristling is not None else int(data.get("bristling", 1))
    return IrregularGraph(
        int(data["routers"]),
        data["links"],
        bristling=b,
        name=str(data.get("name", Path(path).stem)),
    )


#: Values accepted by SimConfig.topology / ``--topology``.
TOPOLOGY_KINDS = (
    "torus", "mesh2d", "fullmesh", "irregular", "fat_tree", "file"
)


def build_topology(
    kind: str,
    dims: tuple[int, ...] = (8, 8),
    bristling: int = 1,
    file: str | None = None,
) -> Topology:
    """Build a topology from :class:`~repro.config.SimConfig`-style knobs.

    ``dims`` keeps its torus meaning for grids; for ``fullmesh`` the
    router count is ``prod(dims)`` so existing sweep axes keep working.
    ``irregular`` is the built-in :func:`irregular_example`; ``file``
    loads :func:`load_topology` from ``file``.
    """
    if kind == "torus":
        return Torus(dims, bristling=bristling)
    if kind == "mesh2d":
        return Mesh2D(dims, bristling=bristling)
    if kind == "fullmesh":
        return FullMesh(math.prod(dims), bristling=bristling)
    if kind == "irregular":
        return irregular_example(bristling=bristling)
    if kind == "fat_tree":
        return fat_tree(dims, bristling=bristling)
    if kind == "file":
        if not file:
            raise ConfigurationError(
                "topology 'file' needs a topology_file path"
            )
        return load_topology(file, bristling=bristling)
    raise ConfigurationError(
        f"unknown topology {kind!r}; choices: {TOPOLOGY_KINDS}"
    )
