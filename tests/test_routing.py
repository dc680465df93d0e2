"""Tests for VC maps and routing functions, incl. escape acyclicity."""

import networkx as nx
import pytest

from repro.network.routing import (
    Routing,
    dimension_order_routing,
    duato_routing,
    duato_vc_map,
    full_mesh_routing,
    partitioned_vc_map,
    tfar_vc_map,
    true_fully_adaptive_routing,
)
from repro.network.topology import (
    FullMesh,
    Mesh2D,
    Torus,
    fat_tree,
    irregular_example,
    ring,
)
from repro.protocol.chains import GENERIC_MSI
from repro.protocol.message import Message
from repro.util.errors import ConfigurationError

M1 = GENERIC_MSI.type_named("m1")


class TestVcMapPartitioning:
    def test_sa_16vc_4types_split_availability(self):
        # Paper: "three of the sixteen virtual channels are available for
        # routing of each message type for SA" (Figure 10 discussion).
        m = partitioned_vc_map(16, 4, shared_extras=False)
        assert all(m.availability(c) == 3 for c in range(4))

    def test_sa_16vc_4types_shared_availability(self):
        # "...or nine [21]".
        m = partitioned_vc_map(16, 4, shared_extras=True)
        assert all(m.availability(c) == 9 for c in range(4))

    def test_dr_16vc_availability(self):
        # "...seven (or 13 [21]) are available for DR".
        assert all(partitioned_vc_map(16, 2).availability(c) == 7 for c in (0, 1))
        m = partitioned_vc_map(16, 2, shared_extras=True)
        assert all(m.availability(c) == 13 for c in (0, 1))

    def test_sa_8vc_pat100_availability(self):
        # "three of the eight virtual channels ... for PAT100" (Fig 9).
        assert partitioned_vc_map(8, 2).availability(0) == 3

    def test_minimum_channels_enforced(self):
        # SA with chain length 4 needs E_m = 8 channels.
        with pytest.raises(ConfigurationError):
            partitioned_vc_map(4, 4)

    def test_exact_minimum_is_escape_only(self):
        m = partitioned_vc_map(8, 4)
        assert all(m.adaptive[c] == () for c in range(4))
        assert all(m.availability(c) == 1 for c in range(4))

    def test_partitions_disjoint_when_split(self):
        m = partitioned_vc_map(12, 3)
        seen = set()
        for cls in range(3):
            vcs = set(m.escape[cls]) | set(m.adaptive[cls])
            assert not (vcs & seen)
            seen |= vcs
        assert seen == set(range(12))

    def test_shared_extras_shared_by_all(self):
        m = partitioned_vc_map(10, 2, shared_extras=True)
        assert m.adaptive[0] == m.adaptive[1] == tuple(range(4, 10))

    def test_tfar_all_adaptive(self):
        m = tfar_vc_map(4)
        assert m.escape == (None,)
        assert m.adaptive[0] == (0, 1, 2, 3)
        assert m.availability(0) == 4



def _escape_cdg(topology: Torus) -> nx.DiGraph:
    """Channel dependency graph of the escape (DOR + dateline) function.

    Nodes are (link id, escape class); edges connect consecutive escape
    hops of every (src, dst) dimension-order path.  Acyclicity of this
    graph is the Dally-Seitz condition for routing deadlock freedom.
    """
    g = nx.DiGraph()
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            if src == dst:
                continue
            crossed = 0
            prev = None
            for link in topology.route_path(src, dst):
                cls = 1 if (link.crosses_dateline or (crossed >> link.dim) & 1) else 0
                if link.crosses_dateline:
                    crossed |= 1 << link.dim
                node = (link.lid, cls)
                g.add_node(node)
                if prev is not None:
                    g.add_edge(prev, node)
                prev = node
    return g


class TestEscapeAcyclicity:
    @pytest.mark.parametrize("dims", [(4,), (5,), (8,), (4, 4), (3, 5), (2, 2, 2)])
    def test_dor_dateline_escape_is_acyclic(self, dims):
        g = _escape_cdg(Torus(dims))
        assert nx.is_directed_acyclic_graph(g)


class _FakeFabricVcs:
    """Minimal link_vcs binding for routing-function unit tests."""

    def __init__(self, topology, num_vcs, depth=2):
        from repro.network.channel import VirtualChannel

        self.link_vcs = [
            [VirtualChannel(link, i, depth) for i in range(num_vcs)]
            for link in topology.links
        ]


class TestRoutingFunctions:
    def _setup(self, dims=(4, 4), num_vcs=4, kind="duato"):
        topo = Torus(dims)
        if kind == "duato":
            rf = duato_routing(topo, duato_vc_map(num_vcs))
        elif kind == "dor":
            rf = dimension_order_routing(topo, partitioned_vc_map(num_vcs, num_vcs // 2))
        else:
            rf = true_fully_adaptive_routing(topo, tfar_vc_map(num_vcs))
        fake = _FakeFabricVcs(topo, num_vcs)
        rf.bind(fake.link_vcs)
        return topo, rf

    def test_dor_single_candidate(self):
        topo = Torus((4, 4))
        rf = dimension_order_routing(topo, partitioned_vc_map(4, 2))
        rf.bind(_FakeFabricVcs(topo, 4).link_vcs)
        msg = Message(M1, 0, 5)
        msg.vc_class = 0
        cands = rf.candidates(0, topo.router_id((2, 1)), msg)
        assert len(cands) == 1
        assert cands[0].link.dim == 0  # lowest dimension first

    def test_dor_requires_escape(self):
        topo = Torus((4, 4))
        with pytest.raises(ConfigurationError):
            dimension_order_routing(topo, tfar_vc_map(4))

    def test_duato_offers_adaptive_then_escape(self):
        topo, rf = self._setup()
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        dst = topo.router_id((1, 1))
        cands = rf.candidates(0, dst, msg)
        # 2 productive links x 2 adaptive VCs + 1 escape.
        assert len(cands) == 5
        esc = cands[-1]
        assert esc.index in (0, 1)

    def test_adaptive_candidates_exclude_owned(self):
        topo, rf = self._setup()
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        dst = topo.router_id((2, 2))
        *adaptive, esc = rf.candidates(0, dst, msg)
        assert adaptive
        for vc in adaptive:
            vc.owner = msg  # occupy all
        assert rf.candidates(0, dst, msg) == [esc]

    def test_escape_class_flips_after_dateline(self):
        topo = ring(4)
        rf = dimension_order_routing(topo, partitioned_vc_map(2, 1))
        rf.bind(_FakeFabricVcs(topo, 2).link_vcs)
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        # Router 3 -> 0 crosses the dateline: class 1.
        (vc,) = rf.candidates(3, 0, msg)
        assert vc.index == 1
        # Plain hop 1 -> 2: class 0.
        (vc,) = rf.candidates(1, 2, msg)
        assert vc.index == 0
        # After a previous crossing the class stays 1.
        msg.crossed_mask = 1
        (vc,) = rf.candidates(1, 2, msg)
        assert vc.index == 1
        assert rf.static_candidate_ids(1, 2, 0, 1) == ((), vc.link.lid * 2 + 1)

    def test_tfar_has_no_escape(self):
        topo, rf = self._setup(kind="tfar")
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        assert rf.static_candidate_ids(0, 5, 0, 0)[1] == -1
        cands = rf.candidates(0, topo.router_id((1, 1)), msg)
        # 2 productive links x 4 VCs, every one a free adaptive channel.
        assert len(cands) == 8
        assert all(vc.owner is None for vc in cands)

    def test_candidates_sorted_by_occupancy(self):
        topo, rf = self._setup()
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        dst = topo.router_id((2, 2))
        *adaptive, esc = rf.candidates(0, dst, msg)
        adaptive[0].fifo.append((0, 0))  # make the first one fuller
        *re_sorted, esc_again = rf.candidates(0, dst, msg)
        # Emptiest first, stable otherwise; the escape stays last.
        assert re_sorted == adaptive[1:] + adaptive[:1]
        assert esc_again is esc


class TestTableRouting:
    """Off the grid: minimal links plus the topology's route_path escape."""

    def _bound(self, topology, routing, num_vcs):
        routing.bind(_FakeFabricVcs(topology, num_vcs).link_vcs)
        return routing

    def test_factories_dispatch_on_topology(self):
        grid = duato_routing(Torus((4, 4)), duato_vc_map(4))
        assert isinstance(grid, Routing)
        assert (grid.name, grid.adaptive) == ("duato", True)
        dor = dimension_order_routing(Mesh2D((4, 4)), duato_vc_map(4))
        assert (dor.name, dor.adaptive) == ("dor", False)
        fm = FullMesh(4)
        tfar = true_fully_adaptive_routing(fm, tfar_vc_map(2))
        assert (tfar.name, tfar.adaptive) == ("tfar", True)
        cano = full_mesh_routing(fm)
        assert cano.name == "cano-direct"
        # Adaptivity over an up*/down* escape is refuted by cdg-check
        # (irregular9-adaptive-tree), so the factory disables it.
        updown = duato_routing(irregular_example(), partitioned_vc_map(4, 1))
        assert updown.name == "updown"
        assert updown.adaptive is False

    def test_dor_requires_escape_off_grid(self):
        with pytest.raises(ConfigurationError):
            dimension_order_routing(irregular_example(), tfar_vc_map(4))

    def test_fullmesh_candidates_are_the_direct_link(self):
        topo = FullMesh(4)
        rt = self._bound(topo, full_mesh_routing(topo), 1)
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        cands = rt.candidates(0, 3, msg)
        # VC-free direct routing: one adaptive VC on the direct link.
        assert [vc.link for vc in cands] == [topo.direct_link(0, 3)]

    def test_updown_escape_follows_the_tree(self):
        topo = irregular_example()
        rt = self._bound(
            topo, duato_routing(topo, partitioned_vc_map(4, 1)), 4
        )
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        for src in range(topo.num_routers):
            for dst in range(topo.num_routers):
                if src == dst:
                    continue
                # Escape-only routing: the escape is the whole menu.
                (esc,) = rt.candidates(src, dst, msg)
                assert esc.link == topo.route_path(src, dst)[0]
                # No datelines off the grid: always class-0 of the pair.
                assert esc.index == rt.vc_map.escape[0][0]

    def test_adaptive_table_offers_minimal_links_then_escape(self):
        topo = irregular_example()
        rt = self._bound(
            topo,
            Routing(topo, partitioned_vc_map(4, 1), adaptive=True,
                    name="adaptive+updown"),
            4,
        )
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        src, dst = 0, 5
        cands = rt.candidates(src, dst, msg)
        want = topo.min_hops(src, dst) - 1
        for vc in cands[:-1]:
            assert topo.min_hops(vc.link.dst, dst) == want
        esc = cands[-1]
        assert esc.link == topo.route_path(src, dst)[0]
        assert esc.index == rt.vc_map.escape[0][0]

    def test_escape_appended_even_when_occupied(self):
        topo = irregular_example()
        rt = self._bound(
            topo, duato_routing(topo, partitioned_vc_map(4, 1)), 4
        )
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        (esc,) = rt.candidates(2, 7, msg)
        esc.owner = Message(M1, 1, 2)
        assert rt.candidates(2, 7, msg) == [esc]

    def test_static_candidate_ids_match_dynamic_menu(self):
        topo = irregular_example()
        num_vcs = 4
        rt = self._bound(
            topo,
            Routing(topo, partitioned_vc_map(num_vcs, 1), adaptive=True,
                    name="adaptive+updown"),
            num_vcs,
        )
        msg = Message(M1, 0, 0)
        msg.vc_class = 0
        maxcand = rt.max_static_candidates()
        for src in range(topo.num_routers):
            for dst in range(topo.num_routers):
                if src == dst:
                    continue
                adaptive, esc = rt.static_candidate_ids(src, dst, 0, 0)
                assert len(adaptive) <= maxcand
                cands = rt.candidates(src, dst, msg)
                ids = [vc.link.lid * num_vcs + vc.index for vc in cands]
                assert sorted(ids[:-1]) == sorted(adaptive)
                assert ids[-1] == esc


@pytest.mark.parametrize("topo", [
    ring(4), Torus((4, 4)), Torus((2, 4)), Torus((5, 3)), Mesh2D((4, 3)),
    FullMesh(5), irregular_example(), fat_tree((2, 3)),
], ids=repr)
def test_escape_hop_is_the_first_link_of_route_path(topo):
    """One definition of the deterministic path: the escape channel and
    ``route_path`` (the PR recovery lane's path) agree on every pair,
    direction ties on even rings included."""
    num_vcs = 2
    rt = dimension_order_routing(topo, partitioned_vc_map(num_vcs, 1))
    rt.bind(_FakeFabricVcs(topo, num_vcs).link_vcs)
    msg = Message(M1, 0, 0)
    msg.vc_class = 0
    for src in range(topo.num_routers):
        for dst in range(topo.num_routers):
            if src == dst:
                continue
            first = topo.route_path(src, dst)[0]
            _, esc = rt.static_candidate_ids(src, dst, 0, 0)
            assert esc // num_vcs == first.lid, (src, dst)
            (vc,) = rt.candidates(src, dst, msg)
            assert vc.link is first
