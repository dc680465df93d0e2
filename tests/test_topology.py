"""Unit tests for the topology substrate (grids, meshes, irregular)."""

import json

import networkx as nx
import pytest

from repro.network.topology import (
    TOPOLOGY_KINDS,
    FullMesh,
    IrregularGraph,
    Mesh2D,
    Topology,
    Torus,
    build_topology,
    fat_tree,
    irregular_example,
    load_topology,
    ring,
)
from repro.util.errors import ConfigurationError


class TestConstruction:
    def test_router_and_node_counts(self):
        t = Torus((8, 8))
        assert t.num_routers == 64
        assert t.num_nodes == 64

    def test_bristling_multiplies_nodes(self):
        t = Torus((2, 4), bristling=2)
        assert t.num_routers == 8
        assert t.num_nodes == 16

    def test_link_count_2d(self):
        t = Torus((4, 4))
        # 2 dims x 2 directions x 16 routers unidirectional links.
        assert len(t.links) == 4 * 16

    def test_link_count_ring(self):
        t = ring(6)
        assert len(t.links) == 12  # 6 routers x 2 directions

    def test_degenerate_dimension_has_no_links(self):
        t = Torus((1,))
        assert len(t.links) == 0

    def test_k2_has_parallel_links(self):
        t = Torus((2,))
        # Both +1 and -1 links exist between the two routers.
        assert len(t.links) == 4
        assert {(k.src, k.dst) for k in t.links} == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("bad", [(), (0,), (4, -1)])
    def test_invalid_dims_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Torus(bad)

    def test_invalid_bristling_rejected(self):
        with pytest.raises(ConfigurationError):
            Torus((4,), bristling=0)


class TestCoordinates:
    def test_roundtrip_all_routers(self):
        t = Torus((3, 4, 5))
        for r in range(t.num_routers):
            assert t.router_id(t.coords(r)) == r

    def test_coords_row_major(self):
        t = Torus((2, 3))
        assert t.coords(0) == (0, 0)
        assert t.coords(1) == (0, 1)
        assert t.coords(3) == (1, 0)

    def test_router_of_node_with_bristling(self):
        t = Torus((2, 2), bristling=4)
        assert t.router_of_node(0) == 0
        assert t.router_of_node(3) == 0
        assert t.router_of_node(4) == 1
        assert list(t.nodes_of_router(1)) == [4, 5, 6, 7]


class TestLinks:
    def test_out_links_indexed_by_dim_dir(self):
        t = Torus((4, 4))
        link = t.out_link(0, 0, +1)
        assert link.src == 0
        assert t.coords(link.dst) == (1, 0)

    def test_in_links_match_out_links(self):
        t = Torus((4, 4))
        for r in range(t.num_routers):
            for link in t.out_links(r):
                assert link in t.in_links(link.dst)

    def test_dateline_marking(self):
        t = ring(4)
        crossing = [k for k in t.links if k.crosses_dateline]
        # One crossing link per direction per ring.
        assert len(crossing) == 2
        plus = next(k for k in crossing if k.direction == +1)
        assert t.coords(plus.src) == (3,) and t.coords(plus.dst) == (0,)


class TestRouting:
    def test_productive_directions_minimal(self):
        t = Torus((8, 8))
        dirs = t.productive_directions(0, t.router_id((3, 6)))
        assert (0, +1, 3) in dirs
        assert (1, -1, 2) in dirs  # 6 is closer backwards on a ring of 8
        assert len(dirs) == 2

    def test_productive_directions_tie_gives_both(self):
        t = ring(4)
        dirs = t.productive_directions(0, 2)
        assert len(dirs) == 2
        assert {d for _, d, _ in dirs} == {+1, -1}

    def test_min_hops_symmetric(self):
        t = Torus((5, 3))
        for a in range(t.num_routers):
            for b in range(t.num_routers):
                assert t.min_hops(a, b) == t.min_hops(b, a)

    def test_dor_path_is_minimal(self):
        t = Torus((4, 4))
        for a in range(t.num_routers):
            for b in range(t.num_routers):
                path = t.route_path(a, b)
                assert len(path) == t.min_hops(a, b)
                cur = a
                for link in path:
                    assert link.src == cur
                    cur = link.dst
                assert cur == b

    def test_dor_path_orders_dimensions(self):
        t = Torus((4, 4))
        path = t.route_path(0, t.router_id((2, 2)))
        dims = [hop.dim for hop in path]
        assert dims == sorted(dims)

    def test_route_path_takes_plus_one_on_a_tie(self):
        # 0 -> (2, 0) on a 4-ring is two hops either way; dimension
        # order breaks the tie towards +1, as the escape channel does.
        t = Torus((4, 4))
        path = t.route_path(0, t.router_id((2, 0)))
        assert [hop.direction for hop in path] == [+1, +1]

    @pytest.mark.parametrize("topo", [
        Torus((2, 4)), Torus((4, 4)), Torus((5, 3)), Torus((2, 3, 4)),
        Torus((4, 1)), Mesh2D((4, 3)), Mesh2D((3, 2)),
    ], ids=repr)
    def test_grid_minimal_links_match_bfs(self, topo):
        # The coordinate shortcut answers exactly what BFS distances do,
        # in the same (out-link) order.
        for a in range(topo.num_routers):
            for b in range(topo.num_routers):
                assert topo.minimal_links(a, b) == Topology.minimal_links(
                    topo, a, b
                ), (a, b)


class TestAnalysis:
    def test_networkx_export(self):
        t = Torus((3, 3))
        g = t.to_networkx()
        assert g.number_of_nodes() == 9
        assert g.number_of_edges() == len(t.links)
        assert nx.is_strongly_connected(nx.DiGraph(g))

    def test_uniform_capacity_8x8(self):
        # 8x8 torus: bisection-limited to 1.0 flit/node/cycle.
        assert Torus((8, 8)).uniform_capacity() == pytest.approx(1.0)

    def test_uniform_capacity_capped_by_injection(self):
        assert Torus((2, 2)).uniform_capacity() == 1.0

    def test_capacity_of_single_router(self):
        assert Torus((1,)).uniform_capacity() == 1.0


def _assert_valid_path(topology, src, dst):
    path = topology.route_path(src, dst)
    assert len(path) == topology.min_hops(src, dst)
    cur = src
    for link in path:
        assert link.src == cur
        cur = link.dst
    assert cur == dst
    return path


class TestMesh2D:
    def test_link_count_no_wrap(self):
        t = Mesh2D((4, 4))
        # 2 x (rows x (cols-1)) undirected internal edges per axis,
        # each as two unidirectional links; no wrap links.
        assert len(t.links) == 2 * 2 * 4 * 3

    def test_no_dateline_anywhere(self):
        assert not any(k.crosses_dateline for k in Mesh2D((4, 4)).links)

    def test_requires_two_dimensions(self):
        with pytest.raises(ConfigurationError):
            Mesh2D((4,))
        with pytest.raises(ConfigurationError):
            Mesh2D((2, 2, 2))

    def test_min_hops_is_manhattan(self):
        t = Mesh2D((4, 5))
        for a in range(t.num_routers):
            for b in range(t.num_routers):
                (ai, aj), (bi, bj) = t.coords(a), t.coords(b)
                assert t.min_hops(a, b) == abs(ai - bi) + abs(aj - bj)

    def test_edge_routers_have_no_outward_links(self):
        t = Mesh2D((3, 3))
        corner = t.router_id((0, 0))
        dirs = {(k.dim, k.direction) for k in t.out_links(corner)}
        assert dirs == {(0, +1), (1, +1)}

    def test_dor_path_minimal_and_dimension_ordered(self):
        t = Mesh2D((4, 4))
        for a in range(t.num_routers):
            for b in range(t.num_routers):
                path = _assert_valid_path(t, a, b)
                dims = [hop.dim for hop in path]
                assert dims == sorted(dims)

    def test_productive_directions_signed(self):
        t = Mesh2D((4, 4))
        dirs = t.productive_directions(t.router_id((3, 0)),
                                       t.router_id((0, 2)))
        assert (0, -1, 3) in dirs and (1, +1, 2) in dirs
        assert len(dirs) == 2


class TestFullMesh:
    def test_every_ordered_pair_has_one_link(self):
        t = FullMesh(8)
        assert len(t.links) == 8 * 7
        assert {(k.src, k.dst) for k in t.links} == {
            (a, b) for a in range(8) for b in range(8) if a != b
        }

    def test_min_hops_is_one_off_diagonal(self):
        t = FullMesh(5)
        for a in range(5):
            for b in range(5):
                assert t.min_hops(a, b) == (0 if a == b else 1)

    def test_route_path_is_the_direct_link(self):
        t = FullMesh(6)
        for a in range(6):
            for b in range(6):
                if a == b:
                    continue
                (link,) = _assert_valid_path(t, a, b)
                assert link is t.direct_link(a, b)

    def test_degenerate_single_router_has_no_links(self):
        # Consistent with Torus((1,)): valid but linkless.
        assert len(FullMesh(1).links) == 0

    def test_rejects_nonpositive_router_count(self):
        with pytest.raises(ConfigurationError):
            FullMesh(0)


class TestIrregularGraph:
    def test_builtin_example_shape(self):
        t = irregular_example()
        assert t.num_routers == 9
        # 12 undirected edges, each expanded to two directed links.
        assert len(t.links) == 24
        assert not any(k.crosses_dateline for k in t.links)

    def test_route_path_valid_everywhere(self):
        t = irregular_example()
        for a in range(t.num_routers):
            for b in range(t.num_routers):
                path = t.route_path(a, b) if a != b else []
                cur = a
                for link in path:
                    assert link.src == cur
                    cur = link.dst
                assert cur == b

    def test_tree_paths_go_up_then_down(self):
        t = irregular_example()
        for a in range(t.num_routers):
            for b in range(t.num_routers):
                if a == b:
                    continue
                depths = [t._depth[a]]
                depths += [t._depth[k.dst] for k in t.route_path(a, b)]
                turn = depths.index(min(depths))
                # Monotone descent to the LCA, then monotone ascent.
                assert depths[: turn + 1] == sorted(depths[: turn + 1],
                                                    reverse=True)
                assert depths[turn:] == sorted(depths[turn:])

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            IrregularGraph(4, [(0, 1), (2, 3)])

    def test_min_hops_symmetric(self):
        t = irregular_example()
        for a in range(t.num_routers):
            for b in range(t.num_routers):
                assert t.min_hops(a, b) == t.min_hops(b, a)

    def test_bristling_multiplies_nodes(self):
        t = irregular_example(bristling=2)
        assert t.num_nodes == 18
        assert t.router_of_node(3) == 1


class TestLoadAndBuild:
    def test_load_topology_roundtrip(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "name": "tri", "routers": 3, "bristling": 2,
            "links": [[0, 1], [1, 2], [2, 0]],
        }), "utf-8")
        t = load_topology(path)
        assert isinstance(t, IrregularGraph)
        assert t.num_routers == 3
        assert t.num_nodes == 6
        assert len(t.links) == 6

    def test_load_topology_bristling_override(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "routers": 2, "bristling": 4, "links": [[0, 1]],
        }), "utf-8")
        assert load_topology(path, bristling=1).num_nodes == 2

    def test_load_topology_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", "utf-8")
        with pytest.raises(ConfigurationError):
            load_topology(path)
        with pytest.raises(ConfigurationError):
            load_topology(tmp_path / "missing.json")

    def test_build_topology_dispatch(self, tmp_path):
        assert isinstance(build_topology("torus", dims=(4, 4)), Torus)
        assert isinstance(build_topology("mesh2d", dims=(4, 4)), Mesh2D)
        fm = build_topology("fullmesh", dims=(2, 4))
        assert isinstance(fm, FullMesh) and fm.num_routers == 8
        assert isinstance(build_topology("irregular"), IrregularGraph)
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "routers": 2, "links": [[0, 1]],
        }), "utf-8")
        assert isinstance(build_topology("file", file=str(path)),
                          IrregularGraph)

    def test_build_topology_rejects_unknown_and_missing_file(self):
        with pytest.raises(ConfigurationError):
            build_topology("hypercube")
        with pytest.raises(ConfigurationError):
            build_topology("file")

    def test_kinds_constant_covers_dispatch(self):
        assert set(TOPOLOGY_KINDS) == {
            "torus", "mesh2d", "fullmesh", "irregular", "fat_tree", "file"
        }


class TestFatTree:
    def test_router_count(self):
        # Level sizes 1, 2, 8 for dims (2, 4): 11 routers, the last
        # level's 8 are the leaves carrying the compute nodes.
        t = fat_tree((2, 4))
        assert t.num_routers == 1 + 2 + 8

    def test_is_irregular_graph(self):
        assert isinstance(fat_tree((2, 2)), IrregularGraph)

    def test_trunk_fatness_tapers_toward_leaves(self):
        t = fat_tree((2, 2), max_fatness=4)
        pairs = [(min(k.src, k.dst), max(k.src, k.dst)) for k in t.links]
        # Root (0) to its two children: fatness min(4, 2) = 2 parallel
        # undirected trunks = 4 unidirectional links per child pair.
        assert pairs.count((0, 1)) == 4
        # Leaf trunks are single links (2 unidirectional).
        assert pairs.count((1, 3)) == 2

    def test_max_fatness_caps_trunks(self):
        thin = fat_tree((4, 4), max_fatness=1)
        pairs = [(min(k.src, k.dst), max(k.src, k.dst)) for k in thin.links]
        assert max(pairs.count(p) for p in set(pairs)) == 2

    def test_connected_and_certifiable(self):
        t = fat_tree((2, 4))
        g = nx.Graph((k.src, k.dst) for k in t.links)
        assert nx.is_connected(g)
        assert g.number_of_nodes() == t.num_routers

    def test_bristling_multiplies_nodes(self):
        t = fat_tree((2, 2), bristling=2)
        assert t.num_nodes == 2 * t.num_routers

    def test_build_topology_dispatch(self):
        t = build_topology("fat_tree", dims=(2, 2))
        assert isinstance(t, IrregularGraph)
        assert t.num_routers == 7

    @pytest.mark.parametrize("bad", [(), (0, 2), (2, -1)])
    def test_invalid_dims_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            fat_tree(bad)

    def test_invalid_fatness_rejected(self):
        with pytest.raises(ConfigurationError):
            fat_tree((2, 2), max_fatness=0)

    def test_routes_deliver_under_pr(self):
        from repro.config import SimConfig
        from repro.sim.engine import Engine

        engine = Engine(SimConfig(
            topology="fat_tree", dims=(2, 2), scheme="PR",
            pattern="PAT271", num_vcs=4, load=0.01, seed=3,
        ))
        window = engine.run_measured(300, 600)
        assert window.messages_delivered > 0
