"""Property-based tests (hypothesis) on core structures and invariants."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cwg import find_knots
from repro.network.routing import partitioned_vc_map, tfar_vc_map
from repro.network.topology import Torus
from repro.protocol.chains import GENERIC_MSI
from repro.protocol.message import MessageSpec, count_messages
from repro.util.errors import ConfigurationError

dims_strategy = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(dims=dims_strategy, data=st.data())
def test_dor_path_minimal_and_connected(dims, data):
    """Dimension order reaches every destination over a minimal path."""
    topo = Torus(dims)
    src = data.draw(st.integers(0, topo.num_routers - 1))
    dst = data.draw(st.integers(0, topo.num_routers - 1))
    path = topo.route_path(src, dst)
    assert len(path) == topo.min_hops(src, dst)
    cur = src
    for link in path:
        assert link.src == cur
        cur = link.dst
    assert cur == dst


@settings(max_examples=60, deadline=None)
@given(dims=dims_strategy, data=st.data())
def test_productive_directions_reduce_distance(dims, data):
    topo = Torus(dims)
    src = data.draw(st.integers(0, topo.num_routers - 1))
    dst = data.draw(st.integers(0, topo.num_routers - 1))
    if src == dst:
        return
    base = topo.min_hops(src, dst)
    for dim, direction, _ in topo.productive_directions(src, dst):
        nxt = topo.out_link(src, dim, direction).dst
        assert topo.min_hops(nxt, dst) == base - 1


@settings(max_examples=100, deadline=None)
@given(num_vcs=st.integers(1, 32), num_classes=st.integers(1, 6),
       shared=st.booleans())
def test_vc_map_partition_covers_and_respects_formulas(num_vcs, num_classes, shared):
    """Partitioned maps: every class gets its escape pair; availability
    matches the paper's formulas; no class exceeds the channel range."""
    try:
        m = partitioned_vc_map(num_vcs, num_classes, shared_extras=shared)
    except ConfigurationError:
        assert num_vcs < 2 * num_classes or (
            not shared and num_vcs // num_classes < 2
        )
        return
    for cls in range(num_classes):
        lo, hi = m.escape[cls]
        assert 0 <= lo < hi < num_vcs
        for idx in m.adaptive[cls]:
            assert 0 <= idx < num_vcs
        if shared:
            assert m.availability(cls) == 1 + (num_vcs - 2 * num_classes)
    if not shared:
        # Split partitions are disjoint and cover all channels.
        all_vcs = []
        for cls in range(num_classes):
            all_vcs.extend(m.escape[cls])
            all_vcs.extend(m.adaptive[cls])
        assert sorted(all_vcs) == list(range(num_vcs))


@st.composite
def spec_trees(draw, depth=0):
    mtype = draw(st.sampled_from(GENERIC_MSI.types))
    dst = draw(st.integers(0, 15))
    if depth >= 3:
        children = ()
    else:
        children = tuple(
            draw(spec_trees(depth=depth + 1))
            for _ in range(draw(st.integers(0, 2)))
        )
    return MessageSpec(mtype, dst, children)


@settings(max_examples=100, deadline=None)
@given(tree=spec_trees())
def test_spec_tree_counts_consistent(tree):
    assert count_messages(tree) >= tree.chain_length()
    assert tree.chain_length() >= 1
    # count == 1 exactly for leaves.
    assert (count_messages(tree) == 1) == (tree.continuation == ())


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 10))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=25,
        )
    )
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@settings(max_examples=150, deadline=None)
@given(g=digraphs())
def test_knots_match_brute_force_definition(g):
    """find_knots agrees with the textbook definition: a maximal set K
    containing a cycle such that nothing outside K is reachable from K."""
    knots = find_knots(g)
    # Brute force: for every SCC, check sink-ness and cyclicity.
    expected = []
    for scc in nx.strongly_connected_components(g):
        has_cycle = len(scc) > 1 or any(g.has_edge(v, v) for v in scc)
        is_sink = all(w in scc for v in scc for w in g.successors(v))
        if has_cycle and is_sink:
            expected.append(set(scc))
    assert {frozenset(k) for k in knots} == {frozenset(k) for k in expected}
    # Every knot truly traps its members.
    for k in knots:
        for v in k:
            assert set(nx.descendants(g, v)) <= k


@settings(max_examples=40, deadline=None)
@given(num_vcs=st.integers(1, 16))
def test_tfar_map_exposes_every_channel(num_vcs):
    m = tfar_vc_map(num_vcs)
    assert m.availability(0) == num_vcs
    assert m.escape == (None,)
