"""Route-table oracle: every key resolves to ``static_candidate_ids``.

:func:`repro.network.soa.build_route_table` assembles the vector
backend's candidate table with array operations, one row per distinct
route; ``Routing.static_candidate_ids`` is the definition it must
reproduce.  Whole-engine equivalence (``test_backend_equivalence.py``)
only visits the keys a run happens to reach — this replays the kernel's
lookup (key, row, then the escape pick for each dateline mask) on every
key, on every topology kind and under each scheme's VC map, and on
generated grids.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.network.routing import (
    dimension_order_routing,
    duato_routing,
    partitioned_vc_map,
    tfar_vc_map,
    true_fully_adaptive_routing,
)
from repro.network.soa import TopologySoA, build_route_table
from repro.network.topology import (
    FullMesh,
    GridTopology,
    Mesh2D,
    Torus,
    fat_tree,
    irregular_example,
)
from repro.sim.engine import build_engine
from repro.util.errors import SimulationError

TOPOLOGIES = {
    "ring5": lambda: Torus((5,)),
    "torus4x4": lambda: Torus((4, 4)),
    "torus5x3": lambda: Torus((5, 3)),  # odd radix: no direction ties
    "torus2x4": lambda: Torus((2, 4)),  # k = 2: parallel +1/-1 links
    "torus2x3x4": lambda: Torus((2, 3, 4)),
    "mesh4x3": lambda: Mesh2D((4, 3)),
    # Out-degree below 2 * ndim: the hop-link columns are sized by the
    # busiest router's out-links, as the candidate stride is.
    "mesh3x2": lambda: Mesh2D((3, 2)),
    "torus4x1": lambda: Torus((4, 1)),
    "fullmesh6": lambda: FullMesh(6),
    "fat_tree2x3": lambda: fat_tree((2, 3)),
    "irregular9": irregular_example,
}

#: The VC map and routing each scheme builds (see ``repro.core.schemes``).
SCHEME_ROUTING = {
    "PR": lambda t: true_fully_adaptive_routing(t, tfar_vc_map(4)),
    "DR": lambda t: duato_routing(t, partitioned_vc_map(8, 2)),
    "SA": lambda t: dimension_order_routing(t, partitioned_vc_map(8, 4)),
    "NONE": lambda t: duato_routing(t, partitioned_vc_map(4, 1)),
}


def check_table(topology, routing, sources=None) -> None:
    """Build the table and replay the kernel's lookup from ``sources``
    (every router by default) to every destination, class and mask."""
    soa = TopologySoA(topology, routing.vc_map.num_vcs)
    stride = 3 + routing.max_static_candidates()
    rk_idx, rows = build_route_table(soa, routing, stride)

    R = topology.num_routers
    vcls = routing.vc_map.num_classes
    assert rk_idx.shape == (R * R * vcls,)
    rows = rows.reshape(-1, stride)
    # One row per distinct route (minimal out-links, escape link) and class.
    routes = {
        (tuple(ln.lid for ln in topology.minimal_links(r, dst)),
         topology.route_path(r, dst)[0].lid)
        for r in range(R) for dst in range(R) if r != dst
    }
    assert len(rows) == len(routes) * vcls
    if isinstance(topology, GridTopology):
        # Per dimension a hop goes nowhere, +1, -1 or (on a tie) both.
        assert len(rows) <= R * (4 ** topology.ndim - 1) * vcls

    for r in range(R) if sources is None else sources:
        for dst in range(R):
            for cls in range(vcls):
                row = rk_idx[(r * R + dst) * vcls + cls]  # kernel.c's key
                if r == dst:
                    assert row == -1
                    continue
                count, esc0, esc1 = rows[row, :3]
                cands = tuple(rows[row, 3 : 3 + count])
                for mask in range(1 << topology.ndim):
                    esc = esc0
                    if esc0 >= 0 and (
                        soa.vc_dateline[esc0] | (mask >> soa.vc_dim[esc0]) & 1
                    ):
                        esc = esc1
                    assert (cands, esc) == routing.static_candidate_ids(
                        r, dst, cls, mask
                    ), (r, dst, cls, mask)


@pytest.mark.parametrize("scheme", SCHEME_ROUTING)
@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_every_key_matches_static_candidate_ids(topo, scheme):
    topology = TOPOLOGIES[topo]()
    check_table(topology, SCHEME_ROUTING[scheme](topology))


grids = st.one_of(
    st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
        lambda dims: Torus(tuple(dims))
    ),
    st.tuples(st.integers(2, 6), st.integers(2, 6)).map(Mesh2D),
)


@settings(max_examples=40, deadline=None)
@given(topology=grids, scheme=st.sampled_from(sorted(SCHEME_ROUTING)),
       data=st.data())
def test_generated_grids_match_static_candidate_ids(topology, scheme, data):
    # Every destination, class and mask from a few drawn routers: the
    # full replay of a 6x6x6 torus would take seconds per example.
    sources = data.draw(st.lists(
        st.integers(0, topology.num_routers - 1),
        min_size=1, max_size=3, unique=True,
    ))
    check_table(topology, SCHEME_ROUTING[scheme](topology), sources)


@pytest.mark.parametrize(
    "dims, mib", [((16, 16), 0.6), ((24, 24), 2.5)], ids=["16x16", "24x24"]
)
def test_route_table_bytes(dims, mib):
    """Keys grow with routers x destinations x classes; rows with routers
    x distinct routes.  Neither grows with the dateline masks."""
    fabric = build_engine(SimConfig(
        backend="vector", scheme="PR", dims=dims, num_vcs=4,
    )).fabric
    assert fabric._rows.nbytes + fabric._rk_idx.nbytes <= mib * 2**20


def test_kernel_route_miss_raises_with_the_key():
    engine = build_engine(SimConfig(
        backend="vector", scheme="PR", pattern="PAT721", dims=(4, 4),
        num_vcs=4, load=0.05, seed=1,
    ))
    engine.fabric._rk_idx[:] = -1
    with pytest.raises(
        SimulationError,
        match=r"no row for \(router, destination, class\) = \(\d+, \d+, 0\)",
    ):
        engine.run(500)
