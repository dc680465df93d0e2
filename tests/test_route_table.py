"""Route-table oracle: every key resolves to ``static_candidate_ids``.

:func:`repro.network.soa.build_route_table` assembles the vector
backend's candidate table with array operations;
``Routing.static_candidate_ids`` is the definition it must reproduce.  Whole-
engine equivalence (``test_backend_equivalence.py``) only visits the
keys a run happens to reach — this checks all of them, on every
topology kind and under each scheme's VC map.
"""

from __future__ import annotations

import pytest

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


@pytest.mark.parametrize("scheme", SCHEME_ROUTING)
@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_every_key_matches_static_candidate_ids(topo, scheme):
    topology = TOPOLOGIES[topo]()
    routing = SCHEME_ROUTING[scheme](topology)
    num_vcs = routing.vc_map.num_vcs
    stride = 2 + routing.max_static_candidates()
    rk_idx, rows = build_route_table(
        TopologySoA(topology, num_vcs), routing, stride
    )

    R = topology.num_routers
    vcls = routing.vc_map.num_classes
    nmask = 1 << topology.ndim
    # Each distinct row once: a row varies with the mask only through
    # the escape's dateline class.
    n_rows = R * (R - 1) * vcls * 2
    assert rk_idx.shape == (R * R * vcls * nmask,)
    assert rows.shape == (n_rows * stride,)
    rows = rows.reshape(n_rows, stride)

    key = 0
    for r in range(R):
        for dst in range(R):
            for cls in range(vcls):
                for mask in range(nmask):
                    row = rk_idx[key]
                    key += 1
                    if r == dst:
                        assert row == -1
                        continue
                    assert 0 <= row < n_rows
                    cands, esc = routing.static_candidate_ids(r, dst, cls, mask)
                    got = rows[row]
                    assert (got[0], got[1]) == (len(cands), esc), (r, dst, cls, mask)
                    assert tuple(got[2 : 2 + len(cands)]) == cands, (r, dst, cls, mask)


def test_kernel_route_miss_raises_with_the_key():
    engine = build_engine(SimConfig(
        backend="vector", scheme="PR", pattern="PAT721", dims=(4, 4),
        num_vcs=4, load=0.05, seed=1,
    ))
    engine.fabric._rk_idx[:] = -1
    with pytest.raises(
        SimulationError,
        match=r"no row for \(router, destination, class, mask\) = \(\d+, \d+, 0, 0\)",
    ):
        engine.run(500)
