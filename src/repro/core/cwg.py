"""Channel wait-for graph (CWG) construction and knot detection.

Follows the formal model of Warnakulasuriya & Pinkston that FlexSim's
deadlock detection implements (Section 4.1): vertices are network
resources (virtual channels, NI queues, injection channels); a directed
edge ``a -> b`` means the packet/message holding ``a`` waits for ``b``.
A deadlock corresponds to a *knot*: a set of resources from which every
reachable resource lies inside the set — computed here as a sink
strongly-connected component of size > 1 (or with a self-loop) in the
wait-for graph's condensation.

This detector is exact but expensive (the paper notes the explosive
growth of CWG cycles under load and falls back to the endpoint timeout
detector); here it serves three purposes: correctness tests of the cheap
detector, the paper's optional 50-cycle CWG detection mode, and the
strict-avoidance verification that SA's dependency structure is acyclic.

The graph is built from queries both fabrics answer (``owned_channels``,
``frontier_senders``) and ``Routing.static_candidate_ids``, so both
engines see the same knots.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

# networkx costs 0.13 s and 15 MiB to import and no default run builds a
# graph, so the functions that do import it themselves.
if TYPE_CHECKING:
    import networkx as nx


def _sender_key(s):
    if s.is_injection:
        return ("inj", s.node, s.vc_class)
    return ("vc", s.link.lid, s.index)


def _queue_key(kind: str, node: int, cls: int):
    return (kind, node, cls)


def build_wait_for_graph(engine) -> nx.DiGraph:
    """Snapshot the live simulator into a resource wait-for graph.

    Edges:

    * frontier sender -> every free adaptive VC of its candidate row and
      the escape VC for its dateline mask (or the destination input
      queue when the header has reached its delivery router);
    * allocated channel -> its assigned next sink (space wait);
    * input queue -> output queue(s) its non-terminating head needs;
    * output queue -> candidate VCs of its head message.
    """
    import networkx as nx

    g = nx.DiGraph()
    fabric = engine.fabric
    topo = engine.topology
    scheme = engine.scheme
    routing = scheme.routing
    num_vcs = routing.vc_map.num_vcs

    # Channel-level edges (ejection ports drain unconditionally: a
    # channel routed to one has no wait edge).
    owned: set[tuple] = set()
    for chan, next_vc in fabric.owned_channels():
        key = _sender_key(chan)
        owned.add(key)
        g.add_node(key)
        if next_vc is not None:
            g.add_edge(key, _sender_key(next_vc))

    # Frontier senders wait on alternatives.
    for s in fabric.frontier_senders():
        msg = s.owner
        key = _sender_key(s)
        dst_router = topo.router_of_node(msg.dst)
        if s.router == dst_router:
            cls = scheme.queue_class_of(msg.mtype)
            g.add_edge(key, _queue_key("inq", msg.dst, cls))
            continue
        adaptive, escape = routing.static_candidate_ids(
            s.router, dst_router, msg.vc_class, msg.crossed_mask
        )
        for vc_id in adaptive:
            vc_key = ("vc", *divmod(vc_id, num_vcs))
            if vc_key not in owned:
                g.add_edge(key, vc_key)
        if escape >= 0:  # waited on whether free or not
            g.add_edge(key, ("vc", *divmod(escape, num_vcs)))

    # Endpoint edges.  A wait edge is drawn only when the head is
    # *actually* blocked now — otherwise the resource progresses on its
    # own and a cycle through it is not a deadlock.
    for ni in engine.interfaces:
        controller = ni.controller
        for cls in range(ni.in_bank.num_classes):
            q = ni.in_bank.queue(cls)
            head = q.peek()
            qkey = _queue_key("inq", ni.node, cls)
            if q.occupancy > 0:
                g.add_node(qkey)
            if head is None or not head.continuation:
                continue
            if controller.current is not None and controller.current_in_cls == cls:
                continue  # being serviced: progress
            need = Counter(
                scheme.queue_class_of(spec.mtype) for spec in head.continuation
            )
            for out_cls, count in need.items():
                if ni.out_bank.queue(out_cls).free_slots < count:
                    g.add_edge(qkey, _queue_key("outq", ni.node, out_cls))
        for cls in range(ni.out_bank.num_classes):
            q = ni.out_bank.queue(cls)
            okey = _queue_key("outq", ni.node, cls)
            if q.occupancy > 0:
                g.add_node(okey)
            if q.peek() is None:
                continue
            if fabric.injection_channel(ni.node, cls).owner is not None:
                # The queue head waits behind the channel's packet.
                g.add_edge(okey, ("inj", ni.node, cls))
            # With an idle channel the head loads next cycle: no wait.
    return g


def find_knots(g: nx.DiGraph) -> list[set]:
    """Knots: sink SCCs that can still cycle internally.

    A single vertex without a self-loop cannot be deadlocked; an SCC with
    outgoing edges has an escape route.
    """
    import networkx as nx

    knots = []
    condensation = nx.condensation(g)
    for scc_id in condensation.nodes:
        if condensation.out_degree(scc_id) > 0:
            continue
        members = condensation.nodes[scc_id]["members"]
        if len(members) > 1:
            knots.append(set(members))
        else:
            (m,) = members
            if g.has_edge(m, m):
                knots.append({m})
    return knots


def detect_deadlock(engine) -> list[set]:
    """Convenience wrapper: snapshot the engine and return any knots."""
    return find_knots(build_wait_for_graph(engine))
