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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.channel import VirtualChannel

# networkx costs 0.13 s and 15 MiB to import and no default run builds a
# graph, so the functions that do import it themselves.
if TYPE_CHECKING:
    import networkx as nx


def _vc_key(vc: VirtualChannel):
    return ("vc", vc.link.lid, vc.index)


def _queue_key(kind: str, node: int, cls: int):
    return (kind, node, cls)


def build_wait_for_graph(engine) -> nx.DiGraph:
    """Snapshot the live simulator into a resource wait-for graph.

    Edges:

    * frontier sender -> every candidate output VC (or the destination
      input queue when the header has reached its delivery router);
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

    def sender_key(s):
        if isinstance(s, VirtualChannel):
            return _vc_key(s)
        return ("inj", s.node, s.vc_class)

    # Channel-level edges.
    for vcs in fabric.link_vcs:
        for vc in vcs:
            if vc.owner is None:
                continue
            key = _vc_key(vc)
            g.add_node(key)
            sink = vc.next_sink
            if isinstance(sink, VirtualChannel):
                g.add_edge(key, _vc_key(sink))
            # (ejection ports drain unconditionally: no wait edge)

    # Busy injection channels whose packet is already routed onward.
    for chan in fabric._inj_channels.values():
        if chan.owner is None:
            continue
        key = ("inj", chan.node, chan.vc_class)
        g.add_node(key)
        if isinstance(chan.next_sink, VirtualChannel):
            g.add_edge(key, _vc_key(chan.next_sink))

    # Frontier senders wait on alternatives.
    for s in fabric.pending:
        msg = s.owner
        if msg is None or s.next_sink is not None:
            continue
        key = sender_key(s)
        g.add_node(key)
        cur_router = s.link.dst if isinstance(s, VirtualChannel) else s.router
        dst_router = topo.router_of_node(msg.dst)
        if cur_router == dst_router:
            cls = scheme.queue_class_of(msg.mtype)
            g.add_edge(key, _queue_key("inq", msg.dst, cls))
        else:
            for vc in routing.candidates(cur_router, dst_router, msg):
                g.add_edge(key, _vc_key(vc))

    # Endpoint edges.  A wait edge is drawn only when the head is
    # *actually* blocked now — otherwise the resource progresses on its
    # own and a cycle through it is not a deadlock.
    from collections import Counter

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
            chan = fabric._inj_channels.get((ni.node, cls))
            if chan is not None and chan.owner is not None:
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
