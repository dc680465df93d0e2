"""Static channel-dependency-graph deadlock-freedom certification.

Given a (topology, routing) pair this module enumerates every
(channel, next-channel) dependency the routing function can generate —
by walking the reachable ``(router, dateline-mask)`` states for every
(destination, VC class) — and decides deadlock freedom *before* any
simulation runs:

* Classes with an escape pair are judged by the escape-subfunction
  condition (Duato's necessary-and-sufficient theorem, in the
  arbitrary-network framing of Mendlovic & Matias, 2025): the routing is
  deadlock-free iff the *extended* dependency graph over the escape
  channels is acyclic.  Extended means direct escape→escape
  dependencies plus indirect ones, where a worm holds an escape channel,
  detours over adaptive channels, and later requests another escape
  channel; the detour closure is a fixpoint over the state graph, so
  non-minimal escape disciplines (up*/down* tree routing) are handled.
* Classes with no escape (TFAR) are judged by full-CDG acyclicity
  (Dally & Seitz): every candidate channel is a node.

The verdict is ``CERTIFIED`` with an acyclic witness ordering of the
dependency-graph nodes, or ``REFUTED`` with a concrete dependency cycle
rendered like the simulator's deadlock dumps.  Scope: this certifies
freedom from *routing* deadlock.  Message-dependent (endpoint) deadlock
is the schemes' business — SA makes it impossible by construction, DR
and PR recover from it — and is exactly what the simulator's detectors
observe; the ``cdg_lab`` experiment cross-validates the two worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.network.routing import (
    Routing,
    duato_routing,
    dimension_order_routing,
    full_mesh_routing,
    partitioned_vc_map,
    tfar_vc_map,
    true_fully_adaptive_routing,
)
from repro.network.topology import (
    FullMesh,
    Mesh2D,
    Topology,
    Torus,
    irregular_example,
    ring,
)

#: (router, dateline-crossing mask) — one node of the reachable walk.
State = tuple[int, int]
#: per state: (adaptive transitions, escape transition or None); each
#: transition is (vc id, next state).
Transitions = dict[State, tuple[list[tuple[int, State]],
                                tuple[int, State] | None]]

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"


@dataclass(frozen=True)
class DepExample:
    """Provenance of one dependency edge: who requests what, where."""

    dst_router: int
    vc_class: int
    router: int
    crossed_mask: int


def channel_name(topology: Topology, num_vcs: int, vcid: int) -> str:
    """Render a vc id the way deadlock dumps render channels."""
    link = topology.links[vcid // num_vcs]
    extra = " dateline" if link.crosses_dateline else ""
    return (
        f"ch(link={link.lid} {link.src}->{link.dst} "
        f"vc{vcid % num_vcs}{extra})"
    )


@dataclass
class CdgReport:
    """Outcome of one certification run (see :func:`check`)."""

    name: str
    topology: str
    routing: str
    verdict: str
    #: which theorem decided: "escape-extended", "full-cdg" or both.
    condition: str
    num_channels: int
    num_escape_channels: int
    num_dependencies: int
    #: CERTIFIED: acyclic ordering of the dependency-graph nodes.
    witness: tuple[int, ...] | None
    #: REFUTED: the offending cycle as (channel, channel) edges.
    cycle: tuple[tuple[int, int], ...] | None
    #: REFUTED: rendered cycle lines (channel names + provenance).
    cycle_lines: tuple[str, ...] = ()
    #: CERTIFIED: rendered head of the witness ordering.
    witness_lines: tuple[str, ...] = ()
    #: registry expectation / justification, when run via the registry.
    expected: str | None = None
    annotation: str | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def format(self) -> str:
        lines = [
            f"cdg-check: {self.name}",
            f"  topology {self.topology}   routing {self.routing}",
            f"  channels {self.num_channels} "
            f"(escape {self.num_escape_channels})   "
            f"dependencies {self.num_dependencies}   "
            f"condition {self.condition}",
            f"  verdict {self.verdict}",
        ]
        if self.certified:
            if self.witness:
                head = "  <  ".join(self.witness_lines)
                lines.append(
                    f"  witness: acyclic ordering of "
                    f"{len(self.witness)} channels: {head}  <  ..."
                )
            else:
                lines.append("  witness: empty dependency graph")
        else:
            lines.append(
                f"  dependency cycle ({len(self.cycle_lines)} channels):"
            )
            lines.extend(f"    {line}" for line in self.cycle_lines)
        if self.expected is not None:
            ok = "matches" if self.expected == self.verdict else "MISMATCH"
            lines.append(f"  expected {self.expected} ({ok})")
        if self.annotation:
            lines.append(f"  note: {self.annotation}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "topology": self.topology,
            "routing": self.routing,
            "verdict": self.verdict,
            "condition": self.condition,
            "num_channels": self.num_channels,
            "num_escape_channels": self.num_escape_channels,
            "num_dependencies": self.num_dependencies,
            "witness": list(self.witness) if self.witness is not None else None,
            "cycle": [list(e) for e in self.cycle]
            if self.cycle is not None else None,
            "cycle_lines": list(self.cycle_lines),
            "expected": self.expected,
            "annotation": self.annotation,
        }


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _next_state(
    topology: Topology, num_vcs: int, vcid: int, mask: int
) -> State:
    link = topology.links[vcid // num_vcs]
    if link.crosses_dateline:
        mask = mask | (1 << link.dim)
    return (link.dst, mask)


def _walk(
    topology: Topology, routing: Routing, dst: int, vc_class: int
) -> Transitions:
    """Reachable (router, mask) states and their candidate transitions."""
    num_vcs = routing.vc_map.num_vcs
    trans: Transitions = {}
    stack: list[State] = [
        (r, 0) for r in range(topology.num_routers) if r != dst
    ]
    while stack:
        state = stack.pop()
        if state in trans:
            continue
        router, mask = state
        ids, esc = routing.static_candidate_ids(router, dst, vc_class, mask)
        adaptive: list[tuple[int, State]] = []
        for vcid in ids:
            ns = _next_state(topology, num_vcs, vcid, mask)
            adaptive.append((vcid, ns))
            if ns[0] != dst and ns not in trans:
                stack.append(ns)
        escape: tuple[int, State] | None = None
        if esc >= 0:
            ns = _next_state(topology, num_vcs, esc, mask)
            escape = (esc, ns)
            if ns[0] != dst and ns not in trans:
                stack.append(ns)
        trans[state] = (adaptive, escape)
    return trans


def _escape_closure(trans: Transitions, dst: int) -> dict[State, set[int]]:
    """Per state: escape channels requestable via adaptive* then escape.

    A monotone fixpoint — the state graph may have cycles (tree escape
    hops are not minimal), so plain recursion would not terminate.
    """
    closure: dict[State, set[int]] = {s: set() for s in trans}
    changed = True
    while changed:
        changed = False
        for state, (adaptive, escape) in trans.items():
            new = set(closure[state])
            if escape is not None:
                new.add(escape[0])
            for _vcid, ns in adaptive:
                if ns[0] != dst:
                    new |= closure.get(ns, set())
            if new != closure[state]:
                closure[state] = new
                changed = True
    return closure


def _escape_extended_edges(
    trans: Transitions,
    dst: int,
    vc_class: int,
    edges: dict[tuple[int, int], DepExample],
    escape_ids: set[int],
) -> None:
    """Duato's extended dependencies between escape channels."""
    closure = _escape_closure(trans, dst)
    for _state, (_adaptive, escape) in trans.items():
        if escape is None:
            continue
        held, ns = escape
        escape_ids.add(held)
        if ns[0] == dst:
            continue
        for requested in closure.get(ns, ()):
            key = (held, requested)
            if key not in edges:
                edges[key] = DepExample(dst, vc_class, ns[0], ns[1])


def _direct_edges(
    trans: Transitions,
    dst: int,
    vc_class: int,
    edges: dict[tuple[int, int], DepExample],
) -> None:
    """Full-CDG dependencies for classes with no escape subfunction."""
    for _state, (adaptive, escape) in trans.items():
        held_transitions = list(adaptive)
        if escape is not None:
            held_transitions.append(escape)
        for held, ns in held_transitions:
            if ns[0] == dst:
                continue
            nxt_adaptive, nxt_escape = trans[ns]
            for requested, _ in nxt_adaptive:
                key = (held, requested)
                if key not in edges:
                    edges[key] = DepExample(dst, vc_class, ns[0], ns[1])
            if nxt_escape is not None:
                key = (held, nxt_escape[0])
                if key not in edges:
                    edges[key] = DepExample(dst, vc_class, ns[0], ns[1])


def describe_routing(routing: Routing) -> str:
    """A short human label for a routing function."""
    vc_map = routing.vc_map
    mode = "adaptive" if routing.adaptive else "deterministic"
    return (
        f"{routing.name} ({mode}, {vc_map.num_vcs} VCs, "
        f"{vc_map.num_classes} class{'es' if vc_map.num_classes != 1 else ''})"
    )


def check(topology: Topology, routing: Routing, name: str = "") -> CdgReport:
    """Certify or refute a (topology, routing) pair.

    Builds the union dependency graph over all (destination, class)
    walks — escape-extended edges for classes with an escape pair,
    full-CDG edges for classes without — and reports ``CERTIFIED`` with
    a topological witness ordering if it is acyclic, else ``REFUTED``
    with a concrete cycle.
    """
    vc_map = routing.vc_map
    num_vcs = vc_map.num_vcs
    edges: dict[tuple[int, int], DepExample] = {}
    escape_ids: set[int] = set()
    conditions: set[str] = set()
    for vc_class in range(vc_map.num_classes):
        has_escape = vc_map.escape[vc_class] is not None
        conditions.add("escape-extended" if has_escape else "full-cdg")
        for dst in range(topology.num_routers):
            trans = _walk(topology, routing, dst, vc_class)
            if has_escape:
                _escape_extended_edges(trans, dst, vc_class, edges, escape_ids)
            else:
                _direct_edges(trans, dst, vc_class, edges)

    import networkx as nx  # not at module top: see core/cwg.py

    graph = nx.DiGraph()
    graph.add_nodes_from(escape_ids)
    graph.add_edges_from(edges)
    try:
        raw_cycle = [(int(u), int(v)) for u, v, *_ in nx.find_cycle(graph)]
    except nx.NetworkXNoCycle:
        raw_cycle = None

    condition = "+".join(sorted(conditions)) or "full-cdg"
    label = name or f"{topology!r} x {describe_routing(routing)}"
    common = {
        "name": label,
        "topology": repr(topology),
        "routing": describe_routing(routing),
        "condition": condition,
        "num_channels": len(topology.links) * num_vcs,
        "num_escape_channels": len(escape_ids),
        "num_dependencies": len(edges),
    }
    if raw_cycle is None:
        witness = tuple(int(n) for n in nx.topological_sort(graph))
        return CdgReport(
            verdict=CERTIFIED,
            witness=witness,
            witness_lines=tuple(
                channel_name(topology, num_vcs, vcid) for vcid in witness[:4]
            ),
            cycle=None,
            **common,
        )
    lines = []
    for held, requested in raw_cycle:
        ex = edges[(held, requested)]
        lines.append(
            f"{channel_name(topology, num_vcs, held)} -> "
            f"{channel_name(topology, num_vcs, requested)}   "
            f"[class {ex.vc_class} -> router {ex.dst_router}, "
            f"requested at router {ex.router} mask {ex.crossed_mask:#x}]"
        )
    return CdgReport(
        verdict=REFUTED,
        witness=None,
        cycle=tuple(raw_cycle),
        cycle_lines=tuple(lines),
        **common,
    )


# ----------------------------------------------------------------------
# Built-in pair registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BuiltinPair:
    """One registered (topology, routing) pair with its expected verdict.

    Every expected-``REFUTED`` pair must carry an ``annotation`` saying
    why shipping it is fine (the ``labs-smoke`` CI gate fails on any
    un-annotated refutation).
    """

    name: str
    build: Callable[[], tuple[Topology, Routing]]
    expected: str
    description: str
    annotation: str | None = field(default=None)


_RECOVERY_NOTE = (
    "TFAR deliberately has no escape subfunction; deadlock is handled "
    "by detection + recovery (the paper's DR/PR schemes), not avoidance."
)
_ADAPTIVE_TREE_NOTE = (
    "demonstration pair: minimal-adaptive detours off the up*/down* tree "
    "create indirect up-channel dependencies that break the tree "
    "ordering; this is why duato_routing disables adaptivity on "
    "irregular graphs."
)


def builtin_pairs() -> tuple[BuiltinPair, ...]:
    """Every built-in (topology, routing) pair the CI gate certifies."""
    return (
        BuiltinPair(
            "ring8-dor",
            lambda: (t := ring(8),
                     dimension_order_routing(t, partitioned_vc_map(2, 1))),
            CERTIFIED,
            "8-ring, dateline escape pair (Dally-Seitz)",
        ),
        BuiltinPair(
            "ring8-tfar",
            lambda: (t := ring(8),
                     true_fully_adaptive_routing(t, tfar_vc_map(2))),
            REFUTED,
            "8-ring, true fully adaptive: the classic ring cycle",
            annotation=_RECOVERY_NOTE,
        ),
        BuiltinPair(
            "torus4x4-dor",
            lambda: (t := Torus((4, 4)),
                     dimension_order_routing(t, partitioned_vc_map(2, 1))),
            CERTIFIED,
            "4x4 torus, dimension-order over the dateline pair",
        ),
        BuiltinPair(
            "torus4x4-duato",
            lambda: (t := Torus((4, 4)),
                     duato_routing(t, partitioned_vc_map(4, 1))),
            CERTIFIED,
            "4x4 torus, minimal adaptive + dateline escape (Duato)",
        ),
        BuiltinPair(
            "torus4x4-dr-duato",
            lambda: (t := Torus((4, 4)),
                     duato_routing(t, partitioned_vc_map(8, 2))),
            CERTIFIED,
            "4x4 torus, DR's two logical networks, each Duato-routed",
        ),
        BuiltinPair(
            "torus4x4-tfar",
            lambda: (t := Torus((4, 4)),
                     true_fully_adaptive_routing(t, tfar_vc_map(4))),
            REFUTED,
            "4x4 torus, PR's true fully adaptive routing",
            annotation=_RECOVERY_NOTE,
        ),
        BuiltinPair(
            "mesh2d4x4-xy",
            lambda: (t := Mesh2D((4, 4)),
                     dimension_order_routing(t, partitioned_vc_map(2, 1))),
            CERTIFIED,
            "4x4 open mesh, XY order: deadlock-free without datelines "
            "(Papaphilippou & Chu's avoidance substrate)",
        ),
        BuiltinPair(
            "mesh2d4x4-duato",
            lambda: (t := Mesh2D((4, 4)),
                     duato_routing(t, partitioned_vc_map(4, 1))),
            CERTIFIED,
            "4x4 open mesh, minimal adaptive + XY escape",
        ),
        BuiltinPair(
            "fullmesh8-cano",
            lambda: (t := FullMesh(8), full_mesh_routing(t)),
            CERTIFIED,
            "8-router full mesh, VC-free direct routing (Cano, HOTI'25)",
        ),
        BuiltinPair(
            "irregular9-updown",
            lambda: (t := irregular_example(),
                     duato_routing(t, partitioned_vc_map(4, 1))),
            CERTIFIED,
            "9-router irregular graph, up*/down* tree escape routing",
        ),
        BuiltinPair(
            "irregular9-tfar",
            lambda: (t := irregular_example(),
                     true_fully_adaptive_routing(t, tfar_vc_map(4))),
            REFUTED,
            "9-router irregular graph, PR's fully adaptive routing",
            annotation=_RECOVERY_NOTE,
        ),
        BuiltinPair(
            "irregular9-adaptive-tree",
            lambda: (t := irregular_example(),
                     Routing(t, partitioned_vc_map(4, 1),
                             adaptive=True, name="adaptive+updown")),
            REFUTED,
            "9-router irregular graph, minimal adaptive over an "
            "up*/down* escape",
            annotation=_ADAPTIVE_TREE_NOTE,
        ),
    )


def check_pair(pair: BuiltinPair) -> CdgReport:
    topology, routing = pair.build()
    report = check(topology, routing, name=pair.name)
    report.expected = pair.expected
    report.annotation = pair.annotation
    return report


def check_all() -> list[CdgReport]:
    """Certify every built-in pair (the CI ``cdg-check`` step's body)."""
    return [check_pair(pair) for pair in builtin_pairs()]


def gate_failures(reports: list[CdgReport]) -> list[str]:
    """CI-gate problems: verdict mismatches and un-annotated refutations."""
    problems = []
    for report in reports:
        if report.expected is not None and report.verdict != report.expected:
            problems.append(
                f"{report.name}: expected {report.expected}, "
                f"got {report.verdict}"
            )
        if report.verdict == REFUTED and not report.annotation:
            problems.append(f"{report.name}: un-annotated REFUTED pair")
    return problems
