"""Topology campaign: scheme x topology grid beyond the paper's torus.

The paper evaluates SA/DR/PR on k-ary n-cube (torus) networks only; the
generalized substrate (:mod:`repro.network.topology`) also supports open
meshes, full meshes and irregular graphs.  This campaign runs every
scheme on every non-torus topology and enforces the guarantees that make
the schemes portable:

* every cell reaches a measurement window and **drains completely**
  once admission stops (no stuck messages under any substrate);
* **message conservation** holds (nothing lost or duplicated);
* SA (strict avoidance) sees **zero deadlocks and zero CWG knots** on
  every topology — its C >= 2L guarantee is substrate-independent;
* DR/PR cells report detected deadlocks and recoveries, demonstrating
  detection + recovery working away from the torus.

The ``labs-smoke`` CI job runs this at smoke scale and fails loudly
when a guarantee breaks (the run raises).
"""

from __future__ import annotations

from repro.experiments.common import SCHEME_CELLS, LabScale, lab_scale, run_cell

_SCALES = {
    "smoke": LabScale("smoke", warmup=500, measure=2500,
                      quiesce_cycles=100_000),
    "paper": LabScale("paper", warmup=2000, measure=10_000,
                      quiesce_cycles=200_000),
}

#: the non-torus substrates: (kind, dims, label).  "fullmesh" gets 8
#: routers (prod of dims); "irregular" is the built-in 9-router graph.
_TOPOLOGIES = (
    ("fullmesh", (2, 4), "fullmesh8"),
    ("mesh2d", (4, 4), "mesh2d4x4"),
    ("irregular", (4, 4), "irregular9"),
)

#: per-scheme load on top of the scheme's cell: SA runs the CWG
#: ground-truth checker at the fault campaign's load; DR/PR run at a
#: load that provokes deadlock on adaptive substrates.
_LOADS = {"SA": 0.012, "DR": 0.02, "PR": 0.02}


def _run_cell(kind: str, dims: tuple[int, ...], label: str, scheme: str,
              ls: LabScale, seed: int) -> dict:
    config = SCHEME_CELLS[scheme].with_(
        topology=kind,
        dims=dims,
        seed=seed,
        load=_LOADS[scheme],
        cwg_interval=50 if scheme == "SA" else 0,
        invariants_every=250,
        watchdog_timeout=8000,
    )
    engine, window = run_cell(
        config, ls, f"topology campaign cell {label}/{scheme}"
    )
    assert window is not None  # a measured scale
    deadlocks = window.deadlocks + window.deadlocks_unresolved
    if scheme == "SA" and (deadlocks or engine.cwg_knots_seen):
        raise RuntimeError(
            f"SA on {label}: {deadlocks} deadlock(s),"
            f" {engine.cwg_knots_seen} CWG knot(s) — avoidance broke"
            " off-torus"
        )
    nodes = engine.topology.num_nodes
    return {
        "topology": label,
        "scheme": scheme,
        "throughput_fpc": window.throughput_fpc(nodes),
        "mean_latency": window.mean_latency(),
        "delivered": window.messages_delivered,
        "deadlocks": deadlocks,
        "recoveries": engine.scheme.recoveries,
        "cwg_knots_seen": engine.cwg_knots_seen,
        "lost": 0,
    }


def run(scale: str | LabScale = "smoke", seed: int = 7) -> list[dict]:
    """Run the scheme x topology grid; returns one row dict per cell."""
    ls = lab_scale(scale, _SCALES)
    return [
        _run_cell(kind, dims, label, scheme, ls, seed)
        for kind, dims, label in _TOPOLOGIES
        for scheme in SCHEME_CELLS
    ]


def main(scale: str = "smoke") -> None:
    rows = run(scale)
    print("\n== Topology campaign: scheme x topology ==")
    print(f"{'topology':12s} {'scheme':7s} {'thr(fpc)':>9s} {'latency':>9s}"
          f" {'deliv':>7s} {'dlks':>5s} {'recov':>6s}")
    for row in rows:
        print(
            f"{row['topology']:12s} {row['scheme']:7s}"
            f" {row['throughput_fpc']:9.4f} {row['mean_latency']:8.1f}c"
            f" {row['delivered']:7d} {row['deadlocks']:5d}"
            f" {row['recoveries']:6d}"
        )
    print("all cells drained; conservation delta 0 everywhere;"
          " SA saw zero deadlocks and zero CWG knots on every substrate")


if __name__ == "__main__":
    main()
