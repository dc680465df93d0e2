"""Fault campaign: substrate x scheme x fault-model matrix.

Every cell injects one fault model into an otherwise healthy run — a
memory-controller (consumer) stall, a delayed-ejection port, a dead
link, a frozen router, or (PR only) a lost token — then drains the
system and audits the books.  The grid is **topology-aware**: every
(scheme, model) cell runs on the 4x4 torus, the 4x4 mesh (edge routers,
no wraparound) and the 9-router irregular graph (up*/down* escape), so
the drain/conservation guarantees are exercised where the routing
actually differs, not just on the symmetric substrate.  Reported per
cell:

* **detect** — detection latency: cycles from fault onset to the first
  detected deadlock (``-`` when the scheme never declared one; SA has no
  detector by design, it avoids instead);
* **recov** — recovery actions taken (DR deflections / PR rescues, plus
  ``+Nregen`` for PR token regenerations);
* **deliv** — messages delivered over the whole run;
* **lost** — the message-conservation delta after quiescing.

Hard guarantees enforced (the run *raises* on violation, so the smoke
job fails loudly): every cell drains completely once the fault clears,
and no cell loses or duplicates messages — in particular PR's no-kill
guarantee (the paper's Section 4.3.2: progressive recovery never
removes messages from the network).

After the campaign, the torus4x4 DR and PR consumer-stall cells run
twice more with a flit-level tracer, and the run raises unless each
traced row equals its untraced campaign row, the two traced runs stitch
identical recovery episodes, episode 0's detection is the ``detect``
column, and the exported Chrome/Perfetto trace is valid.  The traces
land in ``results/telemetry/`` for https://ui.perfetto.dev.
"""

from __future__ import annotations

import os

from repro.config import SimConfig
from repro.experiments.common import SCHEME_CELLS, LabScale, lab_scale, run_cell
from repro.faults.models import FaultSpec
from repro.telemetry import (
    Tracer,
    export_perfetto,
    format_episodes,
    stitch_episodes,
    validate_perfetto,
)

_SCALES = {
    "smoke": LabScale(
        "smoke", run_cycles=4000, fault_start=600, fault_duration=2000,
        quiesce_cycles=100_000,
    ),
    "paper": LabScale(
        "paper", run_cycles=30_000, fault_start=2000, fault_duration=6000,
        quiesce_cycles=200_000,
    ),
}

#: fault models exercised against every scheme (token faults are PR-only).
_COMMON_MODELS = ("consumer-stall", "eject-stall", "link-stall", "router-freeze")

#: substrates the grid runs on.  Fault targets (router 5, link 3) are
#: interior/busy on all three: the smallest has 9 routers and 22+ links.
_SUBSTRATES = {
    "torus4x4": {"topology": "torus", "dims": (4, 4)},
    "mesh2d4x4": {"topology": "mesh2d", "dims": (4, 4)},
    "irregular9": {"topology": "irregular", "dims": (4, 4)},
}

#: (substrate, scheme, model) of the cells re-run traced.
_TRACED_CELLS = (("torus4x4", "DR", "consumer-stall"),
                 ("torus4x4", "PR", "consumer-stall"))

OUTPUT_DIR = os.path.join("results", "telemetry")


def _specs_for(model: str, ls: LabScale) -> tuple[FaultSpec, ...]:
    if model == "token-loss":
        return (FaultSpec("token-loss", start=ls.fault_start),)
    # Targets sit mid-fabric so the fault shadows real traffic:
    # node/router 5 is interior and link 3 carries busy flows on every
    # substrate in the grid (all have >= 9 routers and >= 22 links).
    target = {"link-stall": 3, "router-freeze": 5}.get(model, 5)
    return (
        FaultSpec(model, target=target, start=ls.fault_start,
                  duration=ls.fault_duration),
    )


def cells(token_models=("token-loss",)) -> list[tuple[str, str, str]]:
    """``(substrate, scheme, model)`` of every campaign cell, in run
    order; ``token_models`` run on PR only."""
    return [
        (substrate, scheme, model)
        for substrate in _SUBSTRATES
        for scheme in SCHEME_CELLS
        for model in _COMMON_MODELS + (token_models if scheme == "PR" else ())
    ]


def cell_config(substrate: str, scheme: str, model: str, ls: LabScale,
                seed: int = 11) -> SimConfig:
    """The config of one campaign cell."""
    return SCHEME_CELLS[scheme].with_(
        **_SUBSTRATES[substrate],
        load=0.012,
        seed=seed,
        faults=_specs_for(model, ls),
        cwg_interval=50 if scheme == "SA" else 0,
        invariants_every=250,
        # Generous: transient faults stall progress for fault_duration
        # cycles at most, and a recovered system must move again.
        watchdog_timeout=max(4 * ls.fault_duration, 4000),
    )


def _run_cell(substrate: str, scheme: str, model: str, ls: LabScale,
              seed: int, tracer=None) -> dict:
    config = cell_config(substrate, scheme, model, ls, seed)
    engine, _ = run_cell(
        config, ls, f"fault campaign cell {substrate}/{scheme}/{model}",
        tracer,
    )
    stats = engine.stats
    controller = getattr(engine.scheme, "controller", None)
    detect = (
        stats.first_deadlock_cycle - ls.fault_start
        if stats.first_deadlock_cycle >= 0 else None
    )
    regen = getattr(controller, "token_regenerations", 0)
    row = {
        "substrate": substrate,
        "scheme": scheme,
        "model": model,
        "detect_latency": detect,
        "recoveries": engine.scheme.recoveries,
        "token_regenerations": regen,
        "delivered": stats.total.messages_delivered,
        "lost": 0,
        "cwg_knots_seen": engine.cwg_knots_seen,
        "invariant_checks": engine.invariants.checks_run,
        "fault_activations": engine.faults.activation_counts(),
    }
    if scheme == "SA" and engine.cwg_knots_seen:
        # SA's whole claim is avoidance: a CWG knot under an endpoint
        # fault means the C >= 2L guarantee broke.
        raise RuntimeError(
            f"SA saw {engine.cwg_knots_seen} CWG knot(s) under {model}"
        )
    if scheme == "PR" and model == "token-loss" and regen == 0:
        raise RuntimeError("PR never regenerated the lost token")
    return row


def _trace_cell(row: dict, ls: LabScale, seed: int) -> None:
    """Re-run ``row``'s cell twice with a flit tracer, check what the
    traces say against the campaign, and add the episodes, the event
    counts and the written trace's path to ``row``."""
    cell = (row["substrate"], row["scheme"], row["model"])
    label = "/".join(cell)
    tracers = []
    for _ in range(2):
        tracer = Tracer(level="flit", sample_every=100)
        traced = _run_cell(*cell, ls, seed, tracer)
        if traced != row:
            raise RuntimeError(
                f"{label}: traced row {traced} differs from the untraced"
                f" campaign row {row}"
            )
        tracers.append(tracer)
    episodes = stitch_episodes(tracers[0])
    if ([epi.to_dict() for epi in episodes]
            != [epi.to_dict() for epi in stitch_episodes(tracers[1])]):
        raise RuntimeError(f"{label}: episodes differ between identical runs")
    if row["detect_latency"] is not None:
        if not episodes:
            raise RuntimeError(f"{label}: deadlock but no episodes")
        got = episodes[0].detection_cycle - ls.fault_start
        if got != row["detect_latency"]:
            raise RuntimeError(
                f"{label}: episode detect {got} !="
                f" campaign detect {row['detect_latency']}"
            )
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR,
                        f"{row['scheme']}_{row['model']}_{ls.name}.json")
    validate_perfetto(export_perfetto(tracers[0], path))
    row.update(episodes=episodes,
               events_recorded=tracers[0].events_recorded,
               dropped_events=tracers[0].dropped_events,
               trace_path=path)


def run(scale: str | LabScale = "smoke", seed: int = 11) -> list[dict]:
    """Run the full campaign matrix, then the traced cells; returns one
    row dict per cell (the traced cells' rows carry their episodes)."""
    ls = lab_scale(scale, _SCALES)
    rows = [_run_cell(*cell, ls, seed) for cell in cells()]
    by_cell = {(r["substrate"], r["scheme"], r["model"]): r for r in rows}
    for cell in _TRACED_CELLS:
        _trace_cell(by_cell[cell], ls, seed)
    return rows


def _detect(row: dict) -> str:
    latency = row["detect_latency"]
    return f"{latency}c" if latency is not None else "-"


def main(scale: str = "smoke") -> None:
    rows = run(scale)
    print("\n== Fault campaign: substrate x scheme x fault model ==")
    print(f"{'substrate':11s} {'scheme':7s} {'fault':15s} {'detect':>7s}"
          f" {'recov':>9s} {'deliv':>7s} {'lost':>5s}")
    for row in rows:
        recov = str(row["recoveries"])
        if row["token_regenerations"]:
            recov += f"+{row['token_regenerations']}regen"
        print(
            f"{row['substrate']:11s} {row['scheme']:7s} {row['model']:15s}"
            f" {_detect(row):>7s} {recov:>9s}"
            f" {row['delivered']:7d} {row['lost']:5d}"
        )
    print("all cells drained on every substrate; conservation delta 0"
          " everywhere (PR no-kill guarantee holds)")
    print("\n== Traced cells: recovery episodes ==")
    for row in rows:
        if "episodes" not in row:
            continue
        print(f"\n{row['substrate']}/{row['scheme']}/{row['model']}:"
              f" detect={_detect(row)} recoveries={row['recoveries']}"
              f" events={row['events_recorded']}"
              f" (dropped {row['dropped_events']})")
        print(format_episodes(row["episodes"]))
        print(f"trace: {row['trace_path']} (open in ui.perfetto.dev)")
    print("\nperfetto traces valid; traced rows equal the campaign's;"
          " episodes deterministic and detected at the detect column")


if __name__ == "__main__":
    main()
