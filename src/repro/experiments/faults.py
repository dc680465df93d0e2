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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimConfig
from repro.experiments.common import Scale, drain_and_conserve, get_scale
from repro.faults.models import FaultSpec
from repro.sim.engine import build_engine


@dataclass(frozen=True)
class CampaignScale:
    """Run-size knobs for the fault campaign."""

    run_cycles: int
    fault_start: int
    fault_duration: int
    quiesce_cycles: int


_CAMPAIGN_SCALES = {
    "smoke": CampaignScale(
        run_cycles=4000, fault_start=600, fault_duration=2000,
        quiesce_cycles=100_000,
    ),
    "paper": CampaignScale(
        run_cycles=30_000, fault_start=2000, fault_duration=6000,
        quiesce_cycles=200_000,
    ),
}

#: fault models exercised against every scheme (token faults are PR-only).
_COMMON_MODELS = ("consumer-stall", "eject-stall", "link-stall", "router-freeze")

_SCHEMES = ("SA", "DR", "PR")

#: substrates the grid runs on.  Fault targets (router 5, link 3) are
#: interior/busy on all three: the smallest has 9 routers and 22+ links.
_SUBSTRATES = (
    ("torus4x4", {"topology": "torus", "dims": (4, 4)}),
    ("mesh2d4x4", {"topology": "mesh2d", "dims": (4, 4)}),
    ("irregular9", {"topology": "irregular", "dims": (4, 4)}),
)


#: per-scheme network/protocol configuration: each scheme runs its
#: paper-representative cell.  SA needs C >= 2L (PAT721's four-type
#: chains at 8 VCs); DR's detection heuristic needs MSHR headroom below
#: the reply-queue capacity (max_outstanding < queue_capacity), exactly
#: as in the Origin2000, so admission-time reservations cannot starve
#: the service-time ones.
_SCHEME_CONFIG = {
    "SA": {"pattern": "PAT721", "num_vcs": 8, "cwg_interval": 50},
    "DR": {"pattern": "PAT271", "num_vcs": 4, "max_outstanding": 12},
    "PR": {"pattern": "PAT271", "num_vcs": 4},
}


def _specs_for(model: str, cs: CampaignScale) -> tuple[FaultSpec, ...]:
    if model == "token-loss":
        return (FaultSpec("token-loss", start=cs.fault_start),)
    # Targets sit mid-fabric so the fault shadows real traffic:
    # node/router 5 is interior and link 3 carries busy flows on every
    # substrate in the grid (all have >= 9 routers and >= 22 links).
    target = {"link-stall": 3, "router-freeze": 5}.get(model, 5)
    return (
        FaultSpec(model, target=target, start=cs.fault_start,
                  duration=cs.fault_duration),
    )


def _run_cell(scheme: str, model: str, cs: CampaignScale, seed: int,
              tracer=None, substrate: dict | None = None,
              substrate_name: str = "torus4x4") -> dict:
    config = SimConfig(
        **(substrate if substrate is not None
           else {"topology": "torus", "dims": (4, 4)}),
        scheme=scheme,
        load=0.012,
        seed=seed,
        faults=_specs_for(model, cs),
        invariants_every=250,
        # Generous: transient faults stall progress for fault_duration
        # cycles at most, and a recovered system must move again.
        watchdog_timeout=max(4 * cs.fault_duration, 4000),
        **_SCHEME_CONFIG[scheme],
    )
    engine = build_engine(config, tracer)
    engine.run(cs.run_cycles)
    lost = drain_and_conserve(
        engine, f"fault campaign cell {substrate_name}/{scheme}/{model}",
        cs.quiesce_cycles,
    )
    stats = engine.stats
    controller = getattr(engine.scheme, "controller", None)
    detect = (
        stats.first_deadlock_cycle - cs.fault_start
        if stats.first_deadlock_cycle >= 0 else None
    )
    regen = getattr(controller, "token_regenerations", 0)
    row = {
        "substrate": substrate_name,
        "scheme": scheme,
        "model": model,
        "detect_latency": detect,
        "recoveries": engine.scheme.recoveries,
        "token_regenerations": regen,
        "delivered": stats.total.messages_delivered,
        "lost": lost,
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


def run(scale: str | Scale = "smoke", seed: int = 11) -> list[dict]:
    """Run the full campaign matrix; returns one row dict per cell."""
    name = scale if isinstance(scale, str) else get_scale(scale).name
    cs = _CAMPAIGN_SCALES[name]
    rows = []
    for substrate_name, substrate in _SUBSTRATES:
        for scheme in _SCHEMES:
            models = _COMMON_MODELS + (
                ("token-loss",) if scheme == "PR" else ()
            )
            for model in models:
                rows.append(_run_cell(
                    scheme, model, cs, seed, substrate=substrate,
                    substrate_name=substrate_name,
                ))
    return rows


def main(scale: str = "smoke") -> None:
    rows = run(scale)
    print("\n== Fault campaign: substrate x scheme x fault model ==")
    print(f"{'substrate':11s} {'scheme':7s} {'fault':15s} {'detect':>7s}"
          f" {'recov':>7s} {'deliv':>7s} {'lost':>5s}")
    for row in rows:
        detect = (
            f"{row['detect_latency']}c"
            if row["detect_latency"] is not None else "-"
        )
        recov = str(row["recoveries"])
        if row["token_regenerations"]:
            recov += f"+{row['token_regenerations']}regen"
        print(
            f"{row['substrate']:11s} {row['scheme']:7s} {row['model']:15s}"
            f" {detect:>7s} {recov:>7s}"
            f" {row['delivered']:7d} {row['lost']:5d}"
        )
    print("all cells drained on every substrate; conservation delta 0"
          " everywhere (PR no-kill guarantee holds)")


if __name__ == "__main__":
    main()
