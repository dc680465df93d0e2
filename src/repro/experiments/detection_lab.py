"""Detection lab: detector x scheme comparison against CWG ground truth.

Runs every in-band detection mechanism (``endpoint``, ``cmh``,
``timeout``) over a small grid of cells with the omniscient CWG checker
scoring each run:

* ``none-light`` — detection-only at a comfortable load: the CWG
  checker certifies the run deadlock-free, so any detection here is a
  false positive;
* ``none-heavy`` — detection-only at saturation: the run wedges into
  real CWG knots and nothing recovers, so detection latency and
  coverage are measured against persisting deadlock;
* ``dr-stall`` / ``pr-stall`` — a consumer-stall fault wedges a DR/PR
  run, and the *detector drives recovery*: delivered messages per cell
  show what detection quality is worth end to end.

Reported per (cell x detector): detections, first-detection latency,
formation->detection latency from stitched recovery episodes, probe
overhead (CMH's message bill), recoveries, delivered messages and CWG
knots.  Hard guarantees enforced (the run raises on violation):

* the three detectors never perturb a detection-only run — the CWG
  knot count and delivered totals are identical across detectors on
  NONE cells (detection is observation there, not action);
* CMH declares (finite first detection) on every NONE run the CWG
  checker marks deadlocked — no false negatives on true deadlocks;
* the cycle-proving detectors (endpoint, cmh) report zero detections
  on runs the CWG checker certifies deadlock-free;
* probe traffic is visible in the telemetry trace of every CMH run
  that sent probes;
* DR/PR stall cells drain completely with zero conservation delta
  under every detector.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimConfig
from repro.experiments.common import SCHEME_CELLS, LabScale, lab_scale, run_cell
from repro.faults.models import FaultSpec
from repro.telemetry import Tracer, stitch_episodes
from repro.telemetry import events as ev

DETECTORS = ("endpoint", "cmh", "timeout")

_PROBE_KINDS = frozenset(
    (ev.PROBE_SEND, ev.PROBE_FORWARD, ev.PROBE_RETURN, ev.PROBE_DROP)
)

_SCALES = {
    "smoke": LabScale(
        "smoke", run_cycles=4000, fault_start=600, fault_duration=2000,
        quiesce_cycles=100_000,
    ),
    "paper": LabScale(
        "paper", run_cycles=20_000, fault_start=2000, fault_duration=6000,
        quiesce_cycles=200_000,
    ),
}


@dataclass(frozen=True)
class LabCell:
    """One column of the lab grid (each cell runs once per detector).

    Seeds are pinned per cell: ``none-heavy`` at seed 1 reliably wedges
    the 4x4 torus into CWG knots within the smoke window, which the
    no-false-negative guarantee needs.  A ``stall_fault`` cell gets a
    consumer stall, the watchdog, and a drain.
    """

    name: str
    config: SimConfig
    stall_fault: bool = False


_NONE_CELL = SimConfig(dims=(4, 4), scheme="NONE", pattern="PAT721",
                       num_vcs=4, seed=1, cwg_interval=25)

CELLS = (
    LabCell("none-light", _NONE_CELL.with_(load=0.008)),
    LabCell("none-heavy", _NONE_CELL.with_(load=0.020)),
    LabCell("dr-stall", SCHEME_CELLS["DR"].with_(
        dims=(4, 4), load=0.012, seed=11, cwg_interval=50), stall_fault=True),
    LabCell("pr-stall", SCHEME_CELLS["PR"].with_(
        dims=(4, 4), load=0.012, seed=11, cwg_interval=50), stall_fault=True),
)


def cell_config(cell: LabCell, detector: str, ls: LabScale) -> SimConfig:
    faults = ()
    watchdog = 0
    if cell.stall_fault:
        faults = (
            FaultSpec("consumer-stall", target=5, start=ls.fault_start,
                      duration=ls.fault_duration),
        )
        watchdog = max(4 * ls.fault_duration, 4000)
    return cell.config.with_(
        detector=detector,
        faults=faults,
        invariants_every=250,
        watchdog_timeout=watchdog,
    )


def _run_cell(cell: LabCell, detector: str, ls: LabScale) -> dict:
    """Run one (cell, detector) point; returns its metrics row."""
    tracer = Tracer(level="message")
    engine, _ = run_cell(
        cell_config(cell, detector, ls), ls,
        f"detection lab cell {cell.name}/{detector}", tracer,
        drain=cell.stall_fault,
    )

    stats = engine.stats
    first = stats.first_deadlock_cycle if stats.first_deadlock_cycle >= 0 else None
    detect_latency = None
    if first is not None:
        detect_latency = first - (ls.fault_start if cell.stall_fault else 0)

    episodes = stitch_episodes(tracer)
    episode_latencies = [
        epi.detection_latency for epi in episodes
        if epi.detection_latency is not None
    ]
    probe_events = sum(
        1 for _, kind, _ in tracer.events if kind in _PROBE_KINDS
    )
    overhead = engine.detector.overhead()
    knots = engine.cwg_knots_seen
    detections = engine.scheme.deadlocks_detected
    return {
        "cell": cell.name,
        "scheme": cell.config.scheme,
        "detector": detector,
        "load": cell.config.load,
        "detections": detections,
        "first_detection": first,
        "detect_latency": detect_latency,
        "mean_episode_latency": (
            sum(episode_latencies) / len(episode_latencies)
            if episode_latencies else None
        ),
        "episodes": len(episodes),
        "recoveries": engine.scheme.recoveries,
        "delivered": stats.total.messages_delivered,
        "lost": 0 if cell.stall_fault else None,
        "cwg_knots_seen": knots,
        # A detection on a run the CWG checker certified deadlock-free.
        "false_positives": detections if knots == 0 and not cell.stall_fault
        else 0,
        "probe_events": probe_events,
        **overhead,
    }


def _check_guarantees(rows: list[dict]) -> None:
    by_cell: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_cell.setdefault(row["cell"], {})[row["detector"]] = row

    for name, per_det in by_cell.items():
        if not name.startswith("none-"):
            continue
        # Non-perturbation: NONE runs are data-plane identical across
        # detectors, so the ground truth and traffic must agree.
        knots = {d: r["cwg_knots_seen"] for d, r in per_det.items()}
        delivered = {d: r["delivered"] for d, r in per_det.items()}
        if len(set(knots.values())) != 1 or len(set(delivered.values())) != 1:
            raise RuntimeError(
                f"{name}: detectors perturbed a detection-only run:"
                f" knots={knots} delivered={delivered}"
            )
        for detector, row in per_det.items():
            if row["cwg_knots_seen"] > 0 and detector == "cmh":
                # No false negatives: CMH must declare on a CWG-
                # certified deadlocked run.
                if row["first_detection"] is None:
                    raise RuntimeError(
                        f"{name}: CWG saw {row['cwg_knots_seen']} knot(s)"
                        " but CMH never declared"
                    )
            if row["cwg_knots_seen"] == 0 and detector in ("endpoint", "cmh"):
                if row["detections"] != 0:
                    raise RuntimeError(
                        f"{name}/{detector}: {row['detections']} detection(s)"
                        " on a CWG-certified deadlock-free run"
                    )
    # The lab must include at least one genuinely deadlocked cell, or
    # the latency/coverage comparison measured nothing.
    if not any(
        r["cwg_knots_seen"] > 0 for r in rows if r["cell"] == "none-heavy"
    ):
        raise RuntimeError("none-heavy never wedged: no ground truth to score")
    for row in rows:
        if row["detector"] == "cmh" and row["probes_sent"] > 0:
            if row["probe_events"] == 0:
                raise RuntimeError(
                    f"{row['cell']}: {row['probes_sent']} probes sent but"
                    " none visible in the telemetry trace"
                )


def run(scale: str | LabScale = "smoke") -> list[dict]:
    """Run the full grid; returns one row dict per (cell, detector)."""
    ls = lab_scale(scale, _SCALES)
    rows = [_run_cell(cell, detector, ls)
            for cell in CELLS for detector in DETECTORS]
    _check_guarantees(rows)
    return rows


def main(scale: str = "smoke") -> None:
    rows = run(scale)
    print("\n== Detection lab: detector x scheme vs CWG ground truth ==")
    print(f"{'cell':11s} {'detector':9s} {'ndet':>5s} {'detect':>7s}"
          f" {'ep.lat':>7s} {'fp':>3s} {'recov':>6s} {'deliv':>6s}"
          f" {'knots':>6s} {'probes':>7s} {'p.hops':>7s}")
    for row in rows:
        detect = (
            f"{row['detect_latency']}c"
            if row["detect_latency"] is not None else "-"
        )
        eplat = (
            f"{row['mean_episode_latency']:.0f}c"
            if row["mean_episode_latency"] is not None else "-"
        )
        probes = (
            f"{row['probes_sent']}/{row['probes_returned']}"
            if row["probes_sent"] else "-"
        )
        print(
            f"{row['cell']:11s} {row['detector']:9s} {row['detections']:5d}"
            f" {detect:>7s} {eplat:>7s} {row['false_positives']:3d}"
            f" {row['recoveries']:6d} {row['delivered']:6d}"
            f" {row['cwg_knots_seen']:6d} {probes:>7s} {row['probe_hops']:7d}"
        )
    print("\nguarantees held: detectors non-perturbing on NONE cells;"
          " CMH declared on every CWG-deadlocked run; zero endpoint/CMH"
          " false positives on certified-free runs; stall cells drained"
          " under every detector")


if __name__ == "__main__":
    main()
