"""CDG lab: cross-validate static certification against simulation.

:mod:`repro.analysis.cdg` decides deadlock freedom *statically* — it
never runs a cycle of simulation.  This experiment closes the loop by
checking both directions of that claim dynamically:

* **Static phase** — every built-in (topology, routing) pair gets
  certified; any verdict that disagrees with its registered expectation
  (or any un-annotated refutation) raises, exactly like the
  ``labs-smoke`` CI gate (its ``cdg-check`` step).
* **REFUTED pairs deadlock** — for each small refuted pair we run the
  simulator in the configuration that realizes that routing (PR's true
  fully adaptive routing) at a provoking load and require the endpoint
  detector to confirm at least one real deadlock.  A refutation that
  never manifests would suggest the extractor hallucinates cycles.
* **CERTIFIED pairs never deadlock** — for certified escape-routed
  pairs we run SA (pure avoidance over that routing) under saturation
  with the omniscient CWG ground-truth checker on, and require zero
  detected deadlocks *and* zero CWG knots.  A knot under a certified
  routing would disprove the witness ordering.

Note the asymmetry: the certifier talks about *routing* deadlock, so
the dynamic CERTIFIED check uses SA, whose queue-class partitioning
removes message-dependent (protocol) deadlock from the picture.
"""

from __future__ import annotations

from repro.analysis import check_all, gate_failures
from repro.config import SimConfig
from repro.experiments.common import (
    CDG_CERTIFIED_CELLS,
    CDG_REFUTED_CELLS,
    LabScale,
    lab_scale,
    run_cell,
)

#: run sizes of the dynamic phases (cells are not drained).
_SCALES = {
    "smoke": LabScale("smoke", warmup=500, measure=2500),
    "paper": LabScale("paper", warmup=2000, measure=10_000),
}


def _run_dynamic(pair_name: str, config: SimConfig, ls: LabScale
                 ) -> tuple[int, int]:
    """(detected deadlocks, CWG knots) over one measured window."""
    engine, window = run_cell(config.with_(watchdog_timeout=8000), ls,
                              f"cdg lab cell {pair_name}", drain=False)
    assert window is not None  # a measured scale
    deadlocks = window.deadlocks + window.deadlocks_unresolved
    return deadlocks, engine.cwg_knots_seen


def run(scale: str | LabScale = "smoke") -> dict:
    """Static + dynamic cross-validation; raises on any disagreement."""
    ls = lab_scale(scale, _SCALES)

    reports = check_all()
    problems = gate_failures(reports)
    if problems:
        raise RuntimeError("cdg gate failures: " + "; ".join(problems))

    refuted_rows = []
    for pair_name, config in CDG_REFUTED_CELLS:
        deadlocks, _ = _run_dynamic(pair_name, config, ls)
        if deadlocks == 0:
            raise RuntimeError(
                f"{pair_name} is statically REFUTED but the simulator"
                " saw no deadlock — provoke harder or distrust the cycle"
            )
        refuted_rows.append({"pair": pair_name, "deadlocks": deadlocks})

    certified_rows = []
    for pair_name, config in CDG_CERTIFIED_CELLS:
        deadlocks, knots = _run_dynamic(pair_name, config, ls)
        if deadlocks or knots:
            raise RuntimeError(
                f"{pair_name} is statically CERTIFIED but the simulator"
                f" saw {deadlocks} deadlock(s) / {knots} CWG knot(s) —"
                " the witness ordering is wrong"
            )
        certified_rows.append({"pair": pair_name, "deadlocks": 0,
                               "cwg_knots": knots})

    return {
        "reports": [r.to_dict() for r in reports],
        "refuted": refuted_rows,
        "certified": certified_rows,
    }


def main(scale: str = "smoke") -> None:
    result = run(scale)
    print("\n== CDG lab: static certification vs simulated deadlock ==")
    print(f"{'pair':26s} {'static':10s} {'dynamic':s}")
    for report in result["reports"]:
        print(f"{report['name']:26s} {report['verdict']:10s} -")
    for row in result["refuted"]:
        print(f"{row['pair']:26s} {'REFUTED':10s}"
              f" {row['deadlocks']} detector-confirmed deadlock(s)")
    for row in result["certified"]:
        print(f"{row['pair']:26s} {'CERTIFIED':10s}"
              " 0 deadlocks, 0 CWG knots under saturation")
    print("static verdicts and simulation agree on every cross-checked"
          " pair")


if __name__ == "__main__":
    main()
