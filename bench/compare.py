"""``python3 -m bench --compare A.json B.json``.

Per workload and end-to-end metric: both medians, the ratio B/A with A
as its base, the bound, and a verdict.

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    it is, and both sides' spreads are within the bound.
``unresolved``
    a side's spread — (max - min) / median of its repeats — is wider
    than the bound, so the medians cannot tell; unless every repeat of B
    reads better than every repeat of A, which is ``ok``.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench import spec


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one metric cell pair."""
    lower = better == "lower"
    if max(a["spread"], b["spread"]) > bound:
        dominates = (
            max(b["values"]) < min(a["values"]) if lower
            else min(b["values"]) > max(a["values"])
        )
        return "ok" if dominates else "unresolved"
    change = b["median"] / a["median"] - 1.0
    worsening = change if lower else -change
    return "worse" if worsening > bound else "ok"


def compare_files(path_a: Path, path_b: Path) -> int:
    """Print the table; 1 if any cell is ``worse``, else 0."""
    a = json.loads(path_a.read_text("utf-8"))["workloads"]
    b = json.loads(path_b.read_text("utf-8"))["workloads"]
    print(f"A = {path_a}\nB = {path_b}   (ratios are B / A)")
    print(f"{'workload':<18}{'metric':<18}{'A':>12}{'B':>12}{'B/A':>8}"
          f"{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict")
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    for workload in spec.WORKLOAD_NAMES:
        if workload not in a or workload not in b:
            continue
        for name in spec.END_TO_END_NAMES:
            cell_a = a[workload]["end_to_end"][name]
            cell_b = b[workload]["end_to_end"][name]
            bound = spec.BOUNDS[name]
            result = verdict(cell_a, cell_b, spec.BETTER[name], bound)
            counts[result] += 1
            print(f"{workload:<18}{name:<18}{cell_a['median']:>12.5g}"
                  f"{cell_b['median']:>12.5g}"
                  f"{cell_b['median'] / cell_a['median']:>8.3f}{bound:>7g}"
                  f"{cell_a['spread']:>10.3f}{cell_b['spread']:>10.3f}"
                  f"  {result}")
        for side, entry in (("A", a[workload]), ("B", b[workload])):
            if entry["failed"]:
                counts["worse"] += 1
                print(f"{workload:<18}failed_frac: {side} has"
                      f" {entry['failed']} failed points  worse")
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["worse"] else 0
