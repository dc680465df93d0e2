"""The paper's acceptance tests: each regenerates one table or figure
and asserts its qualitative shape (what makes this a reproduction).

Marked ``paper`` and deselected from the default suite (about a minute
and a half at smoke scale); run with ``pytest -m paper``.  The scale is
the ``REPRO_SCALE`` environment variable (``smoke`` default, ``paper``
for the full 30,000-cycle windows).  Figures 8-11 and the ablations are
scenario-registry campaigns, computed the way the runner computes them,
on every CPU this process may use.
"""

import os

import pytest

from repro.config import ExecutionConfig
from repro.experiments import (
    fig6_load_rates,
    table1_responses,
    table3_distributions,
    trace_deadlocks,
)
from repro.experiments.runner import run_campaign
from repro.experiments.table1_responses import PAPER_TABLE1

#: every CPU this process may run on; no cache, so a figure is computed.
EXECUTION = ExecutionConfig(workers=len(os.sched_getaffinity(0)),
                            use_cache=False)


def figure_curves(name: str, scale) -> list:
    """A registry figure's curves, as the runner computes them."""
    return run_campaign(name, scale, EXECUTION)


def saturation_by_scheme(sweeps) -> dict:
    """{pattern: {scheme[-QA]: saturation throughput}} from curve labels
    ``scheme[-QA]/pattern/Nvc``."""
    table: dict = {}
    for sweep in sweeps:
        scheme, pattern, _ = sweep.label.split("/")
        table.setdefault(pattern, {})[scheme] = sweep.saturation_throughput()
    return table


pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def scale() -> str:
    return os.environ.get("REPRO_SCALE", "smoke")


def test_table1(scale):
    """Regenerate Table 1 (response-type mix per application)."""
    rows = table1_responses.run(scale)
    for app, paper in PAPER_TABLE1.items():
        measured = rows[app]
        for cls, want in paper.items():
            assert measured[cls] == pytest.approx(want, abs=0.06), (app, cls)


def test_fig6(scale):
    """Regenerate Figure 6 (load-rate distributions)."""
    rows = fig6_load_rates.run(scale)
    # FFT, LU and Water spend most of their time under 5% of capacity.
    for app in ("fft", "lu", "water"):
        assert rows[app]["frac_below_5pct"] > 0.6, app
        assert rows[app]["mean"] < 0.08, app
    # Radix is the only application approaching saturation.
    assert rows["radix"]["mean"] > 0.08
    assert rows["radix"]["max"] > 0.2
    assert rows["radix"]["mean"] > 2 * rows["fft"]["mean"]


def test_trace_deadlocks(scale):
    """Section 4.2.2 — zero deadlocks under traces, incl. bristling."""
    rows = trace_deadlocks.run(scale)
    for app, configs in rows.items():
        for name, r in configs.items():
            # Paper: "no deadlock was observed with the bristled networks
            # for all applications."
            assert r["cwg_knots"] == 0, (app, name)
            assert r["timeout_episodes"] == 0, (app, name)
            assert r["messages"] > 0


def test_table3(scale):
    """Regenerate Table 3 (message-type distributions)."""
    rows = table3_distributions.run(scale)
    for name, row in rows.items():
        cf, mc, paper = row["closed_form"], row["monte_carlo"], row["paper"]
        # Monte Carlo agrees with the closed form.
        for a, b in zip(cf, mc):
            assert a == pytest.approx(b, abs=0.02)
        if name == "PAT721":
            # Paper erratum: row sums to 112%; ours must sum to 100%.
            assert sum(cf) == pytest.approx(1.0)
            assert cf[1] == pytest.approx(paper[1], abs=0.005)  # m2 matches
            assert cf[2] == pytest.approx(paper[2], abs=0.005)  # m3 matches
        else:
            for a, p in zip(cf, paper):
                assert a == pytest.approx(p, abs=0.005)


def test_fig8(scale):
    """Figure 8 (4 VCs) — PR dominates when channels are scarce."""
    sat = saturation_by_scheme(figure_curves("fig8", scale))
    # PAT100: "over 100% more throughput than SA" — we assert a clear win.
    assert sat["PAT100"]["PR"] > 1.15 * sat["PAT100"]["SA"]
    # PAT721: "up to 100% more throughput than DR".
    assert sat["PAT721"]["PR"] > 1.2 * sat["PAT721"]["DR"]
    # "As the average chain length increases the difference in improvement
    # reduces but is still substantial": PR never loses.
    for pattern in ("PAT451", "PAT271", "PAT280"):
        assert sat[pattern]["PR"] > 0.95 * sat[pattern]["DR"], pattern
    ratio_721 = sat["PAT721"]["PR"] / sat["PAT721"]["DR"]
    ratio_271 = sat["PAT271"]["PR"] / sat["PAT271"]["DR"]
    assert ratio_721 > ratio_271
    # SA is infeasible for chains > 2 at 4 VCs: absent from those panels.
    assert "SA" not in sat["PAT721"]
    # DR is invalid for the two-type PAT100.
    assert "DR" not in sat["PAT100"]


def test_fig9(scale):
    """Figure 9 (8 VCs) — SA lags on skewed mixes; DR approaches PR."""
    sat = saturation_by_scheme(figure_curves("fig9", scale))
    # "SA saturates at an early load ... particularly acute when the
    # message distribution is concentrated on only a few types".
    assert sat["PAT721"]["PR"] > 1.1 * sat["PAT721"]["SA"]
    # "the difference between SA and PR [is] negligible" for PAT100.
    assert abs(sat["PAT100"]["PR"] - sat["PAT100"]["SA"]) < 0.3 * sat["PAT100"]["PR"]
    # "the difference between DR and PR [is] practically negligible" for
    # chains longer than two.
    for pattern in ("PAT451", "PAT271", "PAT280"):
        assert abs(sat[pattern]["PR"] - sat[pattern]["DR"]) < 0.3 * sat[pattern]["PR"]
    # All three schemes are feasible at 8 VCs for four-type patterns.
    assert {"SA", "DR", "PR"} <= set(sat["PAT721"])


def test_fig10(scale):
    """Figure 10 (16 VCs) — endpoint message coupling dominates."""
    sat = saturation_by_scheme(figure_curves("fig10", scale))
    # "Both of these schemes [DR, PR] have lower throughput than SA due
    # to ... message coupling (and blocking) at network endpoints."
    couplings_hurt = 0
    for pattern, row in sat.items():
        assert row["SA"] > 0.9 * row["PR"], pattern
        if row["SA"] > row["PR"]:
            couplings_hurt += 1
    assert couplings_hurt >= 3  # SA wins on most shared-queue panels
    # With 16 VCs channel balance is no longer the bottleneck: DR is not
    # dramatically behind SA the way it is at 8 VCs.
    for pattern, row in sat.items():
        assert row["DR"] > 0.75 * row["SA"], pattern


def test_fig11(scale):
    """Figure 11 — per-type queue separation (QA) at the endpoints."""
    sweeps = figure_curves("fig11", scale)
    sat = {s.label: s.saturation_throughput() for s in sweeps}
    sa = sat["SA/PAT271/16vc"]
    dr, pr = sat["DR/PAT271/16vc"], sat["PR/PAT271/16vc"]
    dr_qa, pr_qa = sat["DR-QA/PAT271/16vc"], sat["PR-QA/PAT271/16vc"]
    # Shared queues bottleneck DR and PR below SA...
    assert sa >= 0.95 * max(dr, pr)
    # ...and QA separation recovers the loss (paper: "both the DR and PR
    # schemes outperform SA" with per-type queues).
    assert dr_qa > dr and pr_qa > pr
    assert dr_qa > 0.95 * sa
    assert pr_qa > 0.95 * sa


def test_ablations(scale):
    """Design-choice ablations (partitioning, thresholds, timeouts)."""
    sat = {
        name: {s.label: s.saturation_throughput()
               for s in figure_curves(f"ablation-{name}", scale)}
        for name in ("partitioning", "detection-threshold", "router-timeout")
    }
    part = sat["partitioning"]
    assert len(part) == 4
    # Shared extras raise availability (3 -> 9 for SA at 16 VCs); they
    # must not cost throughput.
    for scheme in ("SA", "DR"):
        cell = f"{scheme}/PAT721/16vc/shared_extras="
        assert part[cell + "True"] > 0.85 * part[cell + "False"], scheme
    # Detection threshold: recovery still works across T values.
    assert all(v > 0 for v in sat["detection-threshold"].values())
    # Router timeout: PR functions across the sweep.
    assert all(v > 0 for v in sat["router-timeout"].values())
