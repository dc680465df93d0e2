"""Two-backend equivalence: vector results must be bit-identical.

The vector backend (``SimConfig(backend="vector")``) re-implements the
fabric as struct-of-arrays state advanced by a compiled kernel, but it
must produce *exactly* the results of the reference engine — every
counter, every float accumulation, every per-node controller statistic.
These tests compare deep snapshots of both engines after identical runs:

* a ladder of small deterministic points covering every scheme,
* saturated 8x8 points that exercise deflection and progressive
  rescue (token captures, lane transfers, priority service),
* a hypothesis property over random (dims, scheme, load, seed) points,
* the full seeded smoke campaign grid (marked ``campaign``; run by the
  ``backend-equivalence`` CI job, deselected from the default suite).

There is no tolerance anywhere: any field that differs is a failure.
The only documented divergence between backends is feature *support* —
telemetry, faults, invariants, the watchdog and CWG detection raise
``UnsupportedFeatureError`` on the vector backend (see
``test_unsupported_features_raise``) instead of silently diverging.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.sim.engine import build_engine
from repro.sim.sweep import run_point
from repro.util.errors import UnsupportedFeatureError

pytestmark = []


def engine_snapshot(engine) -> dict:
    """Everything observable about a finished run, for exact comparison."""
    stats = engine.stats
    snap = {
        "now": engine.now,
        "total": dataclasses.asdict(stats.total),
        "by_type": stats.by_type,
        "messages_created": stats.messages_created,
        "first_deadlock_cycle": stats.first_deadlock_cycle,
        "occupancy": engine.fabric.occupancy(),
        "flits_forwarded": engine.fabric.flits_forwarded,
        "flits_injected": engine.fabric.flits_injected,
        "flits_ejected": engine.fabric.flits_ejected,
        "alloc_failures": engine.fabric.alloc_failures,
        "queued": engine.total_queued_messages(),
        "outstanding": [ni.outstanding for ni in engine.interfaces],
        "serviced": [ni.controller.messages_serviced for ni in engine.interfaces],
        "busy_cycles": [ni.controller.busy_cycles for ni in engine.interfaces],
        "source_depth": [len(ni.source_queue) for ni in engine.interfaces],
        "deadlocks_detected": engine.scheme.deadlocks_detected,
        "recoveries": engine.scheme.recoveries,
    }
    controller = getattr(engine.scheme, "controller", None)
    for field in (
        "deflections",
        "rescues",
        "router_captures",
        "ni_captures",
        "token_regenerations",
    ):
        if controller is not None and hasattr(controller, field):
            snap[field] = getattr(controller, field)
    return snap


def assert_backends_identical(cycles: int, **cfg) -> dict:
    ref = build_engine(SimConfig(backend="reference", **cfg))
    vec = build_engine(SimConfig(backend="vector", **cfg))
    ref.run(cycles)
    vec.run(cycles)
    a, b = engine_snapshot(ref), engine_snapshot(vec)
    assert a == b, (
        "backend divergence for "
        f"{cfg}: "
        + ", ".join(f"{k}: {a[k]!r} != {b[k]!r}" for k in a if a[k] != b[k])
    )
    return a


LADDER = [
    dict(scheme="SA", pattern="PAT721", dims=(4, 4), num_vcs=8, load=0.02, seed=1),
    dict(scheme="NONE", pattern="PAT721", dims=(4, 4), num_vcs=4, load=0.05, seed=2),
    dict(scheme="DR", pattern="PAT721", dims=(4, 4), num_vcs=4, load=0.05, seed=1),
    dict(scheme="DR", pattern="PAT721", dims=(4, 4), num_vcs=4, load=0.1, seed=3),
    dict(scheme="PR", pattern="PAT721", dims=(4, 4), num_vcs=4, load=0.05, seed=1),
    dict(scheme="PR", pattern="PAT721", dims=(4, 4), num_vcs=4, load=0.1, seed=2),
    dict(scheme="PR", pattern="PAT271", dims=(4, 4), num_vcs=4, load=0.08, seed=4),
    # 256 routers: direction ties (delta == k/2) and dateline escape
    # classes far from the origin, where the route table is broadcast.
    dict(scheme="DR", pattern="PAT721", dims=(16, 16), num_vcs=8, load=0.01, seed=5),
    dict(scheme="SA", pattern="PAT721", dims=(8, 8, 4), num_vcs=8, load=0.01, seed=6),
]


@pytest.mark.parametrize(
    "cfg", LADDER, ids=[f"{c['scheme']}-{c['load']}-s{c['seed']}" for c in LADDER]
)
def test_small_points_bit_identical(cfg):
    assert_backends_identical(4000, **cfg)


TOPOLOGY_LADDER = [
    dict(topology="fullmesh", dims=(2, 4), scheme="SA", pattern="PAT721",
         num_vcs=8, load=0.02, seed=1),
    dict(topology="fullmesh", dims=(2, 4), scheme="PR", pattern="PAT271",
         num_vcs=4, load=0.05, seed=2),
    dict(topology="mesh2d", dims=(4, 4), scheme="DR", pattern="PAT271",
         num_vcs=4, load=0.05, seed=1),
    dict(topology="mesh2d", dims=(4, 4), scheme="PR", pattern="PAT721",
         num_vcs=4, load=0.05, seed=3),
    dict(topology="irregular", scheme="SA", pattern="PAT721",
         num_vcs=8, load=0.02, seed=1),
    dict(topology="irregular", scheme="DR", pattern="PAT271",
         num_vcs=8, load=0.03, seed=4),
    dict(topology="irregular", scheme="PR", pattern="PAT271",
         num_vcs=4, load=0.05, seed=2),
]


@pytest.mark.parametrize(
    "cfg", TOPOLOGY_LADDER,
    ids=[f"{c['topology']}-{c['scheme']}-s{c['seed']}"
         for c in TOPOLOGY_LADDER],
)
def test_new_topology_points_bit_identical(cfg):
    """Table routing exports to the kernel identically to the reference
    engine on full-mesh, open-mesh and irregular substrates."""
    assert_backends_identical(4000, **cfg)


def test_saturated_pr_exercises_rescue():
    """8x8 PR past saturation: token captures and lane rescues occur and agree."""
    snap = assert_backends_identical(
        2500,
        scheme="PR", pattern="PAT721", dims=(8, 8), num_vcs=4,
        load=0.014, seed=3,
    )
    assert snap["rescues"] > 0, "point too light to exercise the rescue path"


def test_saturated_dr_exercises_deflection():
    snap = assert_backends_identical(
        4000,
        scheme="DR", pattern="PAT271", dims=(8, 8), num_vcs=4,
        load=0.022, seed=4,
    )
    assert snap["deflections"] > 0, "point too light to exercise deflection"


def test_dr_drain_mode_rearm_ties_identical():
    """Timer-expiry ordering audit: same-cycle ties + mid-loop re-arm.

    DR's drain policy keeps deflecting queue heads in a while-loop after
    the first success, which re-arms the detector *mid-step* — the
    vector bank's ``_rearm_midloop`` path, which must leave the site
    dirty so the next cycle re-collects a still-fired detector even
    though its calendar entry is stale.  At saturation several nodes'
    timers expire on the same cycle, so this also pins the bank's
    expiry ordering against the reference engine's build-order scan.
    """
    snap = assert_backends_identical(
        4000,
        scheme="DR", pattern="PAT271", dims=(8, 8), num_vcs=4,
        load=0.022, seed=4, recovery_policy="drain",
    )
    assert snap["deflections"] > 1, (
        "point too light to exercise drain-mode re-arm"
    )


def test_run_point_results_identical():
    """The sweep-facing surface (RunResult) agrees field for field."""
    base = dict(
        scheme="DR", pattern="PAT721", dims=(4, 4), num_vcs=4,
        load=0.06, seed=5,
    )
    ref = run_point(SimConfig(backend="reference", **base), warmup=500, measure=1500)
    vec = run_point(SimConfig(backend="vector", **base), warmup=500, measure=1500)
    assert ref == vec


@given(
    scheme=st.sampled_from(["NONE", "DR", "PR"]),
    dims=st.sampled_from([(3, 3), (4, 4), (2, 4), (5,)]),
    load=st.sampled_from([0.01, 0.04, 0.09]),
    seed=st.integers(min_value=0, max_value=2**16),
    pattern=st.sampled_from(["PAT721", "PAT271"]),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_points_bit_identical(scheme, dims, load, seed, pattern):
    assert_backends_identical(
        900,
        scheme=scheme, pattern=pattern, dims=dims, num_vcs=4,
        load=load, seed=seed,
    )


def test_unsupported_features_raise():
    """Introspection layers must refuse loudly, never silently diverge."""
    base = dict(scheme="PR", pattern="PAT721", dims=(4, 4), num_vcs=4, load=0.01)
    for extra in (
        dict(watchdog_timeout=1000),
        dict(invariants_every=100),
        dict(cwg_interval=50),
        dict(detector="cmh"),
        dict(detector="timeout"),
    ):
        with pytest.raises(UnsupportedFeatureError):
            build_engine(SimConfig(backend="vector", **base, **extra))
    engine = build_engine(SimConfig(backend="vector", **base))
    with pytest.raises(UnsupportedFeatureError):
        engine.attach_tracer(object())


# ----------------------------------------------------------------------
# The full seeded smoke campaign, per point (CI: backend-equivalence).
# ----------------------------------------------------------------------

def smoke_campaign_points() -> list[dict]:
    """The seeded smoke grid: every scheme/pattern at sweep loads."""
    points = []
    for scheme, num_vcs in [("SA", 8), ("NONE", 4), ("DR", 4), ("PR", 4)]:
        for pattern in ("PAT721", "PAT271"):
            if scheme == "DR" and pattern == "PAT271":
                continue  # DR needs a request-generating chain of length > 2
            for load in (0.004, 0.01, 0.02):
                points.append(
                    dict(
                        scheme=scheme, pattern=pattern, dims=(4, 4),
                        num_vcs=num_vcs, load=load, seed=7,
                    )
                )
    return points


@pytest.mark.campaign
@pytest.mark.parametrize(
    "cfg",
    smoke_campaign_points(),
    ids=lambda c: f"{c['scheme']}-{c['pattern']}-{c['load']}",
)
def test_smoke_campaign_point_identical(cfg):
    ref = run_point(SimConfig(backend="reference", **cfg), warmup=1000, measure=2500)
    vec = run_point(SimConfig(backend="vector", **cfg), warmup=1000, measure=2500)
    assert ref == vec
