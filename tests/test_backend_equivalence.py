"""Two-backend equivalence: vector results must be bit-identical.

The vector backend (``SimConfig(backend="vector")``) re-implements the
fabric as struct-of-arrays state advanced by a compiled kernel, but it
must produce *exactly* the results of the reference engine — every
counter, every float accumulation, every per-node controller statistic.
These tests compare deep snapshots of both engines after identical runs:

* a ladder of small deterministic points covering every scheme,
* saturated 8x8 points that exercise deflection and progressive
  rescue (token captures, lane transfers, priority service),
* a hypothesis property over random points that also draws the knobs
  exact endpoint waking depends on (MSHRs, queue sizes and modes,
  service times, bristling, detector and recovery settings) and the
  observers (periodic CWG checks, runtime invariants, the liveness
  watchdog), compared again after ``quiesce`` — an observer that stops
  a run must stop both at the same cycle with the same dump,
* traced cells: a message-level tracer records the same events and
  samples, exports the same Perfetto document and stitches the same
  episodes on both backends, and changes no result on either,
* the full seeded smoke campaign grid and every vector-capable point of
  the scenario library, traced (marked ``campaign``; run by the
  ``backend-equivalence`` CI job, deselected from the default suite).

There is no tolerance anywhere: any field that differs is a failure.
The only documented divergence between backends is feature *support* —
what ``reference_only_features`` lists raises ``UnsupportedFeatureError``
on a config pinned to the vector backend (see
``test_unsupported_features_raise``) instead of silently diverging.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.experiments.common import SCALES
from repro.faults import FaultSpec
from repro.service.scenarios import SCENARIOS
from repro.sim.engine import build_engine, resolve_backend
from repro.sim.sweep import run_point, summarize_window
from repro.telemetry import Tracer, stitch_episodes, to_perfetto
from repro.util.errors import (
    ConfigurationError,
    DiagnosedError,
    LivenessError,
    UnsupportedFeatureError,
)

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
        "cwg_knots_seen": engine.cwg_knots_seen,
        "checks_run": engine.invariants.checks_run if engine.invariants else 0,
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


def assert_snapshots_equal(ref, vec, what: str) -> dict:
    a, b = engine_snapshot(ref), engine_snapshot(vec)
    assert a == b, (
        f"backend divergence {what}: "
        + ", ".join(f"{k}: {a[k]!r} != {b[k]!r}" for k in a if a[k] != b[k])
    )
    return a


def assert_traces_equal(ref: Tracer, vec: Tracer, what: str) -> None:
    """Everything a tracer holds and everything built from it."""
    for i, (a, b) in enumerate(zip(ref.events, vec.events)):
        assert a == b, f"trace divergence {what}: event {i}: {a!r} != {b!r}"
    assert len(ref.events) == len(vec.events), what
    assert ref.events_recorded == vec.events_recorded, what
    assert ref.samples == vec.samples, what
    assert json.dumps(to_perfetto(ref), sort_keys=True) == json.dumps(
        to_perfetto(vec), sort_keys=True
    ), what
    assert stitch_episodes(ref) == stitch_episodes(vec), what


def outcome(phase, engine):
    """``phase(engine)``'s value, or the diagnosed failure that ended
    it: the error's type, message and dump."""
    try:
        return phase(engine)
    except DiagnosedError as exc:
        return type(exc).__name__, str(exc), exc.dump


def assert_backends_identical(cycles: int, drain: int = 0,
                              trace: bool = False, **cfg) -> dict:
    """Run both backends ``cycles`` and compare; with ``drain``, stop
    traffic, ``quiesce(drain)`` both and compare again.  With ``trace``
    both runs carry a tracer, which must see the same things too.  A
    run an observer stops must stop on both, with the same error and
    dump, and is compared where it stopped."""
    ref = build_engine(SimConfig(backend="reference", **cfg))
    vec = build_engine(SimConfig(backend="vector", **cfg))
    if trace:
        tracers = Tracer(sample_every=100), Tracer(sample_every=100)
        ref.attach_tracer(tracers[0])
        vec.attach_tracer(tracers[1])
    phases = [("", lambda e: e.run(cycles))]
    if drain:
        phases.append(("after quiesce ", lambda e: bool(e.quiesce(drain))))
    for label, phase in phases:
        what = f"{label}for {cfg}"
        result = outcome(phase, ref)
        assert result == outcome(phase, vec), what
        if trace:
            assert_traces_equal(*tracers, what)
        snap = assert_snapshots_equal(ref, vec, what)
        if isinstance(result, tuple):  # stopped: nothing left to run
            break
    return snap


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


_OBSERVERS = dict(cwg_interval=100, invariants_every=200, watchdog_timeout=600)

#: every observer armed: (config, whether the watchdog stops the run)
OBSERVED_CELLS = {
    # NONE never recovers: the watchdog stops it, dump and knots included
    "NONE-wedge": (dict(scheme="NONE", pattern="PAT271", dims=(4, 4),
                        num_vcs=4, load=0.1, seed=1, queue_capacity=2),
                   True),
    "PR-721-8x8": (dict(scheme="PR", pattern="PAT721", dims=(8, 8),
                        num_vcs=4, load=0.014, seed=3), False),
    "DR-271-8x8": (dict(scheme="DR", pattern="PAT271", dims=(8, 8),
                        num_vcs=4, load=0.022, seed=4), False),
}


@pytest.mark.parametrize("cell", OBSERVED_CELLS)
def test_observed_points_identical(cell):
    """CWG checks, invariants and the watchdog see the same run on both
    backends, and a run the watchdog stops stops at the same cycle."""
    cfg, stops = OBSERVED_CELLS[cell]
    snap = assert_backends_identical(3000, **cfg, **_OBSERVERS)
    assert (snap["now"] < 3000) == stops
    assert snap["checks_run"] == snap["now"] // 200 > 0
    assert (snap["cwg_knots_seen"] > 0) == stops


@pytest.mark.campaign
def test_dr_long_window_wedge_is_one_knot_on_both_backends():
    """ROADMAP item 1's DR/PAT721 cell at ``max_outstanding=12``: the
    watchdog stops it at cycle 31 631 on either engine, with one CWG
    knot and the same dump — the second long-window regression cell."""
    cfg = dict(scheme="DR", pattern="PAT721", dims=(8, 8), num_vcs=4,
               load=0.012, seed=3, max_outstanding=12,
               watchdog_timeout=1500)
    dumps = []
    for backend in ("reference", "vector"):
        engine = build_engine(SimConfig(backend=backend, **cfg))
        with pytest.raises(LivenessError) as excinfo:
            engine.run(35_000)
        assert engine.now == 31_631
        dumps.append(excinfo.value.dump)
    assert dumps[0] == dumps[1]
    assert len(dumps[0]["cwg_knots"]) == 1


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
    scheme=st.sampled_from(["NONE", "DR", "PR", "SA"]),
    dims=st.sampled_from([(3, 3), (4, 4), (2, 4), (5,)]),
    load=st.sampled_from([0.01, 0.04, 0.09]),
    seed=st.integers(min_value=0, max_value=2**16),
    pattern=st.sampled_from(["PAT721", "PAT271"]),
    # What exact waking depends on: MSHR- and reservation-bound
    # admission, per-type queues with several injection pairs, short
    # and long services, several nodes per router, detector and
    # recovery timing.
    trace=st.booleans(),
    knobs=st.fixed_dictionaries(dict(
        max_outstanding=st.sampled_from([1, 2, 4, 16]),
        queue_capacity=st.sampled_from([2, 4, 8, 16]),
        service_time=st.sampled_from([1, 5, 40]),
        sink_time=st.sampled_from([1, 3]),
        bristling=st.sampled_from([1, 2]),
        flit_buffer_depth=st.sampled_from([1, 2, 4]),
        queue_mode=st.sampled_from(["auto", "shared", "per-net", "per-type"]),
        recovery_policy=st.sampled_from(["minimum", "drain"]),
        token_ring=st.sampled_from(["interleaved", "routers-first"]),
        detection_threshold=st.sampled_from([5, 25]),
        detector=st.sampled_from(["endpoint", "timeout"]),
        timeout_threshold=st.sampled_from([20, 200]),
        # the observers: they read the run, and may stop it
        cwg_interval=st.sampled_from([0, 100]),
        invariants_every=st.sampled_from([0, 200]),
        watchdog_timeout=st.sampled_from([0, 600]),
    )),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_points_bit_identical(scheme, dims, load, seed, pattern,
                                     trace, knobs):
    cfg = dict(
        scheme=scheme, pattern=pattern, dims=dims,
        num_vcs=8 if scheme == "SA" else 4, load=load, seed=seed, **knobs,
    )
    if scheme == "SA":
        cfg["detector"] = "endpoint"  # SA runs no detector
    try:
        build_engine(SimConfig(**cfg))
    except ConfigurationError:
        reject()  # e.g. SA with shared queues: not a point, not a failure
    assert_backends_identical(900, drain=3000, trace=trace, **cfg)


def test_failed_drain_reports_on_both_backends():
    """A drain that cannot finish returns a dump, it does not crash,
    and it is the same dump on both backends, CWG knots included.

    NONE never recovers, so this saturated 4x4 point wedges; the dump's
    conservation section walks every message the fabric holds, which
    used to reach into reference-fabric internals (``link_vcs``) and
    raise ``AttributeError`` on the vector backend.
    """
    cfg = dict(scheme="NONE", pattern="PAT271", dims=(4, 4), num_vcs=4,
               load=0.1, seed=1, queue_capacity=2)
    results = {}
    for backend in ("reference", "vector"):
        engine = build_engine(SimConfig(backend=backend, **cfg))
        engine.run(1500)
        results[backend] = result = engine.quiesce(3000)
        assert not result
        assert result.dump["reason"].startswith("quiesce failed")
        assert result.dump["conservation"]["delta"] == 0
        assert "CWG knots" in repr(result)
    ref, vec = results["reference"].dump, results["vector"].dump
    assert ref == vec
    assert ref["conservation"]["live"] > 0
    assert vec["cwg_knots"]


def test_fabric_queries_agree():
    """What the observers ask a fabric — owned channels and where each
    is routed, waiting headers with the fields their candidate row
    reads, the buffer audit — has one answer, in one order."""
    def answers(engine):
        fabric = engine.fabric
        key = (lambda s: ("inj", s.node, s.vc_class) if s.is_injection
               else ("vc", s.link.lid, s.index))
        return (
            [(key(c), None if n is None else key(n))
             for c, n in fabric.owned_channels()],
            [(key(s), s.owner.blocked_since, s.owner.hops,
              s.owner.crossed_mask) for s in fabric.frontier_senders()],
            fabric.buffer_audit(),
        )

    cfg = dict(scheme="PR", pattern="PAT721", dims=(8, 8), num_vcs=4,
               load=0.014, seed=3)
    engines = [build_engine(SimConfig(backend=b, **cfg))
               for b in ("reference", "vector")]
    for engine in engines:
        engine.run(1500)
    ref, vec = map(answers, engines)
    assert ref == vec
    owned, frontiers, (ledger, buffered, bad) = ref
    assert any(n is not None for _, n in owned)
    assert any(mask for *_, mask in frontiers), "no header past a dateline"
    assert ledger == buffered > 0 and bad is None


def test_unsupported_features_raise():
    """Introspection layers must refuse loudly, never silently diverge."""
    base = dict(scheme="PR", pattern="PAT721", dims=(4, 4), num_vcs=4, load=0.01)
    for extra in (
        dict(faults=(FaultSpec("consumer-stall", target=5, start=50),)),
        dict(detector="cmh"),
    ):
        with pytest.raises(UnsupportedFeatureError):
            build_engine(SimConfig(backend="vector", **base, **extra))
    # Message-level tracing is supported; VC grants and token hops are
    # not, and say so when the tracer is attached, not mid-run.
    engine = build_engine(SimConfig(backend="vector", **base))
    with pytest.raises(UnsupportedFeatureError, match="flit-level"):
        engine.attach_tracer(Tracer(level="flit"))
    assert engine.tracer is None and engine.fabric.tracer is None
    engine.run(50)  # and the refused tracer left nothing behind


# ----------------------------------------------------------------------
# Traced runs: the vector backend reports what the reference reports.
# ----------------------------------------------------------------------

def traced_point(config: SimConfig, warmup: int, measure: int):
    """``run_point`` with a sampling message-level tracer attached."""
    engine = build_engine(config)
    tracer = Tracer(level="message", sample_every=100)
    engine.attach_tracer(tracer)
    window = engine.run_measured(warmup, measure)
    return tracer, summarize_window(config, engine, window)


def assert_traced_point_identical(config: SimConfig, warmup: int,
                                  measure: int) -> Tracer:
    """Same trace and result on both backends, and the result of the
    untraced run: a tracer observes, it never perturbs."""
    ref_tracer, ref = traced_point(config.with_(backend="reference"),
                                   warmup, measure)
    vec_tracer, vec = traced_point(config.with_(backend="vector"),
                                   warmup, measure)
    assert_traces_equal(ref_tracer, vec_tracer, f"for {config}")
    assert ref == vec == run_point(
        config.with_(backend="vector"), warmup, measure
    ), config
    return ref_tracer


def event_kinds(tracer: Tracer) -> set[str]:
    return {kind for _, kind, _ in tracer.events}


_ADVERSARIAL = dict(dims=(4, 4), pattern="PAT271", num_vcs=4,
                    queue_capacity=8, flit_buffer_depth=1, load=0.03)

#: (config, warmup, measure, event kinds the cell must have produced)
TRACED_CELLS = {
    # router captures: the payload's ``since`` is the kernel's m_blocked
    "PR-721-8x8": (dict(scheme="PR", pattern="PAT721", dims=(8, 8),
                        num_vcs=4, load=0.014, seed=3),
                   1000, 1500, {"token_capture", "rescue_leg", "blocked"}),
    "PR-271-8x8-long": (dict(scheme="PR", pattern="PAT271", dims=(8, 8),
                             num_vcs=4, load=0.012, seed=3),
                        1000, 4000, {"detect", "token_capture", "rescue_leg"}),
    "DR-271-8x8-long": (dict(scheme="DR", pattern="PAT271", dims=(8, 8),
                             num_vcs=4, load=0.016, seed=3),
                        1000, 4000, {"detect", "deflect"}),
    "DR-drain": (dict(scheme="DR", pattern="PAT271", dims=(8, 8), num_vcs=4,
                      load=0.022, seed=4, recovery_policy="drain"),
                 1000, 2000, {"detect", "deflect"}),
    "SA-8vc": (dict(scheme="SA", pattern="PAT721", dims=(4, 4), num_vcs=8,
                    load=0.02, seed=1),
               500, 2000, {"blocked", "unblocked", "consumed"}),
    "NONE": (dict(scheme="NONE", pattern="PAT721", dims=(4, 4), num_vcs=4,
                  load=0.05, seed=2),
             500, 2000, {"detect"}),
    "adversarial-NONE": (dict(scheme="NONE", **_ADVERSARIAL),
                         500, 2000, {"detect"}),
    "adversarial-DR": (dict(scheme="DR", **_ADVERSARIAL),
                       500, 2000, {"blocked"}),
    "adversarial-PR": (dict(scheme="PR", **_ADVERSARIAL),
                       500, 2000, {"detect", "token_capture"}),
    # NI captures whose rescued head sits at a detector that is not the
    # fired one: the payload's ``since`` is a condition-false detector's
    "PR-ni-capture": (dict(scheme="PR", pattern="PAT721", dims=(3, 3),
                           num_vcs=4, load=0.04, seed=0, max_outstanding=1,
                           queue_capacity=2, service_time=1,
                           flit_buffer_depth=1, queue_mode="per-type",
                           detection_threshold=5),
                      100, 500, {"detect", "token_capture"}),
    "fat-tree": (dict(topology="fat_tree", dims=(2, 4), scheme="PR",
                      pattern="PAT271", num_vcs=4, load=0.012, seed=2),
                 500, 2000, {"token_capture"}),
    "irregular": (dict(topology="irregular", scheme="PR", pattern="PAT271",
                       num_vcs=4, load=0.05, seed=2),
                  500, 2000, {"detect", "token_capture"}),
    # the timeout heuristic: DetectorPair's machine around the one
    # overridden ``conditions``, on the lazy bank like any other site
    "timeout-NONE": (dict(scheme="NONE", detector="timeout",
                          timeout_threshold=60, **_ADVERSARIAL),
                     500, 2000, {"detect"}),
    "timeout-DR": (dict(scheme="DR", detector="timeout", seed=2,
                        timeout_threshold=60, max_outstanding=12,
                        **_ADVERSARIAL),
                   500, 2000, {"detect", "deflect"}),
    "timeout-PR": (dict(scheme="PR", detector="timeout",
                        timeout_threshold=60, **_ADVERSARIAL),
                   500, 2000, {"detect", "token_capture", "rescue_leg"}),
}


@pytest.mark.parametrize("cell", TRACED_CELLS)
def test_traced_cells_identical(cell):
    cfg, warmup, measure, kinds = TRACED_CELLS[cell]
    tracer = assert_traced_point_identical(SimConfig(**cfg), warmup, measure)
    assert tracer.samples and tracer.dropped_events == 0
    assert kinds <= event_kinds(tracer), "cell too light for what it pins"


def test_tracer_attached_mid_run_identical():
    """A tracer attached after the network filled up: the vector bank
    re-arms its calendar at attach, so a detector already counting
    reports its firing on the cycle the reference reports it."""
    cfg = dict(scheme="PR", **_ADVERSARIAL)
    engines = [build_engine(SimConfig(backend=b, **cfg))
               for b in ("reference", "vector")]
    tracers = []
    for engine in engines:
        engine.run(700)
        tracers.append(Tracer(sample_every=100))
        engine.attach_tracer(tracers[-1])
        engine.run(800)
    assert_traces_equal(*tracers, "attached at cycle 700")
    assert_snapshots_equal(*engines, "attached at cycle 700")
    assert "detect" in event_kinds(tracers[0])


def scenario_points() -> list:
    """Every point the scenario library runs on the vector backend."""
    return [
        pytest.param(config, id=f"{name}-{i}")
        for name, scenario in SCENARIOS.items()
        for i, config in enumerate(scenario.build(SCALES["smoke"]))
        if resolve_backend(config)[0] == "vector"
    ]


@pytest.mark.campaign
@pytest.mark.parametrize("config", scenario_points())
def test_scenario_point_traced_identical(config):
    """What ``repro serve`` runs by default, at the smoke window."""
    scale = SCALES["smoke"]
    assert_traced_point_identical(config, scale.warmup, scale.measure)


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
