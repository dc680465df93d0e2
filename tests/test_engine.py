"""Engine-level end-to-end tests: all schemes, conservation, stats."""

import gc
import warnings
import weakref

import pytest

from repro import SimConfig
from repro.faults.models import FaultSpec
from repro.sim import engine as engine_module
from repro.sim.engine import Engine
from repro.sim.sweep import run_point
from repro.sim.vector import VectorEngine, kernel
from repro.telemetry import SampleTap, Tracer
from repro.util.errors import ConfigurationError, UnsupportedFeatureError
from tests.helpers import build_engine, record_transactions


class TestConstruction:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            Engine(SimConfig(pattern="PATX"))

    def test_custom_traffic_requires_metadata(self):
        class Dummy:
            def attach(self, e): ...

        with pytest.raises(ConfigurationError):
            Engine(SimConfig(), traffic=Dummy())

    def test_two_nodes_refuse_three_party_chains(self):
        # PAT721 draws a third party distinct from requester and home:
        # on two nodes there is none, and the draw used to spin forever.
        with pytest.raises(ConfigurationError,
                           match="PAT721 needs at least 3 nodes.* has 2"):
            engine_module.build_engine(SimConfig(dims=(2,), pattern="PAT721"))
        e = engine_module.build_engine(
            SimConfig(dims=(2,), pattern="PAT100", load=0.05))
        e.run(200)
        assert e.stats.total.messages_delivered > 0

    def test_interfaces_one_per_node(self):
        e = build_engine(scheme="PR", dims=(2, 4), bristling=2)
        assert len(e.interfaces) == 16


#: each thing only the reference engine has, alone, and what
#: ``backend_reason`` must say about it
REFERENCE_ONLY = {
    "fault injection": dict(
        faults=(FaultSpec("consumer-stall", target=5, start=50, duration=50),)),
    "the CMH detector": dict(detector="cmh"),
}


class TestEngineSelection:
    """``build_engine`` is where the engine is chosen (``backend="auto"``
    is the default everywhere); a pinned engine is never switched."""

    TINY = dict(dims=(4, 4), scheme="PR", pattern="PAT271", load=0.012)

    def test_default_config_runs_on_the_kernel(self):
        assert SimConfig().backend == "auto"
        engine = engine_module.build_engine(SimConfig())
        assert type(engine) is VectorEngine
        assert (engine.backend, engine.backend_reason) == ("vector", None)

    @pytest.mark.parametrize("feature", REFERENCE_ONLY)
    def test_reference_only_feature_resolves_to_the_reference(self, feature):
        config = SimConfig(**self.TINY, **REFERENCE_ONLY[feature])
        engine = engine_module.build_engine(config)
        assert type(engine) is Engine and engine.backend == "reference"
        assert engine.backend_reason.startswith(feature)
        # a pinned engine raises where it cannot do what was asked
        with pytest.raises(UnsupportedFeatureError, match=feature):
            engine_module.build_engine(config.with_(backend="vector"))

    def test_observers_run_on_the_kernel(self):
        config = SimConfig(**self.TINY, cwg_interval=50, invariants_every=100,
                           watchdog_timeout=1000)
        assert engine_module.resolve_backend(config) == ("vector", None)
        for backend in ("auto", "vector"):
            engine = engine_module.build_engine(config.with_(backend=backend))
            assert type(engine) is VectorEngine
            engine.run(300)
            assert engine.invariants.checks_run == 3

    def test_a_topology_too_large_for_the_route_table_resolves_to_the_reference(
            self):
        # Decided from the router count and the scheme's VC classes:
        # no call here builds an engine, a topology or a table.
        config = SimConfig(dims=(64, 64), scheme="PR", num_vcs=4)
        backend, reason = engine_module.resolve_backend(config)
        assert backend == "reference" and "key space" in reason
        with pytest.raises(UnsupportedFeatureError, match="key space"):
            engine_module.build_engine(config.with_(backend="vector"))
        fits = config.with_(dims=(48, 48))
        assert engine_module.resolve_backend(fits) == ("vector", None)
        for scheme in ("DR", "SA"):  # two and four VC classes on PAT721
            assert engine_module.resolve_backend(
                fits.with_(scheme=scheme, num_vcs=8))[0] == "reference"

    def test_flit_level_tracer_resolves_to_the_reference(self):
        config = SimConfig(**self.TINY)
        tracer = Tracer(level="flit")
        engine = engine_module.build_engine(config, tracer)
        assert type(engine) is Engine and engine.tracer is tracer
        assert engine.backend_reason == "flit-level tracing"
        message = Tracer(level="message")
        assert type(engine_module.build_engine(config, message)) is VectorEngine
        with pytest.raises(UnsupportedFeatureError, match="flit-level"):
            engine_module.build_engine(config.with_(backend="vector"),
                                       Tracer(level="flit"))

    def test_pinned_engines_are_built_as_named(self):
        for backend, cls in (("reference", Engine), ("vector", VectorEngine)):
            engine = engine_module.build_engine(
                SimConfig(**self.TINY, backend=backend))
            assert type(engine) is cls
            assert (engine.backend, engine.backend_reason) == (backend, None)

    def test_without_a_compiler_auto_falls_back_and_pinned_vector_raises(
            self, monkeypatch, tmp_path):
        def no_compiler():
            raise kernel.KernelBuildError("no C compiler found")

        config = SimConfig(**self.TINY)
        expected = run_point(config, 200, 400)
        monkeypatch.setattr(kernel, "_find_compiler", no_compiler)
        monkeypatch.setattr(kernel, "_lib", None)
        monkeypatch.setattr(kernel, "_BUILD_DIR", tmp_path)  # no built object
        monkeypatch.setattr(engine_module, "_warned_no_kernel", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = engine_module.build_engine(config)
            assert run_point(config, 200, 400) == expected
        assert type(engine) is Engine and "kernel" in engine.backend_reason
        assert len(caught) == 1, "one warning per process"
        assert "no C compiler found" in str(caught[0].message)
        assert "reference engine" in str(caught[0].message)
        with pytest.raises(kernel.KernelBuildError):
            engine_module.build_engine(config.with_(backend="vector"))

    def test_run_point_with_a_sampler_tap_is_run_point(self):
        config = SimConfig(**self.TINY)
        samples = []
        assert run_point(
            config, 200, 400, tracer=SampleTap(100, samples.append)
        ) == run_point(config, 200, 400)
        assert [s["cycle"] for s in samples] == [100, 200, 300, 400, 500, 600]


@pytest.mark.parametrize(
    "scheme,pattern,vcs",
    [
        ("PR", "PAT721", 4),
        ("DR", "PAT721", 4),
        ("SA", "PAT100", 4),
        ("SA", "PAT721", 8),
        ("NONE", "PAT271", 4),
        ("PR", "PAT280", 4),
        ("DR", "PAT280", 4),
    ],
)
class TestEndToEnd:
    def test_low_load_delivers_and_drains(self, scheme, pattern, vcs):
        e = build_engine(scheme=scheme, pattern=pattern, num_vcs=vcs,
                         load=0.003, seed=7)
        txns = record_transactions(e)
        w = e.run_measured(warmup=500, measure=1500)
        assert w.messages_delivered > 50
        assert w.mean_latency() > 0
        # Conservation: stopping traffic drains everything.
        assert e.quiesce(max_cycles=50_000)
        total = e.stats.total
        assert total.messages_consumed == total.messages_delivered
        # Every generated transaction completed.
        assert len(txns) == e.traffic.generated > 0
        assert [t for t in txns if not t.completed] == []


class TestTransactionLifetime:
    @pytest.mark.parametrize("engine_class", [Engine, VectorEngine])
    def test_completed_transactions_are_collectable(self, engine_class):
        """Nothing keeps a finished transaction alive: the traffic source
        used to append every one to a list, ~0.6 KiB per simulated cycle
        at saturation for as long as the engine lived."""
        e = engine_class(SimConfig(dims=(4, 4), scheme="PR",
                                   pattern="PAT721", load=0.01, seed=7))
        refs = record_transactions(e, wrap=weakref.ref)
        e.run(1500)
        assert e.quiesce(max_cycles=50_000)
        assert len(refs) == e.traffic.generated > 50
        gc.collect()  # transaction <-> root message is a cycle
        assert [r for r in refs if r() is not None] == []


class TestDeterminism:
    def test_same_seed_same_results(self):
        runs = []
        for _ in range(2):
            e = build_engine(scheme="PR", load=0.005, seed=13)
            w = e.run_measured(500, 1000)
            runs.append(
                (w.messages_delivered, w.latency_sum, e.fabric.flits_forwarded)
            )
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        a = build_engine(scheme="PR", load=0.005, seed=13)
        b = build_engine(scheme="PR", load=0.005, seed=14)
        wa = a.run_measured(500, 1000)
        wb = b.run_measured(500, 1000)
        assert (wa.messages_delivered, wa.latency_sum) != (
            wb.messages_delivered,
            wb.latency_sum,
        )


class TestStatsWindows:
    def test_window_separate_from_total(self):
        e = build_engine(scheme="PR", load=0.004, seed=3)
        e.run(800)
        before = e.stats.total.messages_delivered
        w = e.run_measured(0, 800)
        assert w.messages_delivered <= e.stats.total.messages_delivered
        assert e.stats.total.messages_delivered > before

    def test_throughput_and_normalized_deadlocks(self):
        e = build_engine(scheme="PR", load=0.004, seed=3)
        w = e.run_measured(500, 1000)
        thr = w.throughput_fpc(e.topology.num_nodes)
        assert 0 < thr < 1.5
        assert w.normalized_deadlocks() == 0.0  # low load: none

    def test_load_sampling(self):
        e = build_engine(scheme="PR", load=0.004, seed=3)
        e.stats.enable_load_sampling(100)
        e.run(1000)
        assert len(e.stats.load_samples) == 10
        assert all(s >= 0 for s in e.stats.load_samples)


class TestBristling:
    def test_bristled_network_runs(self):
        e = build_engine(scheme="PR", dims=(2, 2), bristling=4, load=0.004,
                         seed=3)
        w = e.run_measured(500, 1000)
        assert w.messages_delivered > 10
        assert e.topology.num_nodes == 16
        assert e.quiesce(max_cycles=50_000)

    def test_sibling_nodes_share_router(self):
        e = build_engine(scheme="PR", dims=(2, 2), bristling=4, load=0.0)
        assert e.interfaces[0].router == e.interfaces[3].router


class TestCwgInterval:
    def test_periodic_cwg_check_runs(self):
        e = build_engine(scheme="PR", load=0.003, seed=3, cwg_interval=50)
        e.run(500)
        assert e.cwg_knots_seen == 0


class _ScriptedTraffic:
    """Trace-style source: replays (cycle, requester, home) triples.

    Deliberately exposes no ``load`` attribute — quiesce/_empty must not
    assume the synthetic-traffic interface (regression: AttributeError
    when quiescing a trace-driven engine).
    """

    def __init__(self, pattern, events):
        self.pattern = pattern
        self.events = sorted(events)
        self.engine = None
        self.transactions = []

    def attach(self, engine):
        self.engine = engine

    @property
    def exhausted(self):
        return not self.events

    def step(self, now):
        while self.events and self.events[0][0] <= now:
            _, requester, home = self.events.pop(0)
            txn = self.pattern.build_transaction(
                requester=requester, home=home, third=requester,
                created_cycle=now, length=2,
            )
            self.transactions.append(txn)
            self.engine.interfaces[requester].enqueue_root(txn.root)


class TestTraceQuiesce:
    def _engine(self, events):
        from repro.protocol.transactions import PAT100
        from repro.traffic.synthetic import pattern_couplings

        traffic = _ScriptedTraffic(PAT100, events)
        return Engine(
            SimConfig(dims=(4, 4), scheme="PR", seed=3),
            traffic=traffic,
            protocol=PAT100.protocol,
            types_used=PAT100.types_used,
            couplings=pattern_couplings(PAT100),
        )

    def test_quiesce_without_load_attribute(self):
        # quiesce()/_empty() must tolerate traffic sources that have no
        # ``load`` knob instead of raising AttributeError.
        e = self._engine([(1, 0, 5), (3, 2, 9), (10, 7, 1)])
        e.run(20)
        assert e.quiesce(max_cycles=20_000)
        assert e.traffic.exhausted
        total = e.stats.total
        assert total.messages_delivered > 0
        assert total.messages_consumed == total.messages_delivered
        assert all(t.completed for t in e.traffic.transactions)

    def test_empty_is_false_while_messages_in_flight(self):
        e = self._engine([(1, 0, 5)])
        e.run(2)  # root admitted, flits in the network
        assert not e._empty()
