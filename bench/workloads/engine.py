"""The four engine workloads: one process, no pool, no cache.

A pass is a fixed number of simulated cycles per cell, run in 50-cycle
``engine.run`` slices inside a ``stats.begin_window``/``end_window``
pair and folded by ``summarize_window`` — the calls ``run_point`` makes,
cut into slices so the traced pass can time them.

The three PAT721 workloads are stationary, so they keep their engines
for the whole run: set-up builds and warms them, a pass is one more
window.  ``vec-recovery-8x8`` is not: past saturation on PAT271 the
network degrades with simulated time (at seed 3 the DR cell stops
delivering altogether near cycle 5000), so a long-lived engine would
time a different regime on every pass and on every machine.  Its pass
is therefore two fresh serial points — build, warm-up, window — which
is the same work every time and must give the same digest every time.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from bench.stats import median, tail_percentile
from bench.trace import PhaseClock, Span
from bench.workloads.base import Env, PassOutcome, Workload
from repro.config import SimConfig
from repro.sim.engine import build_engine
from repro.sim.stats import SimStats
from repro.sim.sweep import summarize_window

#: cycles per ``engine.run`` call; one span per phase per slice.
SLICE = 50
WARMUP = 2000

_SAT = dict(dims=(8, 8), scheme="PR", pattern="PAT721", load=0.014)

#: name -> (cells, window cycles per cell, fresh engines per pass).
ENGINE_WORKLOADS = {
    "ref-sat-8x8": ((dict(backend="reference", **_SAT),), 2000, False),
    "vec-sat-8x8": ((dict(backend="vector", **_SAT),), 2000, False),
    "vec-light-16x16": (
        (dict(backend="vector", dims=(16, 16), scheme="PR",
              pattern="PAT721", load=0.003),),
        4000, False,
    ),
    "vec-recovery-8x8": (
        (dict(backend="vector", dims=(8, 8), scheme="PR", pattern="PAT271",
              load=0.012),
         dict(backend="vector", dims=(8, 8), scheme="DR", pattern="PAT271",
              load=0.016)),
        3000, True,
    ),
}
#: the same cell on both backends: their windows must be bit-identical.
CROSS_BACKEND = ("ref-sat-8x8", "vec-sat-8x8")

#: span name of a phase -> the per-layer metric holding its time.
_PHASE_METRIC = {
    "traffic": "traffic.step_s",
    "endpoint": "endpoint.step_s",
    "network.fabric": "network.fabric_step_s",
    "sim.vector.fabric": "sim.vector.fabric_step_s",
    "core": "core.scheme_step_s",
    "sim.stats": "sim.stats.on_cycle_s",
}
BUILD = "sim.engine.build"


def _counters(engine) -> Counter:
    c: Counter = Counter()
    c["traffic.messages_generated"] = engine.traffic.generated
    c["endpoint.messages_serviced"] = sum(
        ni.controller.messages_serviced for ni in engine.interfaces
    )
    c["network.flits_forwarded"] = engine.fabric.flits_forwarded
    c["network.alloc_failures"] = engine.fabric.alloc_failures
    c["core.detections"] = engine.scheme.deadlocks_detected
    c["recoveries"] = engine.scheme.recoveries
    controller = getattr(engine.scheme, "controller", None)
    c["core.rescues"] = getattr(controller, "rescues", 0)
    c["core.deflections"] = getattr(controller, "deflections", 0)
    c["core.token_laps"] = getattr(
        getattr(controller, "token", None), "laps", 0
    )
    return c


class EngineWorkload(Workload):
    def __init__(self, env: Env, name: str) -> None:
        super().__init__(env)
        self.name = name
        cells, cycles, self.fresh = ENGINE_WORKLOADS[name]
        self.same_every_pass = self.fresh
        self.configs = [
            SimConfig(num_vcs=4, seed=env.seed, **cell) for cell in cells
        ]
        self.vector = self.configs[0].backend == "vector"
        self.warmup = env.scaled(WARMUP, floor=SLICE) // SLICE * SLICE
        self.cycles = env.scaled(cycles, floor=SLICE) // SLICE * SLICE
        self.engines: list = []
        self.clock: PhaseClock | None = None
        #: work counted over the measured section, summed over cells.
        self._work: Counter = Counter()
        self._nodes = 0
        self._slice_s: list[float] = []
        self._summarize_s: list[float] = []
        self._on_cycle = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        if self.vector:
            from repro.sim.vector.kernel import load_kernel

            start = perf_counter()
            load_kernel()
            self.layers["sim.vector.kernel_load_s"] = perf_counter() - start
        if self.env.recorder is not None:
            self.clock = PhaseClock()
            # SimStats has __slots__: the class attribute is the only hook.
            self._on_cycle = SimStats.on_cycle
            SimStats.on_cycle = self.clock.wrap("sim.stats", SimStats.on_cycle)
        if not self.fresh:
            self.engines = [self._build(config, None) for config in self.configs]
            self._work.subtract(sum(map(_counters, self.engines), Counter()))
            if self.clock is not None:
                self.clock.discard()  # warm-up is set-up, not a phase

    def _build(self, config: SimConfig, span: Span | None):
        """Build, wrap on the traced pass, warm up."""
        start = perf_counter()
        engine = build_engine(config)
        end = perf_counter()
        self.layers["sim.engine.build_s"] = (
            self.layers.get("sim.engine.build_s", 0.0) + end - start
        )
        if span is not None:
            self.env.recorder.add(BUILD, start, end, span.id)
        if self.clock is not None:
            self._wrap(engine)
        self._run(engine, self.warmup, span)
        return engine

    def _wrap(self, engine) -> None:
        clock = self.clock
        engine.traffic.step = clock.wrap("traffic", engine.traffic.step)
        if self.vector:
            # The gated equivalent of the reference's NI sweep.
            engine._step_node = clock.wrap("endpoint", engine._step_node)
            engine.fabric.step = clock.wrap(
                "sim.vector.fabric", engine.fabric.step
            )
            engine._scheme_step = clock.wrap("core", engine._scheme_step)
        else:
            for ni in engine.interfaces:
                ni.step = clock.wrap("endpoint", ni.step)
            engine.fabric.step = clock.wrap("network.fabric", engine.fabric.step)
            engine.scheme.step = clock.wrap("core", engine.scheme.step)

    def _remove_class_wrapper(self) -> None:
        if self._on_cycle is not None:
            SimStats.on_cycle = self._on_cycle
            self._on_cycle = None

    # ------------------------------------------------------------------
    def _run(self, engine, cycles: int, span: Span | None) -> None:
        """``cycles`` in slices; below a pass span each slice is a span
        with its phases as children."""
        if span is None:
            for _ in range(cycles // SLICE):
                engine.run(SLICE)
            return
        recorder, clock = self.env.recorder, self.clock
        for _ in range(cycles // SLICE):
            piece = recorder.open("sim.engine", span.id)
            engine.run(SLICE)
            piece.end = perf_counter()
            clock.flush(recorder, piece)
            self._slice_s.append(piece.duration)

    def _window(self, config: SimConfig, engine, span: Span | None):
        engine.stats.begin_window(engine.now)
        self._run(engine, self.cycles, span)
        window = engine.stats.end_window(engine.now)
        start = perf_counter()
        result = summarize_window(config, engine, window)
        self._summarize_s.append(perf_counter() - start)
        return result

    def run_pass(self, index: int, span: Span | None) -> PassOutcome:
        if self.fresh:
            self.engines = [self._build(config, span) for config in self.configs]
        results = [
            self._window(config, engine, span)
            for config, engine in zip(self.configs, self.engines)
        ]
        failed = sum(1 for r in results if r.cycles != self.cycles)
        cycles = self.cycles
        if self.fresh:
            cycles += self.warmup
            for engine in self.engines:
                self._work.update(_counters(engine))
        self._nodes += sum(e.topology.num_nodes for e in self.engines) * cycles
        return PassOutcome(
            results, cycles=cycles * len(results), attempted=len(results),
            failed=failed,
        )

    # ------------------------------------------------------------------
    def finish(self, first: PassOutcome) -> tuple[int, int]:
        if not self.fresh:
            self._work.update(sum(map(_counters, self.engines), Counter()))
        self._remove_class_wrapper()
        if self.clock is not None and not self.vector:
            self._probe_tracer()
        if self.name not in CROSS_BACKEND:
            return 0, 0
        twin_config = self.configs[0].with_(
            backend="reference" if self.vector else "vector"
        )
        twin = build_engine(twin_config)
        self._run(twin, self.warmup, None)
        result = self._window(twin_config, twin, None)
        return 1, int(result != first.results[0])

    def _probe_tracer(self) -> None:
        """Cost of the always-on telemetry configuration on this cell."""
        from repro.telemetry import Tracer

        config = self.configs[0]
        plain, traced = build_engine(config), build_engine(config)
        tracer = Tracer(level="message")
        traced.attach_tracer(tracer)
        seconds = {id(plain): 0.0, id(traced): 0.0}
        plain.run(self.warmup // 4)
        traced.run(self.warmup // 4)
        before = tracer.events_recorded
        for _ in range(4):  # alternate, so drift hits both sides alike
            for engine in (plain, traced):
                start = perf_counter()
                engine.run(self.cycles // 4)
                seconds[id(engine)] += perf_counter() - start
        self.layers["telemetry.tracer_overhead_frac"] = (
            seconds[id(traced)] / seconds[id(plain)] - 1.0
        )
        self.layers["telemetry.events_recorded"] = float(
            tracer.events_recorded - before
        )

    # ------------------------------------------------------------------
    def layer_metrics(self, outcomes: list[PassOutcome]) -> dict[str, float]:
        out = dict(self.layers)
        passes = len(outcomes)
        work = Counter(self._work)
        recoveries = work.pop("recoveries", 0)
        for name, value in work.items():
            out[name] = value / passes
        out["core.recovery_ratio"] = (
            recoveries / work["core.detections"]
            if work["core.detections"] else 0.0
        )
        if self.fresh:
            out["sim.engine.build_s"] /= passes
        clock = self.clock
        phase_s = clock.total_seconds
        for phase, metric in _PHASE_METRIC.items():
            out[metric] = phase_s.get(phase, 0.0) / passes
        steps = clock.total_calls.get("endpoint", 0)
        out["endpoint.steps"] = steps / passes
        out["endpoint.gate_ratio"] = steps / self._nodes
        if self.vector:
            out["sim.vector.other_s"] = (
                sum(self._slice_s) - sum(phase_s.values())
            ) / passes
        per_kcycle_ms = [s * 1e3 * (1000 / SLICE) for s in self._slice_s]
        out["sim.engine.kcycle_ms_p50"] = median(per_kcycle_ms)
        out["sim.engine.kcycle_ms_p95"] = tail_percentile(per_kcycle_ms)[1]
        out["sim.stats.summarize_us"] = median(self._summarize_s) * 1e6
        return out

    def close(self) -> None:
        self._remove_class_wrapper()
