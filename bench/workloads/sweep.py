"""The sweep-layer workloads: ``run_points`` cold and warm, and the farm.

All three resolve the same kind of point — the three ``scheme-ladder``
cells on the 4x4 torus, vector backend, warm-up 300 / measure 1200,
about 35 ms each — so the engine does little and what is measured is
what surrounds it: pool start-up, pickling, ``build_engine``,
``point_key``, ``ResultCache.get``/``put``, and the farm's dispatch loop.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from time import perf_counter

from bench.stats import median
from bench.trace import Span
from bench.workloads.base import Env, PassOutcome, Workload, identity_failures
from repro.config import SimConfig
from repro.experiments.common import SCALES
from repro.farm import CampaignSpec, FarmManager, parse_hosts, plan_shards
from repro.service.scenarios import get_scenario
from repro.sim.parallel import (
    ResultCache,
    code_version,
    point_key,
    resolve_points,
    run_points,
)
from repro.sim.results import RunResult
from repro.util.errors import SweepExecutionError

WARMUP, MEASURE = 300, 1200
#: applied loads of the cold ladder, light traffic to past saturation.
LOADS = tuple(0.002 * (i + 1) for i in range(8))
#: seeds per (cell, load) of the warm set: 3 x 8 x 25 = 600 entries.
WARM_SEEDS = 25
#: ``run_points`` calls per warm pass.
WARM_ROUNDS = 10
#: span name of one ``run_points`` call.
RUN_POINTS = "sim.parallel.run_points"


def ladder_cells() -> list[SimConfig]:
    """The scheme-ladder scenario's three cells (SA, DR, PR), load unset."""
    built = get_scenario("scheme-ladder").build(SCALES["smoke"])
    return list(dict.fromkeys(
        c.with_(load=0.0, backend="vector") for c in built
    ))


def ladder_points(env: Env, seeds: int) -> list[SimConfig]:
    loads = LOADS[:env.scaled(len(LOADS))]
    return [
        cell.with_(load=load, seed=env.seed * 100 + k)
        for cell in ladder_cells() for load in loads for k in range(seeds)
    ]


class _ElapsedReporter:
    """Duck-typed ``ProgressReporter`` collecting per-point ``elapsed``."""

    def __init__(self) -> None:
        self.elapsed: list[float] = []

    def update(self, *, cached: bool = False, elapsed: float = 0.0,
               failed: bool = False) -> None:
        if not cached and not failed:
            self.elapsed.append(elapsed)

    def finish(self) -> None:
        pass


class _SweepWorkload(Workload):
    """Shared set-up and cache probes of the three workloads."""

    #: the same points every pass (from a fresh or an unchanged cache).
    same_every_pass = True

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.configs: list[SimConfig] = []
        self._hits = self._misses = 0
        self._pass_dir: Path | None = None

    def setup(self) -> None:
        from repro.sim.vector.kernel import load_kernel

        start = perf_counter()
        load_kernel()  # built once here, not by racing pool workers
        self.layers["sim.vector.kernel_load_s"] = perf_counter() - start
        start = perf_counter()
        code_version()
        self.layers["sim.parallel.code_version_ms"] = (
            (perf_counter() - start) * 1e3
        )

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.env.tmp))

    def pass_cache(self) -> ResultCache:
        """An empty cache that lives until the pass is over."""
        self._pass_dir = self.fresh_dir()
        return ResultCache(self._pass_dir)

    def after_pass(self) -> None:
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)
            self._pass_dir = None

    def _count(self, cache: ResultCache) -> None:
        self._hits += cache.hits
        self._misses += cache.misses

    def probe_cache(self, results: list[RunResult]) -> None:
        """Median cost of each cache-layer call over this workload's
        points, on a directory of its own."""
        cache = ResultCache(self.fresh_dir())
        key_s, put_s, get_s = [], [], []
        for config, result in zip(self.configs, results):
            start = perf_counter()
            key = point_key(config, WARMUP, MEASURE)
            key_s.append(perf_counter() - start)
            start = perf_counter()
            cache.put(key, config, WARMUP, MEASURE, result)
            put_s.append(perf_counter() - start)
            start = perf_counter()
            cache.get(key)
            get_s.append(perf_counter() - start)
        start = perf_counter()
        resolve_points(self.configs, WARMUP, MEASURE, cache)
        self.layers["sim.parallel.resolve_us_per_point"] = (
            (perf_counter() - start) * 1e6 / len(self.configs)
        )
        self.layers["sim.parallel.point_key_us"] = median(key_s) * 1e6
        self.layers["sim.parallel.cache_put_us"] = median(put_s) * 1e6
        self.layers["sim.parallel.cache_get_us"] = median(get_s) * 1e6
        shutil.rmtree(cache.root, ignore_errors=True)

    def layer_metrics(self, outcomes: list[PassOutcome]) -> dict[str, float]:
        out = super().layer_metrics(outcomes)
        lookups = self._hits + self._misses
        out["sim.parallel.cache_hit_ratio"] = (
            self._hits / lookups if lookups else 0.0
        )
        return out


class SweepColdPool(_SweepWorkload):
    name = "sweep-cold-pool"

    def setup(self) -> None:
        super().setup()
        self.configs = ladder_points(self.env, seeds=1)

    def run_pass(self, index: int, span: Span | None) -> PassOutcome:
        n = len(self.configs)
        workers = self.env.workers
        cache = self.pass_cache()
        reporter = _ElapsedReporter() if span is not None else None
        start = perf_counter()
        try:
            results = run_points(
                self.configs, WARMUP, MEASURE, workers=workers, cache=cache,
                reporter=reporter,
            )
        except SweepExecutionError:
            return PassOutcome([], cycles=0, attempted=n, failed=n)
        end = perf_counter()
        wall = end - start
        if span is not None:
            self.env.recorder.add(RUN_POINTS, start, end, span.id)
        self._count(cache)
        outcome = PassOutcome(
            results, cycles=n * (WARMUP + MEASURE), attempted=n,
            failed=identity_failures(results, self.configs),
        )
        if reporter is not None:
            busy = sum(reporter.elapsed)
            outcome.extra = {
                "sim.parallel.pool_overhead_s": wall - busy / workers,
                "sim.parallel.parallel_efficiency": busy / (workers * wall),
            }
        return outcome

    def finish(self, first: PassOutcome) -> tuple[int, int]:
        if self.env.recorder is not None and first.results:
            self.probe_cache(first.results)
        return 0, 0


class SweepWarm(_SweepWorkload):
    name = "sweep-warm"

    def setup(self) -> None:
        super().setup()
        self.configs = ladder_points(
            self.env, seeds=self.env.scaled(WARM_SEEDS)
        )
        # A result that could only be this point's: no simulation runs,
        # and a cache returning a neighbour's entry cannot go unnoticed.
        self.expected = [
            RunResult(
                scheme=c.scheme, pattern=c.pattern, num_vcs=c.num_vcs,
                load=c.load, cycles=MEASURE, messages_delivered=index,
                throughput_fpc=c.load * 10, mean_latency=40.0 + index,
                latency_max=100 + index, deadlocks=0,
                normalized_deadlocks=0.0, transactions_completed=index,
                mean_txn_latency=90.0 + c.seed,
            )
            for index, c in enumerate(self.configs)
        ]
        self.dir = self.fresh_dir()
        cache = ResultCache(self.dir)
        for config, result in zip(self.configs, self.expected):
            cache.put(point_key(config, WARMUP, MEASURE), config, WARMUP,
                      MEASURE, result)

    def run_pass(self, index: int, span: Span | None) -> PassOutcome:
        n = len(self.configs)
        failed = 0
        results: list[RunResult] = []
        for _ in range(WARM_ROUNDS):
            cache = ResultCache(self.dir)
            start = perf_counter()
            results = run_points(
                self.configs, WARMUP, MEASURE, workers=self.env.workers,
                cache=cache,
            )
            if span is not None:
                self.env.recorder.add(RUN_POINTS, start, perf_counter(),
                                      span.id)
            self._count(cache)
            if results != self.expected:
                failed += sum(
                    1 for got, want in zip(results, self.expected)
                    if got != want
                ) + abs(n - len(results))
        return PassOutcome(
            results, cycles=WARM_ROUNDS * n * (WARMUP + MEASURE),
            attempted=WARM_ROUNDS * n, failed=failed,
        )

    def finish(self, first: PassOutcome) -> tuple[int, int]:
        if self.env.recorder is not None:
            self.probe_cache(self.expected)
        return 0, 0


class FarmLocal(_SweepWorkload):
    name = "farm-local2"

    def setup(self) -> None:
        super().setup()
        self.configs = ladder_points(self.env, seeds=1)
        self.spec = CampaignSpec(tuple(self.configs), WARMUP, MEASURE)
        self.shards = len(plan_shards(
            range(len(self.configs)), self.spec.shard_size
        ))

    def run_pass(self, index: int, span: Span | None) -> PassOutcome:
        n = len(self.configs)
        cache = self.pass_cache()
        workers = parse_hosts(f"local:{self.env.workers}")
        shard_s: list[float] = []
        run_span = None
        if span is not None:
            run_span = self.env.recorder.open("farm.manager.run", span.id)
            for worker in workers:
                worker.run_shard = self._spanned(worker.run_shard, run_span,
                                                 shard_s)
        manager = FarmManager(workers, cache=cache)
        start = perf_counter()
        try:
            results = manager.run(self.spec)
        except SweepExecutionError:
            return PassOutcome([], cycles=0, attempted=n, failed=n)
        wall = perf_counter() - start
        if run_span is not None:
            run_span.end = run_span.start + wall
        self._count(cache)
        outcome = PassOutcome(
            results, cycles=n * (WARMUP + MEASURE), attempted=n,
            failed=identity_failures(results, self.configs),
        )
        if span is not None:
            hosts = manager.report()["hosts"].values()
            outcome.extra = {
                "farm.shards": float(self.shards),
                "farm.dispatches": float(len(shard_s)),
                "farm.failed_shards": float(
                    sum(h["shards_failed"] for h in hosts)
                ),
                "farm.run_shard_ms_p50": median(shard_s) * 1e3,
                "farm.idle_s": wall - sum(shard_s),
            }
        return outcome

    def _spanned(self, run_shard, parent: Span, shard_s: list[float]):
        recorder = self.env.recorder

        def traced_run_shard(job):
            start = perf_counter()
            outcome = run_shard(job)
            end = perf_counter()
            recorder.add("farm.run_shard", start, end, parent.id)
            shard_s.append(end - start)
            return outcome

        return traced_run_shard

    def finish(self, first: PassOutcome) -> tuple[int, int]:
        """The farm must return what ``run_points`` returns for the same
        points; the same call prices the farm's overhead per shard."""
        n = len(self.configs)
        cache_dir = self.fresh_dir()
        start = perf_counter()
        direct = run_points(
            self.configs, WARMUP, MEASURE, workers=self.env.workers,
            cache=ResultCache(cache_dir),
        )
        direct_wall = perf_counter() - start
        shutil.rmtree(cache_dir, ignore_errors=True)
        self._direct_wall = direct_wall
        if self.env.recorder is not None and first.results:
            self.probe_cache(first.results)
        if direct != first.results:
            return n, n
        return n, 0

    def layer_metrics(self, outcomes: list[PassOutcome]) -> dict[str, float]:
        out = super().layer_metrics(outcomes)
        farm_wall = median([o.wall_s for o in outcomes])
        out["farm.overhead_ms_per_shard"] = (
            (farm_wall - self._direct_wall) * 1e3 / self.shards
        )
        return out
