"""Sweep-point execution with an on-disk result cache.

Every (config, load) point of a sweep is independent and deterministic
— the engine derives all randomness from ``config.seed`` via
:func:`repro.util.rng.make_rng` — so points can fan out across worker
processes or hosts and still produce results bit-identical to a serial
run.  This module owns what makes that safe: the cache key
(:func:`point_key`), the keyed JSON cache under ``.repro_cache/`` that
lets interrupted paper-scale runs resume instead of restarting, and the
one dedup step (:func:`resolve_points`).  :func:`run_points` is the
front door: resolve, then hand the missing points to
:class:`repro.farm.FarmManager`, which dispatches, retries and records
them (failures are reported with their config via
:class:`~repro.util.errors.SweepExecutionError`, never silently
dropped).

Cache keys cover the full :class:`~repro.config.SimConfig`, the
warmup/measure window *and* a digest of the package sources
(:func:`code_version`), so editing the simulator invalidates stale
results automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

import repro
from repro.config import ExecutionConfig, SimConfig
from repro.sim.results import RunResult
from repro.util.backoff import BackoffPolicy
from repro.util.errors import SweepExecutionError
from repro.util.progress import ProgressReporter

if TYPE_CHECKING:
    from repro.farm.workers import FarmWorker

#: default location of the on-disk result cache (declared on the field).
DEFAULT_CACHE_DIR: str = ExecutionConfig.cache_dir

PointFn = Callable[[SimConfig, int, int], RunResult]

#: process-wide execution policy; the library default is the legacy
#: behaviour (serial, no cache) so tests and benchmarks are unaffected.
#: The CLI and experiment runner install their own via
#: :func:`set_default_execution`.
_default_execution = ExecutionConfig(workers=1, use_cache=False)


def get_default_execution() -> ExecutionConfig:
    """The execution policy used when a caller does not pass one."""
    return _default_execution


def set_default_execution(execution: ExecutionConfig) -> ExecutionConfig:
    """Install a new process-wide policy; returns the previous one."""
    global _default_execution
    previous = _default_execution
    _default_execution = execution
    return previous


def digest_sources(root: Path) -> str:
    """Digest of every source file below ``root``: Python and C.

    ``_build/`` is skipped: compiled kernels follow from ``kernel.c``
    and appear on first use, which must not move the version.
    """
    paths = sorted(
        path
        for path in root.rglob("*.*")
        if path.suffix in (".py", ".c")
        and "_build" not in path.relative_to(root).parts
    )
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the ``repro`` package sources, for cache invalidation."""
    return digest_sources(Path(repro.__file__).resolve().parent)


def point_key(config: SimConfig, warmup: int, measure: int,
              code: str | None = None) -> str:
    """Stable cache key for one (config, warmup, measure) point.

    ``asdict(config)`` already folds in every config field, but the
    detector configuration is additionally spelled out: two runs that
    differ only in detection mechanism or thresholds produce different
    results, and a key omitting them (as a refactor of the config
    serialization could silently reintroduce) would alias their cache
    entries.  The explicit section makes that collision structurally
    impossible; ``tests/test_parallel.py`` pins it.
    """
    payload = {
        "config": asdict(config),
        "detector": {
            "kind": config.detector,
            "detection_threshold": config.detection_threshold,
            "occupancy_threshold": config.occupancy_threshold,
            "timeout_threshold": config.timeout_threshold,
            "cmh_block_threshold": config.cmh_block_threshold,
            "cmh_probe_interval": config.cmh_probe_interval,
        },
        "warmup": int(warmup),
        "measure": int(measure),
        "code": code if code is not None else code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Keyed on-disk store of :class:`RunResult`s, one JSON file each.

    Writes are atomic (temp file + rename) so concurrent workers — or an
    interrupted run — can never leave a half-written entry behind; a
    corrupt or unreadable file simply reads as a miss.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text("utf-8"))
            result = RunResult(**payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, config: SimConfig, warmup: int, measure: int,
            result: RunResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "code": code_version(),
            "config": asdict(config),
            "warmup": int(warmup),
            "measure": int(measure),
            "result": result.to_dict(),
        }
        blob = json.dumps(payload, sort_keys=True, default=str, indent=1)
        # Unique temp file per put: concurrent writers of the same key
        # (racing farm twins, a resumed manager next to a live one) must
        # each rename a fully written file, so readers see one complete
        # entry or another — never an interleaved one.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


@dataclass
class PointResolution:
    """The cache's answer for a batch of points: hits, keys, misses.

    This is the one dedup implementation shared by :func:`run_points`,
    the farm manager and the campaign service's pre-schedule dedup
    (:mod:`repro.service`): every consumer sees the same keys, so a
    point computed by any of them is a hit for all — and whoever
    resolved a batch passes this object on, so its keys are hashed
    once.
    """

    #: cache key per point, in input order.
    keys: list[str]
    #: cache hit per point (None where the cache missed).
    results: list[RunResult | None]
    #: indices of the points still to compute, in input order.
    missing: list[int]

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def cached(self) -> int:
        return self.total - len(self.missing)


def resolve_points(
    configs: Sequence[SimConfig],
    warmup: int,
    measure: int,
    cache: ResultCache | None,
    *,
    keys: Sequence[str] | None = None,
) -> PointResolution:
    """Resolve a batch of points against the cache (dedup, no execution).

    With ``cache=None`` every point is a miss (the keys are still
    computed, so callers can schedule and later write back).  ``keys``
    lets callers that already hold the batch's keys skip recomputing
    the config digests.
    """
    if keys is None:
        keys = [point_key(config, warmup, measure) for config in configs]
    else:
        keys = list(keys)
        if len(keys) != len(configs):
            raise ValueError(
                f"{len(keys)} keys for {len(configs)} configs"
            )
    resolution = PointResolution(
        keys=keys, results=[None] * len(keys), missing=[]
    )
    for idx, key in enumerate(keys):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            resolution.results[idx] = hit
        else:
            resolution.missing.append(idx)
    return resolution


def run_points(
    configs: Sequence[SimConfig],
    warmup: int,
    measure: int,
    workers: int | Sequence[FarmWorker] = 1,
    *,
    cache: ResultCache | None = None,
    retries: int = 1,
    point_fn: PointFn | None = None,
    reporter: ProgressReporter | None = None,
    timeout: float | None = None,
    backoff: BackoffPolicy | None = None,
) -> list[RunResult]:
    """Run every config's point; results in the order of ``configs``.

    Resolve against ``cache``, then hand what is missing to
    :class:`repro.farm.FarmManager` — the one scheduler — one point per
    shard, and it writes each computed point back to ``cache``.  A fully
    cached batch returns without building a manager, a thread or a
    worker.

    ``workers`` is either a list of farm workers (how ``run_sweep``
    passes ``--hosts``) or an int, shorthand for one local worker that
    wide configured by ``point_fn`` and ``timeout``: a single worker
    without ``timeout`` computes in-process, anything else in worker
    processes, and a point running longer than ``timeout`` wall-clock
    seconds has its process killed, so one wedged point can never hang
    a campaign.

    A point that raises, times out (:class:`PointTimeoutError`) or
    takes its process down is retried up to ``retries`` more times,
    ``backoff`` apart; if it still fails the batch raises
    :class:`SweepExecutionError` naming each failed config and the
    exception it raised — successful points of the batch stay in the
    cache, so a rerun resumes.
    """
    configs = list(configs)
    if reporter is None:
        reporter = ProgressReporter(total=len(configs), enabled=False)
    resolution = resolve_points(configs, warmup, measure, cache)
    for _ in range(resolution.cached):
        reporter.update(cached=True)
    if not resolution.missing:
        return resolution.results  # type: ignore[return-value]

    # Imported here: the farm plans against this module's cache and keys.
    from repro.farm import (
        CampaignSpec,
        FarmManager,
        FarmPolicy,
        LocalPoolWorker,
    )

    if isinstance(workers, int):
        workers = [LocalPoolWorker(
            workers=max(1, min(workers, len(resolution.missing))),
            point_timeout=timeout, point_fn=point_fn,
        )]
    policy = (FarmPolicy(retries=retries) if backoff is None
              else FarmPolicy(retries=retries, backoff=backoff))
    spec = CampaignSpec(tuple(configs), warmup, measure, shard_size=1)
    try:
        return FarmManager(list(workers), cache=cache, policy=policy).run(
            spec, resolution=resolution,
            on_point=lambda idx, result, elapsed: reporter.update(
                elapsed=elapsed
            ),
        )
    except SweepExecutionError as exc:
        for _ in exc.failures:
            reporter.update(failed=True)
        raise
