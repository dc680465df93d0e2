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
import sys
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

import repro
from repro.config import ExecutionConfig, SimConfig
from repro.faults.models import FaultSpec
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


#: ``SimConfig``'s field names in declaration order, taken once: what a
#: key hashes and an entry records is each field's value read by name,
#: never ``dataclasses.asdict`` (a recursive copy, ~65 calls a config).
_CONFIG_FIELDS = tuple(f.name for f in fields(SimConfig))
_config_values = attrgetter(*_CONFIG_FIELDS)
_FAULT_FIELDS = tuple(f.name for f in fields(FaultSpec))
_fault_values = attrgetter(*_FAULT_FIELDS)
#: a ``FaultSpec`` is the one config value JSON cannot take as it is.
_encode_key = json.JSONEncoder(default=_fault_values).encode
_detector_values = attrgetter(
    "detector", "detection_threshold", "timeout_threshold",
    "cmh_block_threshold", "cmh_probe_interval",
)
#: the fields a :class:`RunResult` shares with the config it answers.
point_identity = attrgetter("scheme", "pattern", "num_vcs", "load")


def config_to_dict(config: SimConfig) -> dict:
    """JSON-able dict for one config: what ``dataclasses.asdict`` returns,
    without the copy (:func:`repro.farm.plan.config_from_dict` inverts it)."""
    payload = dict(zip(_CONFIG_FIELDS, _config_values(config)))
    payload["faults"] = tuple(
        dict(zip(_FAULT_FIELDS, _fault_values(spec)))
        for spec in config.faults
    )
    return payload


def point_key(config: SimConfig, warmup: int, measure: int,
              code: str | None = None) -> str:
    """Stable cache key for one (config, warmup, measure) point.

    The hash covers every config field's value, in declaration order
    (nested ones too: ``dims``, and each field of each
    :class:`~repro.faults.models.FaultSpec` through the ``default``
    hook), and no dict or set, so it does not move with
    ``PYTHONHASHSEED``.  The detector configuration is additionally
    spelled out: two runs that differ only in detection mechanism or
    thresholds produce different results, and a key omitting them (as a
    refactor of the field walk could silently reintroduce) would alias
    their cache entries.  The explicit section makes that collision
    structurally impossible; ``tests/test_parallel.py`` pins it.
    """
    blob = _encode_key((
        _config_values(config), _detector_values(config), int(warmup),
        int(measure), code if code is not None else code_version(),
    ))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: how every entry starts and ends; see :meth:`ResultCache.get`.
_ENTRY_HEAD, _ENTRY_TAIL = b'{"result": ', b"}\n"
_decode_value = json.JSONDecoder().raw_decode


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
        """The entry's result; None (a miss) for anything but a whole entry.

        An entry is ``{"result": {...}, <provenance>}\\n`` on one line, so
        a file with that head and the ``}\\n`` end is no strict prefix of
        one: torn, truncated and half-copied files stay misses although
        half a file already holds a whole result.  Only the result is
        decoded and checked (``RunResult(**...)``, as ever); the
        provenance after it is for people and never parsed, which
        trades one check away: a damaged *tail* that keeps its
        terminator no longer makes the entry a miss.
        """
        try:
            with open(f"{self.root}/{key}.json", "rb", buffering=0) as fh:
                blob = fh.read()
            if not (blob.startswith(_ENTRY_HEAD)
                    and blob.endswith(_ENTRY_TAIL)):
                raise ValueError("not a whole entry")
            members, _ = _decode_value(blob.decode("utf-8"),
                                       len(_ENTRY_HEAD))
            # Decoding gives every result its own copy of these three;
            # interned, a held campaign is a third smaller per point.
            for name in ("scheme", "pattern", "queue_mode"):
                members[name] = sys.intern(members[name])
            result = RunResult(**members)
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, config: SimConfig, warmup: int, measure: int,
            result: RunResult) -> None:
        blob = json.dumps({
            "result": result.to_dict(),
            "key": key,
            "code": code_version(),
            "config": config_to_dict(config),
            "warmup": int(warmup),
            "measure": int(measure),
        }) + "\n"
        # Unique temp file per put: concurrent writers of the same key
        # (racing farm twins, a resumed manager next to a live one) must
        # each rename a fully written file, so readers see one complete
        # entry or another — never an interleaved one.
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
            )
        except FileNotFoundError:  # the first put into a new directory
            self.root.mkdir(parents=True, exist_ok=True)
            return self.put(key, config, warmup, measure, result)
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
    the config digests.  An entry that answers for another config — a
    file copied, renamed or aliased under this point's key — is a miss
    too: the point is recomputed and the next ``put`` repairs it.
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
        if hit is not None and (
            point_identity(hit) != point_identity(configs[idx])
        ):
            cache.hits -= 1
            cache.misses += 1
            hit = None
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
