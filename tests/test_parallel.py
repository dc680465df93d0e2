"""Tests for repro.sim.parallel: equivalence, caching, crash handling.

``run_points`` executes through :class:`repro.farm.FarmManager`; the
crash, timeout and backoff behaviours pinned here are the manager's and
the local worker's, seen through the ``run_points`` contract.
"""

import functools
import io
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

import repro
from repro.config import ExecutionConfig, SimConfig
from repro.farm import (
    CampaignSpec,
    FarmManager,
    FarmPolicy,
    LocalPoolWorker,
    WorkerProcessDied,
)
from repro.farm.health import HEALTHY
from repro.faults.models import FaultSpec
from repro.sim import parallel, sweep
from repro.sim.parallel import (
    PointResolution,
    ResultCache,
    point_key,
    resolve_points,
    run_points,
)
from repro.sim.sweep import run_point, run_sweep, run_sweeps
from repro.telemetry import Tracer
from repro.util.backoff import BackoffPolicy
from repro.util.errors import LivenessError, PointTimeoutError, SweepExecutionError
from repro.util.progress import ProgressReporter, format_eta
from tests.test_options import non_default

WARMUP = 100
MEASURE = 200
LOADS = (0.002, 0.004, 0.006)


def tiny_config(load: float = 0.004, **kwargs) -> SimConfig:
    return SimConfig(dims=(4, 4), load=load, **kwargs)


def tiny_configs(loads=LOADS) -> list[SimConfig]:
    return [tiny_config(load) for load in loads]


#: a fault with no field at its default, for the key and layout tests.
FAULT = FaultSpec("link-stall", target=3, start=10, duration=6,
                  probability=0.25)


def _with_field(obj, name, value):
    """A copy of a frozen dataclass with one field set — also where
    ``__post_init__`` would refuse the lone change (``topology="file"``
    without a file): the key function must not care."""
    copy = replace(obj)
    object.__setattr__(copy, name, value)
    return copy


def _one_entry(tmp_path, config=None):
    """(cache, key, result) with exactly that entry on disk."""
    config = config or tiny_config()
    cache = ResultCache(tmp_path / "cache")
    key = point_key(config, WARMUP, MEASURE)
    result = run_point(tiny_config(), WARMUP, MEASURE)
    cache.put(key, config, WARMUP, MEASURE, result)
    return cache, key, result


# --- module-level point functions so they pickle into worker processes ---

def _boom(config, warmup, measure):
    raise RuntimeError("engine must not execute")


def _counting_point(counter_dir, config, warmup, measure):
    """Real run_point, recording one file per invocation."""
    fd, _ = tempfile.mkstemp(prefix=f"load{config.load}-", dir=counter_dir)
    os.close(fd)
    return run_point(config, warmup, measure)


def _hung_point(config, warmup, measure):
    """A wedged engine from the pool's point of view: never returns."""
    time.sleep(600)


def _slow_once_point(marker_dir, config, warmup, measure):
    """Hangs on the first attempt per load, runs normally on the retry."""
    marker = os.path.join(marker_dir, f"slow-{config.load}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        time.sleep(600)
    return run_point(config, warmup, measure)


def _wedged_point(config, warmup, measure):
    """Raises the engine watchdog's error, dump attached."""
    raise LivenessError(
        "no forward progress", {"cycle": 4242, "reason": "test wedge",
                                "cwg_knots": [["vc1", "vc2"]]},
    )


def _flaky_point(marker_dir, config, warmup, measure):
    """Crashes on the first attempt per load, succeeds on the retry."""
    marker = os.path.join(marker_dir, f"ran-{config.load}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        raise RuntimeError(f"injected crash at load {config.load}")
    return run_point(config, warmup, measure)


def _dying_once_point(marker_dir, config, warmup, measure):
    """Takes its worker process down on the first attempt per load."""
    marker = os.path.join(marker_dir, f"died-{config.load}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        os._exit(7)
    return run_point(config, warmup, measure)


def _dying_point(config, warmup, measure):
    os._exit(7)


def counting_fn(tmp_path, name="counter"):
    counter_dir = tmp_path / name
    counter_dir.mkdir(exist_ok=True)
    return functools.partial(_counting_point, str(counter_dir)), counter_dir


class TestSerialParallelEquivalence:
    def test_run_points_bit_identical(self):
        configs = tiny_configs()
        serial = run_points(configs, WARMUP, MEASURE, workers=1)
        fanned = run_points(configs, WARMUP, MEASURE, workers=4)
        assert serial == fanned

    def test_results_follow_input_order(self):
        scrambled = tiny_configs((0.006, 0.002, 0.004))
        results = run_points(scrambled, WARMUP, MEASURE, workers=3)
        assert [r.load for r in results] == [0.006, 0.002, 0.004]

    def test_run_sweep_matches_serial(self):
        config = tiny_config()
        serial = run_sweep(config, LOADS, warmup=WARMUP, measure=MEASURE)
        fanned = run_sweep(
            config, LOADS, warmup=WARMUP, measure=MEASURE,
            execution=ExecutionConfig(workers=4, use_cache=False),
        )
        assert serial.points == fanned.points
        assert serial.label == fanned.label


#: a campaign of four curves (lowest load first) on the 4x4 torus: the
#: three adversarial ones (one-flit buffers, 8-message queues) pass
#: saturation before their last point, the SA one never does.
SWEEP_WINDOW = (100, 300)
_ADVERSARIAL = dict(dims=(4, 4), pattern="PAT271", num_vcs=4,
                    queue_capacity=8, flit_buffer_depth=1, seed=3)
CAMPAIGN = [
    *[[SimConfig(scheme=scheme, load=0.01 * i, **_ADVERSARIAL)
       for i in range(1, 7)] for scheme in ("NONE", "DR", "PR")],
    [SimConfig(dims=(4, 4), scheme="SA", pattern="PAT721", num_vcs=8,
               seed=3, load=0.005 * i) for i in range(1, 10)],
]


def serial_curve(configs) -> list:
    """The reference: a curve's points one at a time, lowest load first,
    until the first one below 0.9 x the best so far (from the third on,
    paper Section 4.3.1)."""
    points = []
    for config in configs:
        points.append(run_point(config, *SWEEP_WINDOW))
        best = max(p.throughput_fpc for p in points)
        if len(points) >= 3 and points[-1].throughput_fpc < 0.9 * best:
            break
    return points


@pytest.fixture(scope="module")
def serial_campaign():
    curves = [serial_curve(configs) for configs in CAMPAIGN]
    kept = [len(points) for points in curves]
    # the campaign exercises both endings
    assert kept[:3] == [5, 5, 5] and kept[3] == len(CAMPAIGN[3])
    return curves


class TestRunSweeps:
    """A campaign runs as one; every curve is the serial sweep's."""

    @pytest.mark.parametrize("execution", [
        ExecutionConfig(workers=1, use_cache=False),
        ExecutionConfig(workers=2, use_cache=False),
        ExecutionConfig(workers=3, use_cache=False),
        ExecutionConfig(farm_hosts="local:1,local:2", use_cache=False),
    ], ids=["workers1", "workers2", "workers3", "hosts"])
    def test_curves_equal_serial_sweeps(self, execution, serial_campaign):
        sweeps = run_sweeps([c for curve in CAMPAIGN for c in curve],
                            *SWEEP_WINDOW, execution=execution)
        assert [s.points for s in sweeps] == serial_campaign
        assert [s.label for s in sweeps] == [
            "NONE/PAT271/4vc", "DR/PAT271/4vc", "PR/PAT271/4vc",
            "SA/PAT721/8vc"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_computes_only_kept_points(self, workers, tmp_path,
                                       monkeypatch, serial_campaign):
        """At least as many live curves as the width: one point per
        curve a round, so nothing past a stop is ever computed."""
        point_fn, counter_dir = counting_fn(tmp_path)
        monkeypatch.setattr(sweep, "run_points", functools.partial(
            run_points, point_fn=point_fn))
        run_sweeps([c for curve in CAMPAIGN for c in curve], *SWEEP_WINDOW,
                   execution=ExecutionConfig(workers=workers,
                                             use_cache=False))
        computed = len(list(counter_dir.iterdir()))
        assert computed == sum(map(len, serial_campaign))
        assert computed < sum(map(len, CAMPAIGN))

    def test_progress_counts_the_points_that_ran(self, tmp_path):
        """A stopped curve's unscheduled points leave the total, so a
        resumed campaign's last line says every point was cached."""
        configs = [c for curve in CAMPAIGN for c in curve]
        execution = ExecutionConfig(cache_dir=str(tmp_path), progress=True)
        run_sweeps(configs, *SWEEP_WINDOW, execution=execution)
        stream = io.StringIO()
        real = ProgressReporter

        def reporter(*args, **kwargs):
            return real(*args, **{**kwargs, "stream": stream})

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "ProgressReporter", reporter)
            run_sweeps(configs, *SWEEP_WINDOW, execution=execution)
        kept = 5 + 5 + 5 + 9
        assert stream.getvalue().splitlines()[-1] == (
            f"4 curves [{kept}/{kept}] {kept} cached")


class TestResultCache:
    def test_second_invocation_runs_zero_engines(self, tmp_path):
        configs = tiny_configs()
        cache = ResultCache(tmp_path / "cache")
        first = run_points(configs, WARMUP, MEASURE, workers=4, cache=cache)
        # _boom would crash any executed point: everything must come from disk.
        again = run_points(configs, WARMUP, MEASURE, workers=4, cache=cache,
                           point_fn=_boom)
        assert again == first
        assert cache.hits == len(configs)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        configs = tiny_configs()
        cache = ResultCache(tmp_path / "cache")
        serial = run_points(configs, WARMUP, MEASURE, workers=1, cache=cache)
        fanned = run_points(configs, WARMUP, MEASURE, workers=3, cache=cache,
                            point_fn=_boom)
        assert serial == fanned

    def test_key_depends_on_window_and_config(self):
        base = point_key(tiny_config(), WARMUP, MEASURE)
        assert point_key(tiny_config(), WARMUP + 1, MEASURE) != base
        assert point_key(tiny_config(), WARMUP, MEASURE + 1) != base
        assert point_key(tiny_config(seed=2), WARMUP, MEASURE) != base
        assert point_key(tiny_config(), WARMUP, MEASURE) == base

    def test_key_covers_full_detector_configuration(self):
        """Collision regression: two runs differing only in detection
        mechanism or thresholds must never alias one cache entry."""
        base = point_key(tiny_config(), WARMUP, MEASURE)
        variants = (
            dict(detector="cmh"),
            dict(detector="timeout"),
            dict(detection_threshold=26),
            dict(timeout_threshold=201),
            dict(cmh_block_threshold=5),
            dict(cmh_probe_interval=65),
        )
        keys = [point_key(tiny_config(**v), WARMUP, MEASURE) for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys), "detector variants collided"
        # Same detector configuration -> same key (cache still hits).
        assert point_key(tiny_config(detector="cmh"), WARMUP, MEASURE) == keys[0]

    @pytest.mark.parametrize("f", fields(SimConfig), ids=lambda f: f.name)
    def test_key_covers_every_config_field(self, f):
        """The key cannot silently lose a field: a field added to
        ``SimConfig`` later is covered without an edit here."""
        _, value = non_default(f)
        assert point_key(_with_field(tiny_config(), f.name, value),
                         WARMUP, MEASURE) != point_key(tiny_config(),
                                                       WARMUP, MEASURE)

    @pytest.mark.parametrize("f", fields(FaultSpec), ids=lambda f: f.name)
    def test_key_covers_every_field_of_a_fault_spec(self, f):
        healthy = FaultSpec("token-loss", start=900)
        value = ("router-freeze" if f.name == "kind"
                 else getattr(FAULT, f.name) * 2)
        changed = tiny_config(
            faults=(healthy, _with_field(FAULT, f.name, value)))
        assert point_key(changed, WARMUP, MEASURE) != point_key(
            tiny_config(faults=(healthy, FAULT)), WARMUP, MEASURE)

    def test_equal_configs_built_separately_share_a_key(self):
        one = SimConfig(dims=(4, 4), load=0.004, faults=(replace(FAULT),))
        two = SimConfig(dims=tuple([4, 4]), load=0.008 / 2, faults=[FAULT])
        assert one == two and one is not two
        assert point_key(one, WARMUP, MEASURE) == point_key(
            two, WARMUP, MEASURE)

    def test_key_does_not_move_with_the_hash_seed(self):
        script = (
            "from repro.config import SimConfig\n"
            "from repro.faults.models import FaultSpec\n"
            "from repro.sim.parallel import point_key\n"
            f"config = SimConfig(dims=(4, 4), load=0.004, faults=({FAULT!r},))\n"
            f"print(point_key(config, {WARMUP}, {MEASURE}))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        keys = [
            subprocess.run(
                [sys.executable, "-c", script], check=True, timeout=60,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("1", "2")
        ]
        assert keys[0] == keys[1] == point_key(
            tiny_config(faults=(FAULT,)), WARMUP, MEASURE)

    def test_changed_window_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache)
        with pytest.raises(SweepExecutionError):
            run_points(tiny_configs(), WARMUP, MEASURE + 50, cache=cache,
                       point_fn=_boom, retries=0)

    def test_code_version_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        counting, counter_dir = counting_fn(tmp_path)
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                   point_fn=counting)
        assert len(list(counter_dir.iterdir())) == len(LOADS)
        monkeypatch.setattr(parallel, "code_version", lambda: "different")
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                   point_fn=counting)
        assert len(list(counter_dir.iterdir())) == 2 * len(LOADS)

    def test_code_version_covers_the_c_kernel(self, tmp_path):
        """Editing ``kernel.c`` must invalidate cached vector points."""
        package = Path(repro.__file__).resolve().parent
        tree = tmp_path / "repro"
        shutil.copytree(
            package, tree, ignore=shutil.ignore_patterns("__pycache__", "_build")
        )
        before = parallel.digest_sources(tree)
        assert before == parallel.code_version()
        # A compiled kernel appearing on first use is not a code change.
        built = tree / "sim" / "vector" / "_build"
        built.mkdir()
        (built / "stale.c").write_text("int x;\n", "utf-8")
        assert parallel.digest_sources(tree) == before
        kernel = tree / "sim" / "vector" / "kernel.c"
        kernel.write_bytes(kernel.read_bytes() + b"\n")
        assert parallel.digest_sources(tree) != before

    def test_corrupt_entry_is_a_miss_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        [result] = run_points([tiny_config()], WARMUP, MEASURE, cache=cache)
        key = point_key(tiny_config(), WARMUP, MEASURE)
        cache.path_for(key).write_text("{not json", "utf-8")
        [again] = run_points([tiny_config()], WARMUP, MEASURE, cache=cache)
        assert again == result
        payload = json.loads(cache.path_for(key).read_text("utf-8"))
        assert payload["result"]["load"] == tiny_config().load

    def test_entry_is_one_line_of_json_with_the_result_first(self, tmp_path):
        config = tiny_config(faults=(FAULT,))
        cache, key, result = _one_entry(tmp_path, config)
        blob = cache.path_for(key).read_text("utf-8")
        assert blob.endswith("}\n") and blob.count("\n") == 1
        payload = json.loads(blob)
        assert list(payload) == [
            "result", "key", "code", "config", "warmup", "measure"]
        assert payload["result"] == result.to_dict()
        assert payload["key"] == key
        # the provenance is the config as asdict() spells it
        assert parallel.config_to_dict(config) == asdict(config)
        assert payload["config"] == json.loads(json.dumps(asdict(config)))

    def test_every_strict_prefix_of_an_entry_is_a_miss(self, tmp_path):
        """Torn, truncated, half-copied: none may be served, although
        the result is whole long before the file is."""
        cache, key, result = _one_entry(tmp_path)
        path = cache.path_for(key)
        blob = path.read_bytes()
        assert blob.index(b', "key"') < len(blob) // 2
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            assert cache.get(key) is None, length
        assert cache.misses == len(blob)
        path.write_bytes(blob)
        assert cache.get(key) == result

    @pytest.mark.parametrize("extra", [b"x", b"\n", b"}", b'{"result": 1'])
    def test_bytes_after_the_terminator_are_a_miss(self, tmp_path, extra):
        cache, key, _ = _one_entry(tmp_path)
        with open(cache.path_for(key), "ab") as fh:
            fh.write(extra)
        assert cache.get(key) is None

    def test_result_with_a_missing_or_extra_member_is_a_miss(self, tmp_path):
        cache, key, result = _one_entry(tmp_path)
        path = cache.path_for(key)
        payload = json.loads(path.read_text("utf-8"))

        def served(members):
            path.write_text(
                json.dumps({**payload, "result": members}) + "\n", "utf-8")
            return cache.get(key)

        members = payload["result"]
        assert served(members) == result  # the rewrite itself is harmless
        for name in members:
            assert served({k: v for k, v in members.items() if k != name}
                          ) is None, name
        assert served({**members, "surprise": 1}) is None
        assert served(list(members.values())) is None

    def test_interrupted_run_resumes(self, tmp_path):
        """Failed batch keeps its completed points; the rerun finishes them."""
        cache = ResultCache(tmp_path / "cache")
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        flaky = functools.partial(_flaky_point, str(marker_dir))
        with pytest.raises(SweepExecutionError):
            run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                       point_fn=flaky, retries=0)
        assert cache.hits == 0
        counting, counter_dir = counting_fn(tmp_path)
        resumed = run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                             point_fn=counting)
        # Every point either came from cache or ran exactly once now.
        executed = len(list(counter_dir.iterdir()))
        assert cache.hits + executed == len(LOADS)
        assert resumed == run_points(tiny_configs(), WARMUP, MEASURE)


class TestResolvePoints:
    """The shared pre-schedule dedup helper (pool, farm and service)."""

    def test_cold_cache_everything_missing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        assert isinstance(res, PointResolution)
        assert res.total == len(LOADS)
        assert res.cached == 0
        assert res.missing == list(range(len(LOADS)))
        assert res.results == [None] * len(LOADS)

    def test_warm_cache_fills_results_in_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        computed = run_points(tiny_configs(), WARMUP, MEASURE, cache=cache)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        assert res.missing == []
        assert res.cached == res.total == len(LOADS)
        assert res.results == computed

    def test_partial_hit_reports_missing_indices(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_points([tiny_config(LOADS[1])], WARMUP, MEASURE, cache=cache)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        assert res.missing == [0, 2]
        assert res.results[1] is not None
        assert res.cached == 1

    def test_none_cache_means_all_missing(self):
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, None)
        assert res.missing == list(range(len(LOADS)))
        assert res.keys == [
            point_key(c, WARMUP, MEASURE) for c in tiny_configs()
        ]

    def test_caller_supplied_keys_are_used_verbatim(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache)
        bogus = ["nope"] * len(LOADS)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache,
                             keys=bogus)
        assert res.missing == list(range(len(LOADS)))
        assert res.keys == bogus

    def test_key_count_mismatch_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError):
            resolve_points(tiny_configs(), WARMUP, MEASURE, cache,
                           keys=["just-one"])

    def test_entry_answering_for_another_config_is_a_miss(self, tmp_path):
        """An entry copied, renamed or aliased under the wrong key is
        recomputed and repaired, never served."""
        ours, theirs = tiny_config(LOADS[0]), tiny_config(LOADS[1])
        root = tmp_path / "cache"
        run_points([ours, theirs], WARMUP, MEASURE, cache=ResultCache(root))
        cache = ResultCache(root)
        entry = cache.path_for(point_key(ours, WARMUP, MEASURE))
        shutil.copy(cache.path_for(point_key(theirs, WARMUP, MEASURE)), entry)
        res = resolve_points([ours, theirs], WARMUP, MEASURE, cache)
        assert res.missing == [0] and res.results[0] is None
        assert (cache.hits, cache.misses) == (1, 1)
        counting, counter_dir = counting_fn(tmp_path)
        results = run_points([ours, theirs], WARMUP, MEASURE, cache=cache,
                             point_fn=counting)
        assert [r.load for r in results] == [ours.load, theirs.load]
        assert len(list(counter_dir.iterdir())) == 1
        assert json.loads(entry.read_text("utf-8"))["result"]["load"] == ours.load
        assert resolve_points([ours, theirs], WARMUP, MEASURE,
                              ResultCache(root)).missing == []

    def test_run_points_dedup_agrees_with_resolution(self, tmp_path):
        """run_points executes exactly the points resolve_points says."""
        cache = ResultCache(tmp_path / "cache")
        run_points([tiny_config(LOADS[0])], WARMUP, MEASURE, cache=cache)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        counting, counter_dir = counting_fn(tmp_path)
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                   point_fn=counting)
        assert len(list(counter_dir.iterdir())) == len(res.missing)


class TestCrashHandling:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_crashed_point_is_retried_once(self, tmp_path, workers):
        marker_dir = tmp_path / f"markers{workers}"
        marker_dir.mkdir()
        flaky = functools.partial(_flaky_point, str(marker_dir))
        results = run_points(tiny_configs(), WARMUP, MEASURE, workers=workers,
                             point_fn=flaky, retries=1)
        assert results == run_points(tiny_configs(), WARMUP, MEASURE)
        # one crash marker per load: each point failed once, then succeeded
        assert len(list(marker_dir.iterdir())) == len(LOADS)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_persistent_crash_reports_config(self, workers):
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(), WARMUP, MEASURE, workers=workers,
                       point_fn=_boom, retries=1)
        message = str(excinfo.value)
        assert "load=0.004" in message and "scheme=PR" in message
        assert len(excinfo.value.failures) == len(LOADS)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failing_point_does_not_quarantine_the_host(self, workers):
        """A point function that raises is the point's failure: it costs
        the shard an attempt, never the host its standing — so the batch
        fails in milliseconds, not after quarantine probation delays."""
        start = time.monotonic()
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(), WARMUP, MEASURE, workers=workers,
                       point_fn=_boom, retries=1)
        assert time.monotonic() - start < FarmPolicy().probation / 2
        failures = excinfo.value.failures
        assert sorted(failures) == list(range(len(LOADS)))
        assert all(isinstance(exc, RuntimeError)
                   and "engine must not execute" in str(exc)
                   for _, exc in failures.values())
        [host] = excinfo.value.attribution.values()
        assert host["state"] == HEALTHY and host["shards_failed"] == 0

    def test_closure_point_fn_runs_in_process(self):
        # workers=1 without a timeout never forks, so a closure works.
        seen = []

        def remembering(config, warmup, measure):
            seen.append(config.load)
            return run_point(config, warmup, measure)

        results = run_points(tiny_configs(), WARMUP, MEASURE,
                             point_fn=remembering)
        assert results == run_points(tiny_configs(), WARMUP, MEASURE)
        assert seen == list(LOADS)


class TestPointTimeout:
    def test_hung_point_times_out_and_is_reported(self):
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points([tiny_config()], WARMUP, MEASURE, workers=1,
                       point_fn=_hung_point, retries=0, timeout=1.0)
        (config, exc) = excinfo.value.failures[0]
        assert isinstance(exc, PointTimeoutError)
        assert exc.timeout == 1.0
        assert config.load == tiny_config().load
        assert "wall-clock timeout" in str(excinfo.value)

    def test_timed_out_point_is_retried(self, tmp_path):
        # First attempt hangs and is killed; the retry completes and the
        # batch succeeds — a transient wedge must not fail a campaign.
        marker_dir = tmp_path / "slow"
        marker_dir.mkdir()
        slow_once = functools.partial(_slow_once_point, str(marker_dir))
        results = run_points([tiny_config()], WARMUP, MEASURE, workers=1,
                             point_fn=slow_once, retries=1, timeout=2.0)
        assert results == run_points([tiny_config()], WARMUP, MEASURE)
        assert len(list(marker_dir.iterdir())) == 1  # hung exactly once

    def test_healthy_points_survive_a_hung_sibling(self):
        # One wedged point in the wave must not take down the others.
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(), WARMUP, MEASURE, workers=3,
                       point_fn=_picky_point, retries=0, timeout=5.0)
        failures = excinfo.value.failures
        assert list(failures) == [1]  # only the hung load
        assert isinstance(failures[1][1], PointTimeoutError)

    def test_liveness_dump_survives_the_worker_pool(self):
        # The diagnosing exception pickles back intact, dump and all.
        # (two points, so workers=2 really is two processes)
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(LOADS[:2]), WARMUP, MEASURE, workers=2,
                       point_fn=_wedged_point, retries=0)
        exc = excinfo.value.failures[0][1]
        assert isinstance(exc, LivenessError)
        assert exc.dump["cycle"] == 4242
        assert "dump: cycle=4242" in str(excinfo.value)

    def test_point_timeout_error_pickles(self):
        exc = PointTimeoutError(2.5, tiny_config())
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.timeout == 2.5
        assert clone.config == tiny_config()

    def test_point_timeout_validation(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExecutionConfig(point_timeout=0)
        assert ExecutionConfig(point_timeout=1.5).point_timeout == 1.5


class TestBrokenPoolAccounting:
    """A worker process that dies under a point (the old pool-death
    cases): the point is charged one attempt, the process is replaced,
    and the run goes on."""

    def test_pool_death_charges_each_point_once(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        dying_once = functools.partial(_dying_once_point, str(marker_dir))
        # retries=1 is enough only if each death costs exactly one attempt
        results = run_points(tiny_configs(), WARMUP, MEASURE, workers=3,
                             point_fn=dying_once, retries=1)
        assert results == run_points(tiny_configs(), WARMUP, MEASURE)
        assert len(list(marker_dir.iterdir())) == len(LOADS)

    def test_pool_death_past_the_budget_reports_failures(self):
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(), WARMUP, MEASURE, workers=3,
                       point_fn=_dying_point, retries=1)
        assert len(excinfo.value.failures) == len(LOADS)
        assert isinstance(excinfo.value.failures[0][1], WorkerProcessDied)
        [host] = excinfo.value.attribution.values()
        assert host["state"] == HEALTHY


class TestWorkerLifetime:
    """The manager opens its workers before dispatching and closes them
    whatever happens; nothing outlives ``run_points``."""

    def test_no_process_survives_a_clean_run(self):
        run_points(tiny_configs(), WARMUP, MEASURE, workers=3)
        assert multiprocessing.active_children() == []

    def test_no_process_survives_a_failed_run(self):
        with pytest.raises(SweepExecutionError):
            run_points(tiny_configs(), WARMUP, MEASURE, workers=3,
                       point_fn=_boom, retries=0)
        assert multiprocessing.active_children() == []

    def test_no_process_survives_a_timed_out_point(self):
        with pytest.raises(SweepExecutionError):
            run_points([tiny_config()], WARMUP, MEASURE, workers=1,
                       point_fn=_hung_point, retries=0, timeout=0.5)
        assert multiprocessing.active_children() == []

    def test_closed_worker_reopens_on_its_next_run(self, tmp_path):
        worker = LocalPoolWorker(workers=2)
        spec = CampaignSpec(tuple(tiny_configs()), WARMUP, MEASURE,
                            shard_size=1)
        first = FarmManager([worker], cache=None).run(spec)
        assert multiprocessing.active_children() == []
        assert FarmManager([worker], cache=None).run(spec) == first
        assert multiprocessing.active_children() == []


class _RecordingBackoff(BackoffPolicy):
    """A policy that remembers every delay it was asked for."""

    calls: list = []

    def delay(self, attempt, key=""):
        seconds = super().delay(attempt, key)
        self.calls.append((attempt, key, seconds))
        return seconds


class TestRetryBackoff:
    @pytest.fixture
    def flaky(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        return functools.partial(_flaky_point, str(marker_dir))

    @pytest.fixture
    def calls(self, monkeypatch):
        monkeypatch.setattr(_RecordingBackoff, "calls", [])
        return _RecordingBackoff.calls

    def test_serial_retry_waits_out_the_policy(self, flaky):
        """Each retry is dispatched no sooner than the policy's seeded
        delay for that shard and attempt after its failure."""
        policy = FarmPolicy(retries=1)
        tracer = Tracer()
        spec = CampaignSpec(tuple(tiny_configs()), WARMUP, MEASURE,
                            shard_size=1)
        FarmManager([LocalPoolWorker(point_fn=flaky)], cache=None,
                    policy=policy, tracer=tracer).run(spec)
        backoffs = {p["shard"]: (ms, p["delay_ms"])
                    for ms, kind, p in tracer.events if kind == "farm_backoff"}
        assert sorted(backoffs) == list(range(len(LOADS)))
        for shard, (failed_ms, delay_ms) in backoffs.items():
            expected = policy.backoff.delay(1, key=f"shard{shard}")
            assert delay_ms == int(expected * 1000)
            [retry_ms] = [ms for ms, kind, p in tracer.events
                          if kind == "farm_dispatch" and p["shard"] == shard
                          and p["attempt"] == 1]
            assert retry_ms - failed_ms >= delay_ms

    def _one_delay_per_failed_point(self, kwargs, flaky, calls):
        policy = _RecordingBackoff(base=0.01, cap=0.01, jitter=0.0)
        run_points(tiny_configs(), WARMUP, MEASURE, point_fn=flaky,
                   retries=1, backoff=policy, **kwargs)
        assert sorted(calls) == [
            (1, f"shard{n}", 0.01) for n in range(len(LOADS))
        ]

    def test_parallel_retry_round_backs_off_once(self, flaky, calls):
        # across worker processes: one delay per failed point, no more
        self._one_delay_per_failed_point(dict(workers=3), flaky, calls)

    def test_timed_waves_back_off_between_retries(self, flaky, calls):
        # ... and the same with the per-point kill switch armed
        self._one_delay_per_failed_point(dict(workers=3, timeout=60.0),
                                         flaky, calls)

    def test_custom_policy_is_honoured(self, flaky, calls):
        quiet = _RecordingBackoff(base=0.25, factor=2.0, cap=1.0, jitter=0.0)
        start = time.monotonic()
        run_points(tiny_configs(), WARMUP, MEASURE, workers=1,
                   point_fn=flaky, retries=1, backoff=quiet)
        assert [seconds for _, _, seconds in calls] == [0.25] * len(LOADS)
        assert time.monotonic() - start >= 0.25

    def test_successful_run_never_sleeps(self, calls):
        run_points(tiny_configs(), WARMUP, MEASURE, workers=1,
                   backoff=_RecordingBackoff())
        assert calls == []


def _picky_point(config, warmup, measure):
    """Hangs on the middle load only; the rest run normally."""
    if config.load == LOADS[1]:
        time.sleep(600)
    return run_point(config, warmup, measure)


class TestExecutionConfig:
    def test_validation(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExecutionConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(retries=-1)

    def test_default_execution_round_trip(self):
        previous = parallel.get_default_execution()
        override = ExecutionConfig(workers=2, use_cache=False)
        assert parallel.set_default_execution(override) is previous
        try:
            assert parallel.get_default_execution() is override
        finally:
            parallel.set_default_execution(previous)


class FakeClock:
    """Deterministic monotonic clock for throttle tests."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestProgressReporter:
    def test_non_tty_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=3, label="PR/x", stream=stream)
        reporter.update(elapsed=1.0)
        reporter.update(cached=True)
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("PR/x [1/3]")
        assert "1 cached" in lines[1]

    def test_non_tty_updates_throttled(self):
        # A burst of quick updates must not flood a log file: at most one
        # line per min_interval, with the final state always emitted.
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(total=100, stream=stream, clock=clock,
                                    min_interval=2.0)
        for _ in range(50):
            reporter.update()
            clock.advance(0.01)  # 100 updates/sec
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1  # only the first update rendered
        assert lines[0].startswith("[1/100]")
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("[50/100]")

    def test_non_tty_emits_after_interval_elapses(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(total=4, stream=stream, clock=clock,
                                    min_interval=2.0)
        reporter.update()
        clock.advance(0.5)
        reporter.update()  # throttled
        clock.advance(2.0)
        reporter.update()  # interval elapsed: rendered
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[1/4]")
        assert lines[1].startswith("[3/4]")
        reporter.finish()  # nothing suppressed since the last line
        assert len(stream.getvalue().splitlines()) == 2

    def test_finish_without_pending_state_adds_nothing(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, stream=stream, clock=clock)
        reporter.update()
        reporter.finish()
        assert len(stream.getvalue().splitlines()) == 1

    def test_disabled_is_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, stream=stream, enabled=False)
        reporter.update()
        reporter.finish()
        assert stream.getvalue() == ""

    def test_format_eta(self):
        assert format_eta(75) == "1:15"
        assert format_eta(3725) == "1:02:05"
