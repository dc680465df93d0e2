"""Event tracing, time-series metrics, and recovery-episode timelines.

The paper's claims are *temporal* — how fast each scheme detects and
resolves message-dependent deadlock — yet aggregate counters cannot
show a single detection firing or token hop.  This subsystem records
typed events into a bounded ring buffer through narrow hooks in the
engine, fabric, endpoint, scheme, token and fault layers (each hook
costs one ``is None`` test when tracing is off), samples time-series
metrics at a configurable interval, and exports both as:

* Chrome/Perfetto trace-event JSON (:func:`export_perfetto`) —
  messages as async spans, routers/NIs/recovery as tracks, sampled
  metrics as counter tracks; loads directly in ``chrome://tracing`` or
  https://ui.perfetto.dev;
* CSV / JSON time series (:func:`export_timeseries_csv`,
  :func:`export_timeseries_json`);
* per-deadlock :class:`RecoveryEpisode` records
  (:func:`stitch_episodes`) — formation → detection → resolution →
  drain timelines checked by the fault campaign and attached
  to :func:`repro.sim.invariants.format_dump`.

Attach with ``engine.attach_tracer(Tracer(level="message"))``; trace
level ``"flit"`` additionally records VC grants and token hops.
"""

from repro.telemetry.episodes import (
    RecoveryEpisode,
    format_episodes,
    stitch_episodes,
)
from repro.telemetry.events import TRACE_LEVELS, SampleTap, Tracer
from repro.telemetry.export import (
    export_perfetto,
    export_timeseries_csv,
    export_timeseries_json,
    to_perfetto,
    validate_perfetto,
)
from repro.telemetry.samplers import MetricsSampler

__all__ = [
    "TRACE_LEVELS",
    "Tracer",
    "SampleTap",
    "MetricsSampler",
    "RecoveryEpisode",
    "stitch_episodes",
    "format_episodes",
    "to_perfetto",
    "export_perfetto",
    "validate_perfetto",
    "export_timeseries_csv",
    "export_timeseries_json",
]
