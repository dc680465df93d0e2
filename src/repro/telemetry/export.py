"""Exporters: Chrome/Perfetto trace-event JSON and CSV/JSON time series.

The Perfetto export follows the Trace Event Format (the JSON flavour
accepted by both ``chrome://tracing`` and https://ui.perfetto.dev):

* each traced message becomes an **async span** (``ph`` ``b``/``n``/``e``
  keyed by ``cat`` + ``id``) from creation to consumption, with its
  lifecycle milestones as nested instants;
* blocked episodes become a second async series per message, so stalls
  render as sub-spans under the message;
* detection, recovery, token and fault events become **instants**
  (``ph`` ``i``) on dedicated scheme/token/fault tracks;
* sampled metrics become **counter tracks** (``ph`` ``C``).

Cycle numbers map 1:1 onto the format's microsecond timestamps, so one
trace "µs" is one simulated cycle.
"""

from __future__ import annotations

import csv
import json
from typing import Any

from repro.telemetry import events as ev

#: process ids for the Perfetto track layout.
PID_MESSAGES = 1
PID_SCHEME = 2
PID_METRICS = 3
PID_FARM = 4

#: threads inside the scheme process.
TID_DETECTION = 1
TID_RECOVERY = 2
TID_TOKEN = 3
TID_FAULTS = 4

_INSTANT_TRACKS = {
    ev.DETECT: ("detect", TID_DETECTION),
    ev.PROBE_SEND: ("probe_send", TID_DETECTION),
    ev.PROBE_FORWARD: ("probe_forward", TID_DETECTION),
    ev.PROBE_RETURN: ("probe_return", TID_DETECTION),
    ev.PROBE_DROP: ("probe_drop", TID_DETECTION),
    ev.DEFLECT: ("deflect", TID_RECOVERY),
    ev.RESCUE_LEG: ("rescue_leg", TID_RECOVERY),
    ev.VC_GRANT: ("vc_grant", TID_RECOVERY),
    ev.TOKEN_HOP: ("token_hop", TID_TOKEN),
    ev.TOKEN_CAPTURE: ("token_capture", TID_TOKEN),
    ev.TOKEN_RELEASE: ("token_release", TID_TOKEN),
    ev.TOKEN_REGEN: ("token_regen", TID_TOKEN),
    ev.FAULT_APPLIED: ("fault_applied", TID_FAULTS),
    ev.FAULT_REVOKED: ("fault_revoked", TID_FAULTS),
}

#: lifecycle milestones rendered as instants nested inside the span.
_SPAN_MILESTONES = (ev.ADMITTED, ev.INJECTED, ev.DELIVERED)

#: campaign-level farm events rendered on the farm process's thread 0;
#: host-attributed events get one thread per host (assigned on first
#: sight) so each machine reads as its own timeline row.
_FARM_CAMPAIGN_KINDS = (ev.FARM_MERGE, ev.FARM_BACKOFF)


def _meta(pid: int, name: str, tid: int | None = None) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": "thread_name" if tid is not None else "process_name",
        "ph": "M",
        "pid": pid,
        "tid": tid if tid is not None else 0,
        "args": {"name": name},
    }
    return out


def to_perfetto(tracer, pid_base: int = 0,
                label: str | None = None) -> dict[str, Any]:
    """Fold a tracer's ring buffer and samples into a trace-event dict.

    ``pid_base`` shifts every process id and ``label`` prefixes every
    process name, so the traces of several runs concatenate into one
    document (one process group per run) without a second pass.
    """
    pid_messages = pid_base + PID_MESSAGES
    pid_scheme = pid_base + PID_SCHEME
    pid_metrics = pid_base + PID_METRICS
    pid_farm = pid_base + PID_FARM

    def process(pid: int, name: str) -> dict[str, Any]:
        return _meta(pid, name if label is None else f"{label}: {name}")

    out: list[dict[str, Any]] = [
        process(pid_messages, "messages"),
        process(pid_scheme, "scheme"),
        _meta(pid_scheme, "detection", TID_DETECTION),
        _meta(pid_scheme, "recovery", TID_RECOVERY),
        _meta(pid_scheme, "token", TID_TOKEN),
        _meta(pid_scheme, "faults", TID_FAULTS),
        process(pid_metrics, "metrics"),
    ]
    open_spans: set[int] = set()
    open_blocks: set[int] = set()
    # Farm track state: the process meta is added lazily so engine-only
    # traces keep their exact historical layout; hosts become threads in
    # order of first appearance, each shard dispatch->completion pairs
    # into an "X" span on its host's row.
    farm_tids: dict[str, int] = {}
    open_shards: dict[tuple[str | None, Any], int] = {}

    def farm_tid(host: str | None) -> int:
        if host is None:
            host = "campaign"
        tid = farm_tids.get(host)
        if tid is None:
            if not farm_tids:
                out.append(process(pid_farm, "farm"))
                out.append(_meta(pid_farm, "campaign", 0))
            if host == "campaign":
                tid = farm_tids[host] = 0
            else:
                tid = farm_tids[host] = max(farm_tids.values(), default=0) + 1
                out.append(_meta(pid_farm, host, tid))
        return tid

    def begin_span(mid: int, ts: int) -> None:
        open_spans.add(mid)
        out.append({
            "name": tracer.label_of(mid), "cat": "message", "ph": "b",
            "id": mid, "ts": ts, "pid": pid_messages, "tid": 0, "args": {},
        })

    for cycle, kind, payload in tracer.events:
        mid = payload.get("mid")
        if kind == ev.CREATED:
            begin_span(mid, cycle)
        elif kind == ev.CONSUMED:
            if mid not in open_spans:  # creation fell out of the ring
                begin_span(mid, cycle)
            open_spans.discard(mid)
            out.append({
                "name": tracer.label_of(mid), "cat": "message", "ph": "e",
                "id": mid, "ts": cycle, "pid": pid_messages, "tid": 0,
                "args": {},
            })
        elif kind in _SPAN_MILESTONES:
            if mid not in open_spans:
                begin_span(mid, cycle)
            out.append({
                "name": kind, "cat": "message", "ph": "n",
                "id": mid, "ts": cycle, "pid": pid_messages, "tid": 0,
                "args": dict(payload),
            })
        elif kind == ev.BLOCKED:
            if mid not in open_spans:
                begin_span(mid, cycle)
            open_blocks.add(mid)
            out.append({
                "name": f"blocked {tracer.label_of(mid)}", "cat": "blocked",
                "ph": "b", "id": mid, "ts": cycle,
                "pid": pid_messages, "tid": 0,
                "args": {"router": payload.get("router")},
            })
        elif kind == ev.UNBLOCKED:
            if mid in open_blocks:
                open_blocks.discard(mid)
                out.append({
                    "name": f"blocked {tracer.label_of(mid)}",
                    "cat": "blocked", "ph": "e", "id": mid, "ts": cycle,
                    "pid": pid_messages, "tid": 0, "args": {},
                })
        elif kind in _INSTANT_TRACKS:
            name, tid = _INSTANT_TRACKS[kind]
            out.append({
                "name": name, "ph": "i", "ts": cycle,
                "pid": pid_scheme, "tid": tid, "s": "t",
                "args": dict(payload),
            })
        elif kind in ev.FARM_EVENT_KINDS:
            host = payload.get("host")
            tid = farm_tid(None if kind in _FARM_CAMPAIGN_KINDS else host)
            shard = payload.get("shard")
            if kind in (ev.FARM_DISPATCH, ev.FARM_REDISPATCH):
                open_shards[(host, shard)] = cycle
            elif kind in (ev.FARM_SHARD_DONE, ev.FARM_SHARD_FAILED):
                start = open_shards.pop((host, shard), None)
                if start is not None:
                    out.append({
                        "name": f"shard {shard}", "cat": "farm", "ph": "X",
                        "ts": start, "dur": max(0, cycle - start),
                        "pid": pid_farm, "tid": tid, "args": dict(payload),
                    })
            out.append({
                "name": kind, "ph": "i", "ts": cycle,
                "pid": pid_farm, "tid": tid, "s": "t",
                "args": dict(payload),
            })

    # Close anything still open so the trace stays well-formed.
    end = tracer.last_cycle
    for mid in sorted(open_blocks):
        out.append({
            "name": f"blocked {tracer.label_of(mid)}", "cat": "blocked",
            "ph": "e", "id": mid, "ts": end, "pid": pid_messages, "tid": 0,
            "args": {"truncated": True},
        })
    for mid in sorted(open_spans):
        out.append({
            "name": tracer.label_of(mid), "cat": "message", "ph": "e",
            "id": mid, "ts": end, "pid": pid_messages, "tid": 0,
            "args": {"truncated": True},
        })

    for sample in tracer.samples:
        ts = sample["cycle"]
        for metric in ("busy_links", "flit_occupancy", "live_messages",
                       "blocked_frontiers"):
            out.append({
                "name": metric, "ph": "C", "ts": ts,
                "pid": pid_metrics, "tid": 0,
                "args": {metric: sample[metric]},
            })
        if "token_pos" in sample:
            out.append({
                "name": "token_pos", "ph": "C", "ts": ts,
                "pid": pid_metrics, "tid": 0,
                "args": {"token_pos": sample["token_pos"]},
            })

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_level": tracer.level,
            "events_recorded": tracer.events_recorded,
            "dropped_events": tracer.dropped_events,
            "last_cycle": tracer.last_cycle,
        },
    }


def export_perfetto(tracer, path) -> dict[str, Any]:
    """Write the Perfetto JSON to ``path`` and return the trace dict."""
    trace = to_perfetto(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
        fh.write("\n")
    return trace


#: required keys per trace-event phase.
_REQUIRED_KEYS = {
    "b": {"name", "cat", "id", "ts", "pid", "tid"},
    "e": {"name", "cat", "id", "ts", "pid", "tid"},
    "n": {"name", "cat", "id", "ts", "pid", "tid"},
    "i": {"name", "ts", "pid", "tid", "s"},
    "C": {"name", "ts", "pid", "args"},
    "M": {"name", "pid", "args"},
}


def validate_perfetto(trace: dict) -> None:
    """Raise ``AssertionError`` unless ``trace`` is loadable trace JSON:
    the required keys per phase, and balanced async begin/end spans."""
    events = trace["traceEvents"]
    assert events, "empty traceEvents"
    open_spans: dict[tuple[str, int], int] = {}
    for event in events:
        ph = event.get("ph")
        assert ph in _REQUIRED_KEYS, f"unknown phase {ph!r}"
        missing = _REQUIRED_KEYS[ph] - set(event)
        assert not missing, f"{ph!r} event missing {sorted(missing)}"
        if ph != "M":
            assert isinstance(event["ts"], int) and event["ts"] >= 0
        if ph == "b":
            key = (event["cat"], event["id"])
            open_spans[key] = open_spans.get(key, 0) + 1
        elif ph == "e":
            key = (event["cat"], event["id"])
            assert open_spans.get(key, 0) > 0, f"end without begin: {key}"
            open_spans[key] -= 1
        elif ph == "n":
            key = (event["cat"], event["id"])
            assert open_spans.get(key, 0) > 0, f"instant outside span: {key}"
    unbalanced = {k: v for k, v in open_spans.items() if v}
    assert not unbalanced, f"unterminated spans: {unbalanced}"
    # Must round-trip as JSON (what chrome://tracing actually parses).
    json.loads(json.dumps(trace))


#: aggregate CSV columns (per-NI detail lives in the JSON export).
CSV_FIELDS = (
    "cycle", "busy_links", "channel_utilization", "flit_occupancy",
    "live_messages", "blocked_frontiers",
    "ni_occupied", "ni_held", "ni_reserved",
    "token_pos", "token_state",
)


def _csv_row(sample: dict[str, Any]) -> dict[str, Any]:
    occ = sample["ni_occupancy"]
    return {
        "cycle": sample["cycle"],
        "busy_links": sample["busy_links"],
        "channel_utilization": f"{sample['channel_utilization']:.6f}",
        "flit_occupancy": sample["flit_occupancy"],
        "live_messages": sample["live_messages"],
        "blocked_frontiers": sample["blocked_frontiers"],
        "ni_occupied": sum(o for o, _, _ in occ),
        "ni_held": sum(h for _, h, _ in occ),
        "ni_reserved": sum(r for _, _, r in occ),
        "token_pos": sample.get("token_pos", ""),
        "token_state": sample.get("token_state", ""),
    }


def export_timeseries_csv(tracer, path) -> None:
    """Write the sampled time series as aggregate-per-cycle CSV rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for sample in tracer.samples:
            writer.writerow(_csv_row(sample))


def export_timeseries_json(tracer, path) -> None:
    """Write the full sampled time series (per-NI detail included)."""
    payload = {
        "sample_every": tracer.sample_every,
        "last_cycle": tracer.last_cycle,
        "samples": tracer.samples,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
