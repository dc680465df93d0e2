"""Campaign service: async job API, scenario library, streaming telemetry.

A long-running asyncio front-end over the simulator's existing
execution substrate.  Campaigns are submitted (by scenario name or raw
spec) with priorities, deduplicated against ``.repro_cache`` *before*
scheduling, executed by the farm manager on in-process (sampled), local
process or farm-host workers, and observed live over Server-Sent Events — job
progress plus :class:`~repro.telemetry.MetricsSampler` time series.  Jobs
trace nothing; any finished job's Perfetto trace is computed on request.

Everything is stdlib: :mod:`asyncio` sockets on the server,
:mod:`http.client` in the client, shared SSE framing in between.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import CampaignServer, run_service
from repro.service.jobs import Job, JobManager, job_id_for
from repro.service.scenarios import (
    SCENARIOS,
    Scenario,
    build_campaign,
    describe_scenarios,
    get_scenario,
    scenario_names,
)
from repro.service.sse import EventBroker, Subscription, format_sse, parse_sse

__all__ = [
    "CampaignServer",
    "run_service",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobManager",
    "job_id_for",
    "Scenario",
    "SCENARIOS",
    "build_campaign",
    "describe_scenarios",
    "get_scenario",
    "scenario_names",
    "EventBroker",
    "Subscription",
    "format_sse",
    "parse_sse",
]
