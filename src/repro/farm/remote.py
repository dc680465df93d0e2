"""The farm's wire protocol: one JSON job in, one JSON result out.

This module is the *worker side* of every non-local worker:

* ``python -m repro.farm.remote`` reads a job document from stdin, runs
  its points, and writes a result document to stdout — this is what
  :class:`~repro.farm.workers.SSHHostWorker` launches on the far end of
  an ``ssh`` pipe (stdlib subprocess, no dependencies beyond a checkout
  of this package on the remote ``PYTHONPATH``).
* ``python -m repro.farm.remote --serve DIR`` is the agent loop of the
  job-dir protocol used by
  :class:`~repro.farm.workers.ExternalWorker`: an externally provisioned
  machine watches ``DIR/jobs/`` for job files and answers into
  ``DIR/results/`` with the same documents, atomically renamed so the
  manager never reads a torn file.

Job document::

    {"warmup": int, "measure": int,
     "points": {"<campaign index>": {<SimConfig as dict>}, ...}}

Result document::

    {"ok": true,  "results": {"<campaign index>": {<RunResult>}, ...}}
    {"ok": false, "error": "<traceback tail>"}

Exceptions never escape as a broken pipe: any failure is folded into an
``ok: false`` document so the manager can charge the host and retry the
shard elsewhere.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from repro.farm.plan import config_from_dict
from repro.util.atomic import write_json_atomic


def execute_job(job: dict[str, Any]) -> dict[str, Any]:
    """Run every point of one job document; never raises."""
    try:
        from repro.sim.sweep import run_point

        warmup = int(job["warmup"])
        measure = int(job["measure"])
        results = {}
        for idx, payload in job["points"].items():
            config = config_from_dict(payload)
            results[str(idx)] = run_point(config, warmup, measure).to_dict()
        return {"ok": True, "results": results}
    except Exception:
        return {"ok": False, "error": traceback.format_exc(limit=8)}


def serve_job_dir(
    root: str | Path,
    *,
    max_jobs: int | None = None,
    idle_timeout: float | None = None,
    poll_interval: float = 0.05,
) -> int:
    """Answer job files under ``root`` until told (or timed out) to stop.

    Returns the number of jobs served.  ``max_jobs`` bounds the loop for
    tests and one-shot agents; ``idle_timeout`` exits after that many
    seconds without new work, so an agent left behind by a finished
    campaign does not linger forever.  A ``root/stop`` file also ends
    the loop — the manager drops one when it shuts the farm down.
    """
    root = Path(root)
    jobs_dir = root / "jobs"
    results_dir = root / "results"
    jobs_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    served = 0
    last_work = time.monotonic()
    while True:
        if (root / "stop").exists():
            break
        job_files = sorted(
            p for p in jobs_dir.glob("*.json") if p.suffix == ".json"
        )
        progressed = False
        for job_file in job_files:
            result_file = results_dir / job_file.name
            if result_file.exists():
                continue
            try:
                job = json.loads(job_file.read_text("utf-8"))
            except (OSError, ValueError):
                continue  # half-written: the next poll sees the rename
            write_json_atomic(result_file, execute_job(job))
            served += 1
            progressed = True
            if max_jobs is not None and served >= max_jobs:
                return served
        now = time.monotonic()
        if progressed:
            last_work = now
        elif idle_timeout is not None and now - last_work > idle_timeout:
            break
        time.sleep(poll_interval)
    return served


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.farm.remote",
        description="farm worker endpoint: JSON job on stdin -> JSON result"
        " on stdout, or --serve for the job-dir protocol",
    )
    parser.add_argument("--serve", metavar="DIR", default=None,
                        help="serve the job-dir protocol rooted at DIR")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="with --serve: exit after N jobs")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="with --serve: exit after this many idle seconds")
    args = parser.parse_args(argv)
    if args.serve:
        serve_job_dir(args.serve, max_jobs=args.max_jobs,
                      idle_timeout=args.idle_timeout)
        return 0
    try:
        job = json.load(sys.stdin)
    except ValueError:
        json.dump({"ok": False, "error": "unreadable job document"},
                  sys.stdout)
        sys.stdout.write("\n")
        return 1
    json.dump(execute_job(job), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
