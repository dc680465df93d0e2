"""Blocking stdlib client for the campaign service API.

Built on :mod:`http.client` so the CLI (``repro submit`` / ``repro
jobs``), experiments and tests all talk to the service without any new
dependency.  SSE streams are decoded with the same
:func:`~repro.service.sse.parse_sse` the server-side tests use.
"""

from __future__ import annotations

import http.client
import json
from collections.abc import Iterator
from typing import Any

from repro.service.sse import parse_sse
from repro.util.errors import SimulationError


class ServiceError(SimulationError):
    """The service answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"service returned {status}: {message}")
        self.status = status


class ServiceClient:
    """One campaign service endpoint, addressed as host:port."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Plain JSON endpoints
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Any | None = None) -> Any:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            decoded = json.loads(data) if data else {}
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    decoded.get("error", data.decode("utf-8", "replace")),
                )
            return decoded
        finally:
            conn.close()

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/api/health")

    def scenarios(self) -> list[dict[str, Any]]:
        return self._request("GET", "/api/scenarios")["scenarios"]

    def submit(self, scenario: str | None = None, *,
               spec: dict[str, Any] | None = None, priority: int = 0,
               scale: str = "smoke", seed: int | None = None,
               warmup: int | None = None,
               measure: int | None = None) -> dict[str, Any]:
        """Submit a scenario by name (or a raw campaign spec dict).

        Returns ``{"job": {...}, "created": bool}`` — ``created`` False
        means the deterministic job id matched an existing submission.
        """
        payload: dict[str, Any] = {"priority": priority}
        if scenario is not None:
            payload.update(scenario=scenario, scale=scale)
            if seed is not None:
                payload["seed"] = seed
            if warmup is not None:
                payload["warmup"] = warmup
            if measure is not None:
                payload["measure"] = measure
        elif spec is not None:
            payload["spec"] = spec
        else:
            raise ValueError("submit needs a scenario name or a spec")
        return self._request("POST", "/api/jobs", payload)

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/api/jobs")["jobs"]

    def job(self, job_id: str, results: bool = False) -> dict[str, Any]:
        suffix = "?results=1" if results else ""
        return self._request("GET", f"/api/jobs/{job_id}{suffix}")

    def trace(self, job_id: str,
              point: int | None = None) -> dict[str, Any]:
        """The finished job's Perfetto trace, or one point's (parsed
        JSON).  The service builds it on the first request."""
        suffix = "" if point is None else f"?point={point}"
        return self._request("GET", f"/api/jobs/{job_id}/trace{suffix}")

    def shutdown(self) -> dict[str, Any]:
        return self._request("POST", "/api/shutdown")

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def stream_events(self, job_id: str,
                      timeout: float | None = None) -> Iterator[tuple]:
        """Yield ``(event, data, id)`` from the job's SSE stream.

        ``data`` arrives JSON-decoded.  The stream ends when the service
        closes it (job reached a terminal state and its history was
        delivered).
        """
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            conn.request("GET", f"/api/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                data = response.read()
                try:
                    message = json.loads(data).get("error", "")
                except ValueError:
                    message = data.decode("utf-8", "replace")
                raise ServiceError(response.status, message)
            for event, data, event_id in parse_sse(iter(response.readline,
                                                        b"")):
                try:
                    decoded = json.loads(data)
                except ValueError:
                    decoded = data
                yield event, decoded, event_id
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 600.0) -> dict[str, Any]:
        """Follow the job's stream until it finishes; final job dict."""
        final: dict[str, Any] | None = None
        for event, data, _ in self.stream_events(job_id, timeout=timeout):
            if event == "done":
                final = data
            elif event == "status" and isinstance(data, dict) and (
                data.get("state") in ("done", "failed", "cancelled")
            ):
                final = data
        if final is None:
            raise ServiceError(504, f"stream for {job_id} ended mid-run")
        return final
