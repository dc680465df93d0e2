"""Minimal asyncio HTTP/1.1 front-end for the campaign service.

Implemented directly on :func:`asyncio.start_server` — no
``http.server``, no third-party framework — because the API surface is
small and the one non-trivial transport concern (SSE streams with
per-client backpressure) needs direct control of the writer anyway.
Every response closes the connection (``Connection: close``), which
keeps the parser one-shot and is exactly what SSE clients expect at
end-of-stream.

Routes
------
``GET  /api/health``            liveness + queue summary
``GET  /api/scenarios``         the scenario library listing
``POST /api/jobs``              submit (``scenario`` name or raw ``spec``)
``GET  /api/jobs``              all jobs, submission order
``GET  /api/jobs/<id>``         one job (``?results=1`` embeds results)
``GET  /api/jobs/<id>/events``  SSE: status / progress / sample / done
``GET  /api/jobs/<id>/trace``   the job's Perfetto trace, built on the
                                first request (``?point=k``: one point's)
``POST /api/shutdown``          graceful drain + exit
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.jobs import _TERMINAL, JobManager
from repro.service.scenarios import describe_scenarios
from repro.service.sse import format_sse
from repro.util.errors import ConfigurationError

#: request line + headers are bounded; bodies via Content-Length only.
MAX_HEADER_BYTES = 32_768
MAX_BODY_BYTES = 8_000_000


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error",
}


def _response(status: int, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Any) -> bytes:
    return _response(status, json.dumps(payload, default=str).encode("utf-8"))


class CampaignServer:
    """The service process: one :class:`JobManager` behind an HTTP API."""

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 8321) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._shutdown_requested = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until ``POST /api/shutdown`` (or cancellation) drains us."""
        await self._shutdown_requested.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.shutdown(drain=True)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as err:
                writer.write(_json_response(
                    err.status, {"error": err.message}
                ))
                return
            try:
                await self._dispatch(method, path, body, writer)
            except _HttpError as err:
                writer.write(_json_response(
                    err.status, {"error": err.message}
                ))
            except ConfigurationError as err:
                writer.write(_json_response(400, {"error": str(err)}))
            except Exception as err:  # noqa: BLE001 - connection boundary
                writer.write(_json_response(
                    500, {"error": f"{type(err).__name__}: {err}"}
                ))
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "headers too large") from exc
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise _HttpError(400, "truncated request") from exc
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise _HttpError(400, "bad Content-Length") from exc
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _dispatch(self, method: str, target: str, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        path, _, query = target.partition("?")
        params = dict(
            pair.partition("=")[::2] for pair in query.split("&") if pair
        )
        if path == "/api/health" and method == "GET":
            writer.write(_json_response(200, self._health()))
        elif path == "/api/scenarios" and method == "GET":
            writer.write(_json_response(
                200, {"scenarios": describe_scenarios()}
            ))
        elif path == "/api/jobs" and method == "POST":
            self._submit(body, writer)
        elif path == "/api/jobs" and method == "GET":
            writer.write(_json_response(200, {
                "jobs": [j.to_dict() for j in self.manager.list_jobs()]
            }))
        elif path == "/api/shutdown" and method == "POST":
            writer.write(_json_response(200, {"draining": True}))
            self._shutdown_requested.set()
        elif path.startswith("/api/jobs/"):
            await self._job_route(method, path, params, writer)
        else:
            raise _HttpError(404, f"no route for {method} {path}")

    def _health(self) -> dict[str, Any]:
        jobs = self.manager.list_jobs()
        return {
            "ok": True,
            "jobs": len(jobs),
            "queued": sum(1 for j in jobs if j.state == "queued"),
            "running": self.manager.current.id
            if self.manager.current else None,
        }

    def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body or b"{}")
        except ValueError as exc:
            raise _HttpError(400, "body is not valid JSON") from exc
        priority = int(payload.get("priority", 0))
        if "scenario" in payload:
            job, created = self.manager.submit_scenario(
                payload["scenario"], priority=priority,
                scale=payload.get("scale", "smoke"),
                seed=payload.get("seed"),
                warmup=payload.get("warmup"),
                measure=payload.get("measure"),
            )
        elif "spec" in payload:
            from repro.farm.plan import CampaignSpec

            job, created = self.manager.submit(
                CampaignSpec.from_dict(payload["spec"]), priority=priority
            )
        else:
            raise _HttpError(400, "submit needs 'scenario' or 'spec'")
        writer.write(_json_response(
            201 if created else 200,
            {"job": job.to_dict(), "created": created},
        ))

    async def _job_route(self, method: str, path: str,
                         params: dict[str, str],
                         writer: asyncio.StreamWriter) -> None:
        rest = path[len("/api/jobs/"):]
        jid, _, action = rest.partition("/")
        job = self.manager.jobs.get(jid)
        if job is None:
            raise _HttpError(404, f"unknown job {jid!r}")
        if method != "GET":
            raise _HttpError(405, f"{method} not allowed here")
        if not action:
            writer.write(_json_response(
                200, job.to_dict(with_results=params.get("results") == "1")
            ))
        elif action == "events":
            await self._stream_events(jid, writer)
        elif action == "trace":
            await self._send_trace(job, params.get("point"), writer)
        else:
            raise _HttpError(404, f"unknown job action {action!r}")

    async def _send_trace(self, job, point: str | None,
                          writer: asyncio.StreamWriter) -> None:
        if job.state not in _TERMINAL:
            raise _HttpError(409, f"job {job.id} is {job.state}; its trace"
                             " is built from the finished job")
        if point is not None and not point.isdigit():
            raise _HttpError(400, f"point must be an index, not {point!r}")
        writer.write(_response(200, await self.manager.trace(
            job, None if point is None else int(point)
        )))

    async def _stream_events(self, jid: str,
                             writer: asyncio.StreamWriter) -> None:
        """SSE stream for one job; replays history, then live events.

        ``writer.drain()`` honours the client's TCP receive window, so a
        slow consumer backs pressure into its *own* bounded subscription
        queue (drop-oldest + ``dropped`` gap marker, see
        :mod:`repro.service.sse`) and never stalls the job manager.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        sub = self.manager.broker.subscribe(jid)
        job = self.manager.jobs.get(jid)
        if job is not None and job.state in _TERMINAL:
            # Finished job: replay the recorded history, then end the
            # stream instead of waiting for events that will never come.
            sub.closed = True
        try:
            async for event_id, event, data in sub:
                writer.write(format_sse(
                    event, data, event_id if event_id >= 0 else None
                ))
                await writer.drain()
        except StopAsyncIteration:
            pass
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            sub.close()


async def run_service(
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    cache_dir: str = ".repro_cache",
    jobs_dir: str = "service_jobs",
    workers: int = 1,
    farm_hosts: str | None = None,
    sample_every: int = 200,
    announce=None,
) -> None:
    """Build, start and run a campaign service until shutdown."""
    manager = JobManager(
        cache_dir=cache_dir, jobs_dir=jobs_dir, workers=workers,
        farm_hosts=farm_hosts, sample_every=sample_every,
    )
    server = CampaignServer(manager, host=host, port=port)
    await server.start()
    if announce is not None:
        announce(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        await server.stop()
        raise
