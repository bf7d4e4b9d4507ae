"""Stdlib HTTP front end for the experiment service.

Routes (all JSON; the event stream is newline-delimited JSON):

* ``POST /batches`` — submit a batch; body ``{"specs": [...], "config":
  {...}, "tenant": "...", "priority": N}``.  201 with the job's status
  view; 400 on a bad payload.
* ``GET /batches`` — summaries of every known job.
* ``GET /batches/<id>`` — one job's full status (specs, per-spec
  outcomes, results, ``BatchStats``).
* ``DELETE /batches/<id>`` — cancel a queued job.
* ``GET /batches/<id>/events`` — NDJSON event stream
  (``events.schema.json``).  ``?after=N`` resumes past sequence number
  ``N``; ``?follow=1`` keeps the connection open, streaming live events
  until the job's bus closes (default is a snapshot of what is buffered).
* ``GET /healthz`` — liveness + queue counts.

Built on :mod:`http.server` (``ThreadingHTTPServer``) — the container has
no web framework and does not need one.  Errors of the
:class:`~repro.errors.ServiceError` family map to their ``http_status``;
everything else is a 500.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Type
from urllib.parse import parse_qs, urlparse

from ..errors import InvalidJobRequest, ServiceError
from .core import ExperimentService
from .wire import JSONDict

__all__ = ["make_server", "serve"]

#: Poll interval for ``?follow=1`` streams (bounds shutdown latency).
_FOLLOW_WAIT_S = 0.5


class _Handler(BaseHTTPRequestHandler):
    """One request.  ``server.service`` is bound by :func:`make_server`."""

    protocol_version = "HTTP/1.1"
    #: Bound by the _Server subclass; declared for the type checker.
    service: ExperimentService

    # --- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; the service has its own event stream

    def _send_json(self, status: int, payload: JSONDict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ServiceError) -> None:
        self._send_json(
            exc.http_status, {"error": str(exc), "type": type(exc).__name__}
        )

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise InvalidJobRequest("empty request body (expected JSON)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidJobRequest(f"request body is not JSON: {exc}") from exc

    # --- routing ----------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        service = self.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            if method == "GET" and parts == ["healthz"]:
                self._send_json(
                    200,
                    {
                        "ok": True,
                        "scheduler": service.scheduler.running,
                        "jobs": service.store.counts(),
                    },
                )
            elif method == "POST" and parts == ["batches"]:
                self._send_json(201, service.submit(self._read_body()))
            elif method == "GET" and parts == ["batches"]:
                self._send_json(200, {"batches": service.list_jobs()})
            elif method == "GET" and len(parts) == 2 and parts[0] == "batches":
                self._send_json(200, service.status(parts[1]))
            elif method == "DELETE" and len(parts) == 2 and parts[0] == "batches":
                self._send_json(200, service.cancel(parts[1]))
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "batches"
                and parts[2] == "events"
            ):
                self._stream_events(parts[1], query)
            else:
                self._send_json(
                    404, {"error": f"no route for {method} {url.path}"}
                )
        except ServiceError as exc:
            self._send_error(exc)
        except BrokenPipeError:
            pass  # client hung up mid-stream
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _stream_events(self, job_id: str, query: Dict[str, List[str]]) -> None:
        service = self.service
        bus = service.events_bus(job_id)  # raises UnknownJob -> 404
        try:
            after = int(query.get("after", ["0"])[0])
        except ValueError as exc:
            raise InvalidJobRequest(f"bad 'after' value: {exc}") from exc
        follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Chunked would be the HTTP/1.1-correct answer; closing the
        # connection at end-of-stream is simpler and every client here
        # (urllib, curl, the tests) handles it.
        self.send_header("Connection", "close")
        self.end_headers()
        seq = after
        while True:
            if follow:
                events, closed = bus.wait_since(seq, timeout=_FOLLOW_WAIT_S)
            else:
                events, closed = bus.events_since(seq), bus.closed
            for event in events:
                line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
                seq = max(seq, event.seq)
            self.wfile.flush()
            if closed and not bus.events_since(seq):
                return
            if not follow:
                return

    # --- HTTP verbs -------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        handler: Type[BaseHTTPRequestHandler],
        service: ExperimentService,
    ) -> None:
        super().__init__(address, handler)
        self.service = service


def make_server(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` (0 = ephemeral), not yet
    serving.  Call ``serve_forever()`` (typically on a thread) and
    ``shutdown()`` yourself; tests read the bound port from
    ``server.server_address``."""

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = service
    return _Server((host, port), BoundHandler, service)


def serve(
    service: ExperimentService,
    host: str = "127.0.0.1",
    port: int = 8765,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run the service until interrupted: resume -> schedule -> serve.

    This is what ``repro serve`` calls.  ``ready`` (if given) is set once
    the socket is bound — the e2e tests use it to avoid polling.
    """
    server = make_server(service, host, port)
    service.resume()
    service.start()
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
