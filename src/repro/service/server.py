"""Stdlib HTTP front-end for the session service.

A :class:`ReproServer` is a ``ThreadingHTTPServer`` whose handler decodes
JSON requests and delegates to a :class:`~repro.service.api.ServiceAPI`.
One thread per connection matches the manager's concurrency model: the
manager serialises per session and parallelises across sessions.

For embedding (tests, notebooks, benchmarks) use :func:`start_background`,
which binds an ephemeral port and serves from a daemon thread::

    server = start_background(manager)
    client = ServiceClient(server.base_url)
    ...
    server.stop()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.resilience import chaos
from repro.service import wire
from repro.service.api import (
    DEADLINE_HEADER,
    IDEMPOTENCY_HEADER,
    ServiceAPI,
)
from repro.service.manager import SessionManager

#: Default request-body ceiling.  Large enough for any realistic feedback
#: batch (a 100k-row cluster marking is ~1 MB of JSON), small enough that
#: one bad client cannot make a handler thread buffer gigabytes.
DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024


class _RequestHandler(BaseHTTPRequestHandler):
    """Decode one JSON request, dispatch it, encode the JSON response."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    #: Trace id of the request currently being handled (echoed back in the
    #: response headers); None while observability/tracing is off.
    _trace_id: str | None = None

    def _handle(self, method: str) -> None:
        state = obs.active()
        started = time.perf_counter()
        self._trace_id = (
            obs.accept_trace_id(self.headers.get(obs.TRACE_HEADER))
            if state is not None and state.tracing
            else None
        )
        parsed = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        body = None
        length_raw = (self.headers.get("Content-Length") or "0").strip()
        if not (length_raw.isascii() and length_raw.isdigit()):
            # The body's extent is unknown, so the stream cannot be
            # resynchronised: answer and close the connection.
            self.close_connection = True
            self._reject(
                state,
                started,
                method,
                parsed.path,
                400,
                f"invalid Content-Length header: {length_raw!r}",
                "bad_request",
            )
            return
        length = int(length_raw)
        max_bytes = self.server.max_body_bytes  # type: ignore[attr-defined]
        if max_bytes is not None and length > max_bytes:
            # Reject without reading; the unread body would poison the
            # keep-alive stream, so this connection closes after the reply.
            self.close_connection = True
            self._reject(
                state,
                started,
                method,
                parsed.path,
                413,
                f"request body of {length} bytes exceeds "
                f"the {max_bytes}-byte limit",
                "oversized_body",
            )
            return
        if length:
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                self._reject(
                    state,
                    started,
                    method,
                    parsed.path,
                    400,
                    f"request body is not JSON: {exc}",
                    "malformed_body",
                )
                return
            if not isinstance(body, dict):
                self._reject(
                    state,
                    started,
                    method,
                    parsed.path,
                    400,
                    "request body must be a JSON object",
                    "malformed_body",
                )
                return
        deadline_ms: float | None = None
        deadline_raw = self.headers.get(DEADLINE_HEADER)
        if deadline_raw is not None:
            try:
                deadline_ms = float(deadline_raw)
            except ValueError:
                self._reject(
                    state,
                    started,
                    method,
                    parsed.path,
                    400,
                    f"invalid {DEADLINE_HEADER} header: {deadline_raw!r}",
                    "bad_request",
                )
                return
        status, payload = self.server.api.dispatch(  # type: ignore[attr-defined]
            method, parsed.path, body=body, query=query,
            trace_id=self._trace_id,
            deadline_ms=deadline_ms,
            idempotency_key=self.headers.get(IDEMPOTENCY_HEADER),
        )
        self._respond(status, payload)

    def _reject(
        self,
        state,
        started: float,
        method: str,
        path: str,
        status: int,
        message: str,
        kind: str,
    ) -> None:
        """Refuse a request before dispatch; still emits the typed error
        event (these rejections never reach the API layer's envelope).

        The event is recorded before the response goes out, so a client
        that has seen the error can rely on the event being in the log.
        """
        if state is not None:
            state.observe_request(
                method,
                path,
                status,
                time.perf_counter() - started,
                trace_id=self._trace_id,
                error=message,
                error_kind=kind,
            )
        self._respond(status, {"error": message})

    def _respond(self, status: int, payload) -> None:
        content_type = getattr(payload, "content_type", None)
        if content_type is not None:  # TextResponse (Prometheus metrics)
            encoded = str(payload).encode()
        else:
            content_type = "application/json"
            encoded = wire.dumps(payload)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        if isinstance(payload, dict) and "retry_after" in payload:
            # Shed responses (503 overloaded / draining) name a comeback
            # time; well-behaved clients back off at least this long.
            self.send_header("Retry-After", f"{payload['retry_after']:g}")
        if self._trace_id is not None:
            self.send_header(obs.TRACE_HEADER, self._trace_id)
        self.end_headers()
        torn = chaos.hit("server.respond")
        if torn is not None and torn.kind == "torn" and len(encoded) > 1:
            # Injected torn response: write a prefix of the body and slam
            # the connection — the client sees headers but a short read.
            self.wfile.write(encoded[: len(encoded) // 2])
            self.wfile.flush()
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
            return
        self.wfile.write(encoded)

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    # PUT/PATCH have no routes; handling them lets the API layer answer a
    # proper 405 (with the allowed methods) instead of the socket-level 501.
    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def do_PATCH(self) -> None:  # noqa: N802
        self._handle("PATCH")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(format, *args)


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServiceAPI`.

    Parameters
    ----------
    api:
        The front door: a :class:`ServiceAPI` or its sharded subclass
        :class:`~repro.service.router.Router` (or pass a
        :class:`SessionManager` and one is wrapped for you).
    host, port:
        Bind address; ``port=0`` picks a free ephemeral port.
    quiet:
        Suppress per-request access logging (default True; the CLI turns
        logging on).
    max_body_bytes:
        Largest request body accepted; anything longer answers ``413``
        without reading the body.  ``None`` disables the limit.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        api: ServiceAPI | SessionManager,
        host: str = "127.0.0.1",
        port: int = 8000,
        quiet: bool = True,
        max_body_bytes: int | None = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if isinstance(api, SessionManager):
            api = ServiceAPI(api)
        if not isinstance(api, ServiceAPI):  # the sharded Router is one
            raise TypeError(
                "api must be a SessionManager or a ServiceAPI; "
                f"got {type(api).__name__}"
            )
        self.api = api
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _RequestHandler)

    @property
    def base_url(self) -> str:
        """http:// URL clients should talk to."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> "ReproServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server is already running")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop serving and release the socket (idempotent).

        Raises :class:`RuntimeError` if the serve thread is still alive
        after ``join_timeout`` seconds — a hung handler is a bug worth
        hearing about, not a silent return that pretends the server
        stopped.  A structured ``shutdown_hang`` event is emitted first
        (when observability is on) and the thread reference is kept so a
        later ``stop()`` can retry the join.
        """
        self.shutdown()
        self.server_close()
        thread = self._thread
        if thread is None:
            return
        thread.join(timeout=join_timeout)
        if thread.is_alive():
            state = obs.active()
            if state is not None and state.events is not None:
                state.events.emit(
                    {
                        "event": "shutdown_hang",
                        "thread": thread.name,
                        "join_timeout_seconds": float(join_timeout),
                    }
                )
            raise RuntimeError(
                f"server thread {thread.name!r} still alive "
                f"{join_timeout:g}s after shutdown; a handler is hung"
            )
        self._thread = None


def start_background(
    api: ServiceAPI | SessionManager, host: str = "127.0.0.1", port: int = 0
) -> ReproServer:
    """Bind an ephemeral port and serve in a daemon thread."""
    return ReproServer(api, host=host, port=port).start_background()


def serve(
    api: ServiceAPI | SessionManager | ReproServer,
    host: str = "127.0.0.1",
    port: int = 8000,
    quiet: bool = False,
    on_shutdown: Callable[[], None] | None = None,
) -> None:
    """Serve on the calling thread until interrupted (the CLI entry path).

    Accepts a pre-built :class:`ReproServer` (so callers can announce the
    bound address first) or anything its constructor takes.  An optional
    ``on_shutdown`` hook runs after the serve loop ends, before the socket
    closes — the place to checkpoint sessions.
    """
    if isinstance(api, ReproServer):
        server = api
    else:
        server = ReproServer(api, host=host, port=port, quiet=quiet)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if on_shutdown is not None:
            on_shutdown()
        server.server_close()
