"""Length-prefixed JSON RPC over local sockets: router <-> worker link.

The sharded service (:mod:`repro.service.router`) keeps the HTTP
front-end in one process and runs the :class:`SessionManager` stack in a
pool of worker processes.  The hop between them is deliberately boring:
one Unix-domain socket per worker, each message a 4-byte big-endian
length prefix followed by a UTF-8 JSON document.  No pipelining, no
multiplexing — a connection carries one request at a time, and the
front-end holds a small pool of connections per worker so concurrent
HTTP handler threads do not serialise on a single socket.

Framing is symmetric (:func:`send_frame` / :func:`recv_frame`), so the
same two functions implement both ends.  A peer that disappears mid-frame
raises :class:`RpcConnectionClosed` — the router treats that as a dead
worker and re-routes; a frame that exceeds :data:`MAX_FRAME_BYTES`
raises :class:`RpcError` before any allocation, so one corrupt length
prefix cannot make a worker try to buffer gigabytes.

The server side (:class:`RpcServer`) is thread-per-connection, matching
the HTTP front-end's concurrency model: each router connection maps to
one worker thread, and the worker's :class:`SessionManager` provides the
actual per-session serialisation.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
from typing import Callable

from repro.service import wire

__all__ = [
    "MAX_FRAME_BYTES",
    "RpcConnectionClosed",
    "RpcError",
    "RpcClient",
    "RpcServer",
    "recv_frame",
    "send_frame",
]

#: Largest frame either side will send or accept.  Comfortably above the
#: HTTP layer's 16 MB body ceiling plus response payloads (a detail view
#: of a 100k-row dataset is ~10 MB of JSON), far below anything a length
#: prefix corrupted by a torn write could ask for.
MAX_FRAME_BYTES = 128 * 1024 * 1024

_LEN = struct.Struct("!I")


class RpcError(Exception):
    """Protocol violation: oversized frame, non-JSON payload, bad reply."""


class RpcConnectionClosed(RpcError):
    """The peer closed the connection (cleanly or mid-frame)."""


def send_frame(sock: socket.socket, obj) -> None:
    """Serialise ``obj`` as JSON and write one length-prefixed frame."""
    body = wire.dumps(obj)
    if len(body) > MAX_FRAME_BYTES:
        raise RpcError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise RpcConnectionClosed(
                f"connection closed with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one frame; raises :class:`RpcConnectionClosed` on EOF.

    EOF *between* frames (a clean shutdown) and EOF *inside* a frame
    both raise — callers that want to treat the former as a normal close
    can catch the exception at a message boundary.
    """
    try:
        header = _recv_exact(sock, _LEN.size)
    except RpcConnectionClosed:
        raise
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RpcError(
            f"incoming frame claims {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit; stream is corrupt"
        )
    body = _recv_exact(sock, length)
    try:
        return json.loads(body)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise RpcError(f"frame body is not JSON: {exc}") from exc


class RpcClient:
    """One connection to an :class:`RpcServer`; serialises its own calls.

    ``call`` is locked so a client instance can be shared, but the
    intended shape is a pool of clients per worker (see
    ``router._BaseWorker``): one outstanding request per connection.
    """

    def __init__(
        self,
        path: str,
        connect_timeout: float = 5.0,
        timeout: float | None = None,
    ) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(connect_timeout)
        try:
            self._sock.connect(path)
        except OSError as exc:
            self._sock.close()
            raise RpcConnectionClosed(
                f"cannot connect to worker socket {path}: {exc}"
            ) from exc
        self._sock.settimeout(timeout)

    def call(self, payload, timeout: float | None = None):
        """Send one request frame and block for the reply frame."""
        with self._lock:
            if timeout is not None:
                self._sock.settimeout(timeout)
            try:
                send_frame(self._sock, payload)
                return recv_frame(self._sock)
            except (OSError, RpcConnectionClosed) as exc:
                raise RpcConnectionClosed(
                    f"worker connection {self.path} failed: {exc}"
                ) from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class RpcServer:
    """Thread-per-connection frame server over a Unix-domain socket.

    Parameters
    ----------
    path:
        Socket path to bind (any stale file there is unlinked first).
    handler:
        ``handler(request) -> reply`` called for every frame; exceptions
        it raises are answered as ``{"ok": False, "error": ...}`` so a
        handler bug degrades to an error reply, not a dropped connection.
        The handler runs on the connection's thread.
    """

    def __init__(self, path: str, handler: Callable[[dict], dict]) -> None:
        self.path = path
        self.handler = handler
        self._closing = threading.Event()
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(64)
        self._accept_thread: threading.Thread | None = None

    def serve_background(self) -> "RpcServer":
        """Accept connections on a daemon thread; returns self."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever,
            name=f"repro-rpc-{os.path.basename(self.path)}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                break  # socket closed by close()
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-rpc-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._closing.is_set():
                try:
                    request = recv_frame(conn)
                except RpcConnectionClosed:
                    return  # peer hung up — the normal end of a connection
                except RpcError:
                    return  # corrupt stream: drop it, peer will reconnect
                try:
                    reply = self.handler(request)
                except Exception as exc:  # noqa: BLE001 — must answer
                    reply = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                try:
                    send_frame(conn, reply)
                except (OSError, RpcError):
                    return

    def close(self) -> None:
        """Stop accepting and release the socket file (idempotent)."""
        self._closing.set()
        try:
            self._sock.close()
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass
