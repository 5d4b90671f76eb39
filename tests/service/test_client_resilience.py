"""Client resilience: non-JSON bodies, dying servers, connection retries."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.resilience import BreakerOpen, CircuitBreaker
from repro.service.client import ServiceClient, ServiceClientError


class _MisbehavingHandler(BaseHTTPRequestHandler):
    """Answers per-path with the failure modes a dying server produces."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 — http.server naming
        if self.path.endswith("/stall-mid-body"):
            # Headers and half the body arrive, then the socket goes
            # quiet for longer than any sane client timeout.
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"partial": ')
            self.wfile.flush()
            time.sleep(5.0)
        elif self.path.endswith("/reset-after-headers"):
            # Headers only, then an abrupt close: the client has a 200
            # status line but no body will ever come.
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "50")
            self.end_headers()
            self.wfile.flush()
            self.connection.close()
        elif self.path.endswith("/truncated-chunked"):
            # Chunked transfer that dies mid-chunk: the promised chunk
            # size never materialises and no terminating 0-chunk is sent.
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            self.wfile.write(b"40\r\n")  # promises 64 bytes
            self.wfile.write(b'{"partial": true')
            self.wfile.flush()
            self.connection.close()
        elif self.path.endswith("/html-error"):
            body = b"<html>504 Gateway Timeout</html>"
            self.send_response(504)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.endswith("/garbage"):
            body = b"this is not json"
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif "/not-utf8" in self.path:
            # Bytes no UTF-8 decoder accepts, as a success or an error.
            body = b"\x80abc"
            self.send_response(502 if self.path.endswith("-error") else 200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.endswith("/truncated"):
            # Promise more bytes than are sent, then drop the connection.
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b'{"partial":')
            self.wfile.flush()
            self.connection.close()
        else:
            body = json.dumps({"status": "ok"}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    # POSTs hit the same failure modes (for retry-safety tests).
    do_POST = do_GET  # noqa: N815 — http.server naming

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture
def misbehaving_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _MisbehavingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


class TestNonJsonBodies:
    def test_html_error_body_becomes_client_error(self, misbehaving_server):
        client = ServiceClient(misbehaving_server)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/html-error")
        assert excinfo.value.status == 504

    def test_non_json_success_body_becomes_client_error(
        self, misbehaving_server
    ):
        client = ServiceClient(misbehaving_server)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/garbage")
        assert excinfo.value.status == 200
        assert "invalid JSON" in str(excinfo.value)

    def test_non_utf8_bodies_become_client_errors(self, misbehaving_server):
        client = ServiceClient(misbehaving_server, max_retries=0)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/not-utf8")
        assert excinfo.value.status == 200
        assert "invalid JSON" in str(excinfo.value)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/not-utf8-error")
        assert excinfo.value.status == 502

    def test_truncated_body_becomes_client_error(self, misbehaving_server):
        client = ServiceClient(misbehaving_server)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/truncated")
        # Either surfaced as a mid-request connection failure (status 0)
        # or as invalid JSON, never as a raw json/http exception.
        assert excinfo.value.status in (0, 200)

    def test_ok_path_still_works(self, misbehaving_server):
        client = ServiceClient(misbehaving_server)
        assert client._request("GET", "/ok") == {"status": "ok"}


class TestTransportEdgeCases:
    """The three ways a socket dies mid-response, all surfaced uniformly."""

    def _client(self, base_url, **kwargs):
        kwargs.setdefault("timeout", 0.5)
        kwargs.setdefault("retry_delay", 0.0)
        kwargs.setdefault("breaker", False)
        return ServiceClient(base_url, **kwargs)

    def test_socket_timeout_mid_body(self, misbehaving_server):
        client = self._client(misbehaving_server, max_retries=0)
        start = time.monotonic()
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/stall-mid-body")
        # Bounded by the client timeout, not the server's 5 s stall.
        assert time.monotonic() - start < 4.0
        assert excinfo.value.status == 0
        assert not excinfo.value.connection_refused

    def test_connection_reset_after_headers(self, misbehaving_server):
        client = self._client(misbehaving_server, max_retries=0)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/reset-after-headers")
        assert excinfo.value.status in (0, 200)

    def test_truncated_chunked_response(self, misbehaving_server):
        client = self._client(misbehaving_server, max_retries=0)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/truncated-chunked")
        assert excinfo.value.status in (0, 200)

    def test_mid_body_failures_are_retried_for_idempotent_reads(
        self, misbehaving_server
    ):
        # GET is safe to resend: the ambiguous mid-response failure is
        # retried up to max_retries before surfacing.
        client = self._client(misbehaving_server, max_retries=2)
        with pytest.raises(ServiceClientError):
            client._request("GET", "/reset-after-headers")
        assert client.last_attempts == 3
        assert client.counters["retries"] == 2

    def test_mid_body_failures_are_not_retried_for_bare_posts(
        self, misbehaving_server
    ):
        # A POST without an idempotency key might have been applied:
        # resending could double-apply, so the client must not.
        client = self._client(misbehaving_server, max_retries=2)
        with pytest.raises(ServiceClientError):
            client._request("POST", "/reset-after-headers", {})
        assert client.last_attempts == 1
        assert client.counters["retries"] == 0


class TestConnectionRetry:
    def test_refused_connection_is_retried(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=3, retry_delay=0.0
        )
        calls = []

        def flaky(method, path, body=None, *, decode_json=True):
            calls.append(1)
            if len(calls) < 3:
                raise ServiceClientError(
                    0, {"error": "refused"}, connection_refused=True
                )
            return {"status": "ok"}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client._request("GET", "/health") == {"status": "ok"}
        assert len(calls) == 3

    def test_retries_are_bounded(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=2, retry_delay=0.0
        )
        calls = []

        def always_refused(method, path, body=None, *, decode_json=True):
            calls.append(1)
            raise ServiceClientError(
                0, {"error": "refused"}, connection_refused=True
            )

        monkeypatch.setattr(client, "_request_once", always_refused)
        with pytest.raises(ServiceClientError):
            client._request("GET", "/health")
        assert len(calls) == 3  # initial + 2 retries

    def test_answered_errors_are_never_retried(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=5, retry_delay=0.0
        )
        calls = []

        def not_found(method, path, body=None, *, decode_json=True):
            calls.append(1)
            raise ServiceClientError(404, {"error": "no route"})

        monkeypatch.setattr(client, "_request_once", not_found)
        with pytest.raises(ServiceClientError):
            client._request("GET", "/missing")
        assert len(calls) == 1

    def test_real_refused_connection_sets_flag(self):
        # Port 1 is never listening; no retries so the test is instant.
        client = ServiceClient("http://127.0.0.1:1", connect_retries=0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert excinfo.value.connection_refused

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient("http://x", connect_retries=-1)

    def test_503_with_retry_after_is_retried(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", max_retries=2, retry_delay=0.0,
            breaker=False,
        )
        calls = []

        def overloaded_then_ok(method, path, body=None, *, decode_json=True):
            calls.append(1)
            if len(calls) < 3:
                raise ServiceClientError(
                    503,
                    {"error": "shed", "kind": "overloaded",
                     "retry_after": 0.0},
                )
            return {"status": "ok"}

        monkeypatch.setattr(client, "_request_once", overloaded_then_ok)
        assert client._request("POST", "/sessions", {}) == {"status": "ok"}
        assert len(calls) == 3
        assert client.counters["shed"] == 2
        assert client.counters["retries"] == 2
        assert client.last_attempts == 3

    def test_last_attempts_is_one_on_clean_success(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1", breaker=False)
        monkeypatch.setattr(
            client,
            "_request_once",
            lambda method, path, body=None, *, decode_json=True: {"ok": 1},
        )
        client._request("GET", "/health")
        assert client.last_attempts == 1
        assert client.counters["retries"] == 0


class TestClientCircuitBreaker:
    def _failing_client(self, breaker, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=0, max_retries=0,
            retry_delay=0.0, breaker=breaker,
        )

        def server_error(method, path, body=None, *, decode_json=True):
            raise ServiceClientError(500, {"error": "boom"})

        monkeypatch.setattr(client, "_request_once", server_error)
        return client

    def test_breaker_opens_after_consecutive_failures(self, monkeypatch):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "http://127.0.0.1:1", failure_threshold=3, cooldown=10.0,
            clock=lambda: clock["now"],
        )
        client = self._failing_client(breaker, monkeypatch)
        for _ in range(3):
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("GET", "/health")
            assert not excinfo.value.breaker_open
        # The breaker is now open: requests fail fast without touching
        # the network, with a retry_after pointing at the cooldown.
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/health")
        assert excinfo.value.breaker_open
        assert excinfo.value.retry_after is not None
        assert client.counters["breaker_open"] == 1
        assert breaker.state == "open"

    def test_half_open_probe_closes_breaker_on_recovery(self, monkeypatch):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "http://127.0.0.1:1", failure_threshold=1, cooldown=10.0,
            clock=lambda: clock["now"],
        )
        client = self._failing_client(breaker, monkeypatch)
        with pytest.raises(ServiceClientError):
            client._request("GET", "/health")
        assert breaker.state == "open"

        # Cooldown elapses; the server is healthy again.
        clock["now"] += 10.0
        monkeypatch.setattr(
            client,
            "_request_once",
            lambda method, path, body=None, *, decode_json=True: {"ok": 1},
        )
        assert client._request("GET", "/health") == {"ok": 1}
        assert breaker.state == "closed"

    def test_answered_4xx_does_not_trip_the_breaker(self, monkeypatch):
        breaker = CircuitBreaker("http://127.0.0.1:1", failure_threshold=2)
        client = ServiceClient(
            "http://127.0.0.1:1", max_retries=0, breaker=breaker
        )

        def not_found(method, path, body=None, *, decode_json=True):
            raise ServiceClientError(404, {"error": "no route"})

        monkeypatch.setattr(client, "_request_once", not_found)
        for _ in range(5):
            with pytest.raises(ServiceClientError):
                client._request("GET", "/missing")
        # The server answered every time: that is health, not failure.
        assert breaker.state == "closed"

    def test_breaker_disabled_with_false(self, monkeypatch):
        client = self._failing_client(False, monkeypatch)
        assert client.breaker is None
        for _ in range(10):
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("GET", "/health")
            assert not excinfo.value.breaker_open


class TestServerStopHang:
    def test_stop_raises_when_serve_thread_refuses_to_die(self):
        import numpy as np

        from repro.service.manager import SessionManager
        from repro.service.server import start_background

        server = start_background(
            SessionManager({"wl": np.zeros((10, 3))})
        )
        release = threading.Event()
        stuck = threading.Thread(
            target=release.wait, name="stuck-handler", daemon=True
        )
        stuck.start()
        # Simulate a hung serve thread: stop() must say so loudly
        # instead of silently pretending the server went away.
        real_thread, server._thread = server._thread, stuck
        try:
            with pytest.raises(RuntimeError, match="still alive"):
                server.stop(join_timeout=0.1)
            assert server._thread is stuck  # kept so stop() can retry
        finally:
            release.set()
        # Once the thread settles, a retried stop() succeeds.
        server.stop(join_timeout=5.0)
        assert server._thread is None
        real_thread.join(timeout=5.0)
