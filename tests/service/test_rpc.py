"""Tests for the length-prefixed socket RPC linking router and workers."""

import socket
import struct
import threading

import pytest

from repro.service.rpc import (
    MAX_FRAME_BYTES,
    RpcClient,
    RpcConnectionClosed,
    RpcError,
    RpcServer,
    recv_frame,
    send_frame,
)


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "rpc.sock")


def _echo_server(socket_path):
    return RpcServer(socket_path, lambda req: {"echo": req}).serve_background()


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        payload = {"op": "x", "nested": {"rows": [1, 2, 3]}, "f": 1.5}
        send_frame(a, payload)
        assert recv_frame(b) == payload
        a.close()
        b.close()

    def test_multiple_frames_in_order(self):
        a, b = socket.socketpair()
        for i in range(5):
            send_frame(a, {"i": i})
        for i in range(5):
            assert recv_frame(b) == {"i": i}
        a.close()
        b.close()

    def test_eof_raises_connection_closed(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(RpcConnectionClosed):
            recv_frame(b)
        b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("!I", 100) + b'{"partial"')
        a.close()
        with pytest.raises(RpcConnectionClosed):
            recv_frame(b)
        b.close()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(RpcError, match="over the"):
            recv_frame(b)
        a.close()
        b.close()

    def test_non_json_body_rejected(self):
        a, b = socket.socketpair()
        body = b"not json at all"
        a.sendall(struct.pack("!I", len(body)) + body)
        with pytest.raises(RpcError, match="not JSON"):
            recv_frame(b)
        a.close()
        b.close()

    def test_non_utf8_body_raises_rpc_error(self):
        a, b = socket.socketpair()
        body = b"\x80abc"
        a.sendall(struct.pack("!I", len(body)) + body)
        with pytest.raises(RpcError, match="not JSON"):
            recv_frame(b)
        a.close()
        b.close()


class TestClientServer:
    def test_call_round_trip(self, socket_path):
        server = _echo_server(socket_path)
        try:
            client = RpcClient(socket_path)
            assert client.call({"op": "ping"}) == {"echo": {"op": "ping"}}
            client.close()
        finally:
            server.close()

    def test_handler_exception_becomes_error_reply(self, socket_path):
        def explode(request):
            raise ValueError("boom")

        server = RpcServer(socket_path, explode).serve_background()
        try:
            client = RpcClient(socket_path)
            reply = client.call({"op": "x"})
            assert reply["ok"] is False
            assert "ValueError" in reply["error"]
            # The connection survives a handler error.
            assert client.call({"op": "y"})["ok"] is False
            client.close()
        finally:
            server.close()

    def test_connect_to_missing_socket_raises(self, tmp_path):
        with pytest.raises(RpcConnectionClosed):
            RpcClient(str(tmp_path / "nope.sock"))

    def test_server_close_unlinks_socket(self, socket_path, tmp_path):
        server = _echo_server(socket_path)
        server.close()
        assert not (tmp_path / "rpc.sock").exists()

    def test_stale_socket_file_is_replaced(self, socket_path):
        first = _echo_server(socket_path)
        first.close()
        second = _echo_server(socket_path)
        try:
            client = RpcClient(socket_path)
            assert client.call({"n": 1}) == {"echo": {"n": 1}}
            client.close()
        finally:
            second.close()

    def test_concurrent_clients(self, socket_path):
        server = _echo_server(socket_path)
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def drive(i: int) -> None:
            try:
                client = RpcClient(socket_path)
                for n in range(20):
                    reply = client.call({"client": i, "n": n})
                    assert reply == {"echo": {"client": i, "n": n}}
                results[i] = reply
                client.close()
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=drive, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors, errors
            assert len(results) == 8
        finally:
            server.close()

    def test_peer_death_raises_on_call(self, socket_path):
        server = _echo_server(socket_path)
        client = RpcClient(socket_path)
        assert client.call({"n": 0})["echo"] == {"n": 0}
        server.close()
        # A frame already in flight when close() lands may still be
        # answered before the connection thread notices the flag, so the
        # guaranteed failure is the *next* call after the drain.
        try:
            client.call({"n": 1}, timeout=10)
            first_failed = False
        except RpcConnectionClosed:
            first_failed = True
        if not first_failed:
            with pytest.raises(RpcConnectionClosed):
                client.call({"n": 2}, timeout=10)
        client.close()

    def test_server_drops_a_non_utf8_frame_quietly(
        self, socket_path, monkeypatch
    ):
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        server = _echo_server(socket_path)
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(socket_path)
            raw.sendall(struct.pack("!I", 4) + b"\x80abc")
            raw.settimeout(10)
            assert raw.recv(1) == b""  # the corrupt stream is dropped
            raw.close()
            # ...without a thread traceback, and the server keeps serving.
            client = RpcClient(socket_path)
            assert client.call({"op": "ping"}) == {"echo": {"op": "ping"}}
            client.close()
        finally:
            server.close()
        assert crashed == []

    def test_worker_call_closes_a_connection_that_replied_garbage(
        self, socket_path
    ):
        from repro.service.router import WorkerDiedError, _BaseWorker

        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(socket_path)
        listener.listen(1)

        def reply_non_utf8():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                conn.sendall(struct.pack("!I", 4) + b"\x80abc")
                conn.recv(1)  # hold the socket open until the peer closes

        peer = threading.Thread(target=reply_non_utf8, daemon=True)
        peer.start()
        worker = _BaseWorker(0, socket_path)
        try:
            with pytest.raises(WorkerDiedError, match="not JSON"):
                worker.call({"op": "ping"}, timeout=10)
            assert worker.failures == 1
            assert worker._clients == []  # not returned to the pool...
            peer.join(timeout=10)
            assert not peer.is_alive()  # ...and closed, so the peer saw EOF
        finally:
            listener.close()
