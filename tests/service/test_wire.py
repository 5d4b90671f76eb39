"""The wire encoder: orjson where it keeps the meaning, the stdlib elsewhere."""

from __future__ import annotations

import json
import math
import socket
import types
import urllib.request

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.feedback import ClusterFeedback
from repro.service import wire
from repro.service.manager import SessionManager
from repro.service.rpc import recv_frame, send_frame
from repro.service.server import start_background


def _stdlib(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _meaning(value):
    """A comparable form of a decoded value: NaN equals NaN, the sign of
    zero counts, and ``1`` differs from ``1.0`` and ``True``."""
    if isinstance(value, float):
        return ("float", "nan" if math.isnan(value) else value.hex())
    if isinstance(value, dict):
        return ("dict", [(k, _meaning(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_meaning(v) for v in value])
    return (type(value).__name__, value)


_scalars = (
    st.floats()
    | st.integers()
    | st.text()
    | st.booleans()
    | st.none()
)
_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_documents = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_keys, children, max_size=5),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(_documents)
    def test_decodes_to_what_the_stdlib_encoder_writes(self, document):
        assert _meaning(json.loads(wire.dumps(document))) == _meaning(
            json.loads(json.dumps(document))
        )

    @pytest.mark.parametrize(
        "document",
        [
            {"gauge": float("nan")},
            [float("inf"), 1.5],
            {"low": -float("inf")},
            {None: 1},
            {"x": np.float64(0.1)},
            {"n": 2**64},
            {1e16: "float key"},
        ],
        ids=["nan", "inf", "-inf", "none-key", "np-float64", "2**64", "float-key"],
    )
    def test_fallback_writes_the_stdlib_bytes(self, document):
        assert wire.dumps(document) == _stdlib(document)

    def test_finite_documents_take_orjson(self):
        document = {"scores": [1e16, 1e-05, -0.0], "label": "naïve ✓"}
        encoded = wire.dumps(document)
        assert encoded == orjson.dumps(document)
        assert "naïve ✓".encode() in encoded  # raw UTF-8, no \u escapes
        assert json.loads(encoded) == document

    def test_non_finite_floats_survive_an_rpc_frame(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"v": [float("nan"), float("inf")], "n": 2**64})
            frame = recv_frame(right)
        assert math.isnan(frame["v"][0])
        assert frame["v"][1] == float("inf")
        assert frame["n"] == 2**64


@pytest.fixture
def observability():
    state = obs.configure()
    yield state
    obs.disable()


def _nan_gauge(state, name="repro_test_broken_gauge"):
    # A gauge whose callback raises reads NaN.
    state.metrics.gauge(name, "A gauge that cannot be read.").default().set_function(
        lambda: 1 / 0
    )
    return name


class TestOverTheWire:
    def test_detail_view_is_encoded_by_orjson(
        self, two_cluster_data, monkeypatch
    ):
        import repro.service.server as server_module

        data, labels = two_cluster_data
        manager = SessionManager({"two": data})
        sid = manager.create("two")
        manager.apply_feedback(
            sid, [ClusterFeedback(rows=np.flatnonzero(labels == 0))]
        )
        encoded: list = []

        def recording(payload):
            encoded.append(payload)
            return wire.dumps(payload)

        monkeypatch.setattr(
            server_module, "wire", types.SimpleNamespace(dumps=recording)
        )
        server = start_background(manager)
        try:
            url = f"{server.base_url}/v1/sessions/{sid}/view?detail=1"
            with urllib.request.urlopen(url, timeout=10) as resp:
                body = resp.read()
        finally:
            server.stop()
        (payload,) = encoded
        assert len(payload["row_surprise"]) == data.shape[0]
        # orjson accepted every value and wrote no null: the fast path.
        assert body == orjson.dumps(payload)
        assert b"null" not in body

    def test_nan_gauge_survives_the_json_scrape(
        self, two_cluster_data, observability
    ):
        name = _nan_gauge(observability)
        data, _ = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        try:
            url = f"{server.base_url}/v1/metrics?format=json"
            with urllib.request.urlopen(url, timeout=10) as resp:
                body = resp.read()
        finally:
            server.stop()
        (sample,) = json.loads(body)["families"][name]["samples"]
        assert math.isnan(sample["value"])

    def test_nan_gauge_survives_the_fleet_merge(
        self, two_cluster_data, observability, tmp_path
    ):
        from repro.service.api import ServiceAPI
        from repro.service.router import InProcessWorker, Router, WorkerPool

        name = _nan_gauge(observability)
        data, _ = two_cluster_data
        socket_dir = str(tmp_path)

        def factory(worker_id):
            manager = SessionManager({"two": data})
            return InProcessWorker(
                ServiceAPI(manager), manager, worker_id, socket_dir
            )

        router = Router(WorkerPool(2, factory), dataset_names=["two"])
        try:
            status, payload = router.dispatch(
                "GET", "/v1/metrics", query={"format": "json"}
            )
        finally:
            router.close()
        assert status == 200
        samples = payload["families"][name]["samples"]
        # Each worker's snapshot crossed an RPC frame; the router's did not.
        sources = {s["labels"]["source"] for s in samples}
        assert sources == {"worker-0", "worker-1", "router"}
        assert all(math.isnan(s["value"]) for s in samples)
