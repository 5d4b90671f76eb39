"""Obs v2 through the service: history/profile endpoints, SLO health.

Backward-compat contracts pinned here: ``/v1/health`` stays exactly
``{"status": "ok"}`` unless the SLO engine is explicitly enabled, and
``/v1/metrics/history`` / ``/v1/profile`` answer 200 with a disabled
marker rather than 404 when their subsystems are off (scrapers and
dashboards must never flap on configuration).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient
from repro.service.manager import SessionManager
from repro.service.server import ReproServer


@pytest.fixture
def data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(80, 4))


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.disable()
    obs.stop_profiler()


def _api(data):
    return ServiceAPI(SessionManager({"demo": data}))


class TestHealthContract:
    def test_plain_obs_keeps_exact_ok_payload(self, data):
        obs.configure()
        assert _api(data).dispatch("GET", "/v1/health") == (
            200, {"status": "ok"}
        )

    def test_slo_engine_extends_health(self, data):
        state = obs.configure(slos=True)
        api = _api(data)
        state.history.sample()
        status, payload = api.dispatch("GET", "/v1/health")
        assert status == 200
        assert payload["status"] in ("ready", "degraded", "violating")
        names = {row["name"] for row in payload["slos"]}
        assert "view-latency-p99" in names
        json.dumps(payload)  # must stay JSON-serializable


class TestMetricsHistory:
    def test_disabled_marker_without_recorder(self, data):
        obs.configure()  # metrics on, history off
        status, payload = _api(data).dispatch("GET", "/v1/metrics/history")
        assert status == 200
        assert payload == {"enabled": False, "samples": []}

    def test_enabled_serves_samples_and_derivation(self, data):
        state = obs.configure(history=True, history_interval=3600.0)
        api = _api(data)
        api.dispatch("GET", "/v1/datasets")
        state.history.sample()
        api.dispatch("GET", "/v1/datasets")
        state.history.sample()
        status, payload = api.dispatch("GET", "/v1/metrics/history")
        assert status == 200
        assert payload["enabled"] is True
        assert payload["interval_seconds"] == 3600.0
        assert len(payload["samples"]) >= 2
        derived = payload["derived"]
        assert derived is not None
        assert any(
            key.startswith("repro_requests_total")
            for key in derived["counters"]
        )
        json.dumps(payload)

    def test_derive_can_be_skipped_and_window_trimmed(self, data):
        state = obs.configure(history=True, history_interval=3600.0)
        api = _api(data)
        state.history.sample()
        state.history.sample()
        _, payload = api.dispatch(
            "GET", "/v1/metrics/history", query={"derive": "0"}
        )
        assert "derived" not in payload
        _, payload = api.dispatch(
            "GET", "/v1/metrics/history", query={"seconds": "0.0001"}
        )
        assert payload["enabled"] is True
        assert len(payload["samples"]) >= 1  # newest sample always kept


class TestProfileEndpoint:
    def test_disabled_marker_in_both_formats(self, data):
        api = _api(data)
        status, payload = api.dispatch("GET", "/v1/profile")
        assert status == 200
        assert "disabled" in str(payload)
        status, payload = api.dispatch(
            "GET", "/v1/profile", query={"format": "json"}
        )
        assert payload["enabled"] is False

    def test_live_profiler_serves_collapsed_stacks(self, data):
        obs.start_profiler(interval=0.005)
        api = _api(data)
        deadline = time.perf_counter() + 5.0
        while (
            obs.profiler().samples == 0
            and time.perf_counter() < deadline
        ):
            api.dispatch("GET", "/v1/datasets")
        status, payload = api.dispatch(
            "GET", "/v1/profile", query={"format": "json"}
        )
        assert status == 200
        assert payload["enabled"] is True
        assert payload["samples"] >= 1
        status, text = api.dispatch("GET", "/v1/profile")
        assert status == 200
        assert text.content_type.startswith("text/plain")


class TestOverHttp:
    def test_client_round_trip_history_health_profile(self, data):
        state = obs.configure(slos=True, history_interval=3600.0)
        obs.start_profiler(interval=0.01)
        manager = SessionManager({"demo": data})
        server = ReproServer(manager, port=0)
        server.start_background()
        try:
            client = ServiceClient(server.base_url)
            sid = client.create_session("demo")
            client.view(sid)
            state.history.sample()
            client.view(sid)
            state.history.sample()
            history = client.metrics_history()
            assert history["enabled"] is True
            assert len(history["samples"]) >= 2
            health = client.health()
            assert "slos" in health
            assert client.profile()["enabled"] is True
            text = client.profile_text()
            assert isinstance(text, str)
        finally:
            server.stop()

    def test_event_log_rotation_through_configure(self, data, tmp_path):
        path = tmp_path / "events.jsonl"
        state = obs.configure(
            event_log=str(path), event_log_max_bytes=400
        )
        manager = SessionManager({"demo": data})
        server = ReproServer(manager, port=0)
        server.start_background()
        try:
            client = ServiceClient(server.base_url)
            for _ in range(10):
                client.health()
        finally:
            server.stop()
        assert state.events.rotations >= 1
        events = list(obs.read_events(path))
        assert len(events) == 10


class TestSlowRequestExemplar:
    def test_slow_request_event_carries_profile_excerpt(self, data, tmp_path):
        path = tmp_path / "events.jsonl"
        obs.configure(event_log=str(path), slow_ms=0.0)
        obs.start_profiler(interval=0.002)
        api = _api(data)
        # burn enough wall clock inside the request for the sampler to
        # land at least one tick on this thread
        deadline = time.perf_counter() + 5.0
        event = None
        while time.perf_counter() < deadline:
            api.dispatch("POST", "/v1/sessions", {"dataset": "demo"})
            events = [
                e for e in obs.read_events(path) if e.get("profile")
            ]
            if events:
                event = events[-1]
                break
        assert event is not None, "no slow event captured a profile excerpt"
        assert event["slow"] is True
        rows = event["profile"]
        assert rows[0]["count"] >= 1
        assert ";" in rows[0]["stack"]
