"""Obs v2 through the service: the history endpoint, SLO health.

Backward-compat contracts pinned here: ``/v1/health`` stays exactly
``{"status": "ok"}`` unless the SLO engine is explicitly enabled, and
``/v1/metrics/history`` answers 200 with a disabled marker rather than
404 when retention is off (scrapers and dashboards must never flap on
configuration).  The recorder samples the door's registry, so a sample
carries the scrape-time gauges without a scrape.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.timeseries import gauge_value
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


def _api(data):
    return ServiceAPI(SessionManager({"demo": data}))


class TestHealthContract:
    def test_plain_obs_keeps_exact_ok_payload(self, data):
        obs.configure()
        assert _api(data).dispatch("GET", "/v1/health") == (
            200, {"status": "ok"}
        )

    def test_slo_engine_extends_health(self, data):
        state = obs.configure()
        api = _api(data)
        state.enable_slos(api.metrics_registry)
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
        state = obs.configure()
        api = _api(data)
        state.enable_slos(api.metrics_registry, history_interval=3600.0)
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
        state = obs.configure()
        api = _api(data)
        state.enable_slos(api.metrics_registry, history_interval=3600.0)
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

    def test_sample_reads_live_gauges_without_a_scrape(self, data):
        state = obs.configure()
        api = _api(data)
        state.enable_slos(api.metrics_registry, history_interval=3600.0)
        for _ in range(2):
            api.dispatch("POST", "/v1/sessions", {"dataset": "demo"})
        sample = state.history.sample()
        assert gauge_value(sample, "repro_sessions_in_memory") == 2


class TestOverHttp:
    def test_client_round_trip_history_health(self, data):
        state = obs.configure()
        api = _api(data)
        state.enable_slos(api.metrics_registry, history_interval=3600.0)
        server = ReproServer(api, port=0)
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
