"""Observability threaded through the service: events, metrics, tracing.

These tests exercise the full request path — HTTP server, dispatch
envelope, perf-span bridge, metrics registry, JSONL sink — and pin two
contracts: the /v1 JSON error payloads are byte-identical with
observability on, and the disabled hot-path hooks stay in the same cost
class as a disabled ``perf.add``.
"""

from __future__ import annotations

import json
import re
import time
import urllib.request

import numpy as np
import pytest

from repro import obs, perf
from repro.obs import parse_prometheus, read_events
from repro.service.api import ServiceAPI, TextResponse
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import SessionManager
from repro.service.server import ReproServer

_TRACE_RE = re.compile(r"^[0-9a-f]{32}$")


@pytest.fixture
def data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(80, 4))


@pytest.fixture
def obs_log(tmp_path):
    """Observability enabled with a JSONL sink; always disabled after."""
    path = tmp_path / "events.jsonl"
    state = obs.configure(event_log=str(path))
    yield state, path
    obs.disable()


@pytest.fixture
def live(data, obs_log):
    """(server, client, manager, state, log path) with obs enabled."""
    state, path = obs_log
    manager = SessionManager({"demo": data})
    server = ReproServer(manager, port=0, max_body_bytes=64 * 1024)
    server.start_background()
    client = ServiceClient(server.base_url)
    yield server, client, manager, state, path
    server.stop()


def _events(path):
    return list(read_events(path))


class TestRequestEvents:
    def test_every_request_emits_one_event_with_a_trace_id(self, live):
        server, client, manager, state, path = live
        sid = client.create_session("demo")
        client.view(sid)
        client.delete_session(sid)
        events = _events(path)
        assert [e["event"] for e in events] == ["request"] * 3
        assert [e["status"] for e in events] == [201, 200, 200]
        for event in events:
            assert _TRACE_RE.match(event["trace_id"])
        assert len({e["trace_id"] for e in events}) == 3

    def test_server_adopts_and_echoes_the_client_trace_id(self, live):
        server, client, manager, state, path = live
        request = urllib.request.Request(
            server.base_url + "/v1/health",
            headers={obs.TRACE_HEADER: "feedc0de" * 4},
        )
        with urllib.request.urlopen(request) as resp:
            assert resp.headers[obs.TRACE_HEADER] == "feedc0de" * 4
        assert _events(path)[-1]["trace_id"] == "feedc0de" * 4

    def test_malformed_header_id_is_replaced_not_logged(self, live):
        server, client, manager, state, path = live
        request = urllib.request.Request(
            server.base_url + "/v1/health",
            headers={obs.TRACE_HEADER: "not hex at all!!"},
        )
        with urllib.request.urlopen(request) as resp:
            echoed = resp.headers[obs.TRACE_HEADER]
        assert _TRACE_RE.match(echoed)
        assert _events(path)[-1]["trace_id"] == echoed

    def test_client_sends_ids_the_server_keeps(self, live):
        server, client, manager, state, path = live
        client.health()
        assert _events(path)[-1]["trace_id"] == client.last_trace_id

    def test_view_event_carries_route_session_cache_and_spans(self, live):
        server, client, manager, state, path = live
        sid = client.create_session("demo")
        client.mark_cluster(sid, list(range(10)), label="blob")
        client.view(sid)
        event = _events(path)[-1]
        assert event["route"] == "GET /v1/sessions/{id}/view"
        assert event["session_id"] == sid
        assert event["cache"] in ("hit", "miss")
        assert event["solver_sweeps"] >= 1
        assert any(p.startswith("service_view") for p in event["spans"])

    def test_slow_threshold_promotes_span_detail(self, data, tmp_path):
        path = tmp_path / "slow.jsonl"
        obs.configure(event_log=str(path), slow_ms=0.0)  # everything is slow
        try:
            manager = SessionManager({"demo": data})
            api = ServiceAPI(manager)
            api.dispatch("POST", "/v1/sessions", {"dataset": "demo"})
        finally:
            obs.disable()
        event = _events(path)[-1]
        assert event["slow"] is True
        assert isinstance(event["span_detail"], list)

    def test_fast_requests_stay_one_line(self, live):
        server, client, manager, state, path = live
        client.health()
        event = _events(path)[-1]
        assert "span_detail" not in event
        assert not event.get("slow")


class TestErrorEvents:
    """Satellite: typed error events, /v1 error contract untouched."""

    def test_unknown_session_404_contract_and_event(self, live):
        server, client, manager, state, path = live
        with pytest.raises(ServiceClientError) as err:
            client.view("missing")
        assert err.value.status == 404
        assert set(err.value.payload) == {"error"}  # contract: error only
        event = _events(path)[-1]
        assert event["event"] == "error"
        assert event["error_kind"] == "unknown_session"
        assert event["status"] == 404
        assert _TRACE_RE.match(event["trace_id"])

    def test_malformed_json_body_400(self, live):
        server, client, manager, state, path = live
        for body in (b"{not json", b"\x80abc"):  # the second is not UTF-8
            request = urllib.request.Request(
                server.base_url + "/v1/sessions",
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
            payload = json.loads(err.value.read())
            assert "not JSON" in payload["error"]
            event = _events(path)[-1]
            assert event["error_kind"] == "malformed_body"

    def test_non_object_json_body_400(self, live):
        server, client, manager, state, path = live
        request = urllib.request.Request(
            server.base_url + "/v1/sessions",
            data=b"[1, 2, 3]",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert _events(path)[-1]["error_kind"] == "malformed_body"

    def test_oversized_body_413_without_reading(self, live):
        server, client, manager, state, path = live
        big = b'{"filler": "' + b"x" * (128 * 1024) + b'"}'
        request = urllib.request.Request(
            server.base_url + "/v1/sessions",
            data=big,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 413
        event = _events(path)[-1]
        assert event["error_kind"] == "oversized_body"
        # the server is still healthy afterwards
        assert client.health() == {"status": "ok"}

    def test_405_keeps_allow_list_with_obs_on(self, live):
        server, client, manager, state, path = live
        request = urllib.request.Request(
            server.base_url + "/v1/sessions/abc/view",
            data=b"{}",
            method="PUT",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 405
        payload = json.loads(err.value.read())
        assert payload["allow"] == ["GET"]
        assert _events(path)[-1]["error_kind"] == "method_not_allowed"

    def test_unknown_route_event(self, live):
        server, client, manager, state, path = live
        with pytest.raises(ServiceClientError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404
        assert _events(path)[-1]["error_kind"] == "unknown_route"

    def test_bad_request_dataset_400(self, live):
        server, client, manager, state, path = live
        with pytest.raises(ServiceClientError) as err:
            client._request("POST", "/sessions", {"dataset": 42})
        assert err.value.status == 400
        assert _events(path)[-1]["error_kind"] == "bad_request"

    def test_unknown_dataset_404(self, live):
        server, client, manager, state, path = live
        with pytest.raises(ServiceClientError):
            client.create_session("missing-dataset")
        assert _events(path)[-1]["error_kind"] == "unknown_dataset"

    def test_checkpoint_without_store_is_409_not_corrupt_store(
        self, data, obs_log
    ):
        """A manager run without a store is a configuration, not rot."""
        _, path = obs_log
        api = ServiceAPI(SessionManager({"demo": data}))
        status, payload = api.dispatch("POST", "/v1/sessions/s1/checkpoint")
        assert status == 409
        assert "no session store" in payload["error"]
        event = _events(path)[-1]
        assert event["status"] == 409
        assert event["error_kind"] == "no_store"
        assert event["error_kind"] != "corrupt_store"


class TestMetricsEndpoint:
    def test_prometheus_scrape_parses_and_counts(self, live):
        server, client, manager, state, path = live
        sid = client.create_session("demo")
        client.view(sid)
        client.view(sid)
        text = client.metrics_text()
        families = parse_prometheus(text)
        assert "repro_requests_total" in families
        view_samples = [
            s
            for s in families["repro_requests_total"]["samples"]
            if s["labels"].get("route") == "GET /v1/sessions/{id}/view"
        ]
        assert view_samples and view_samples[0]["value"] == 2.0
        # histogram totals match the counter
        counts = [
            s
            for s in families["repro_request_duration_seconds"]["samples"]
            if s["name"].endswith("_count")
            and s["labels"].get("route") == "GET /v1/sessions/{id}/view"
        ]
        assert counts and counts[0]["value"] == 2.0
        # scrape-time gauges reflect the manager
        gauge = families["repro_sessions_in_memory"]["samples"][0]
        assert gauge["value"] == 1.0

    def test_content_type_is_prometheus_text(self, live):
        server, client, manager, state, path = live
        with urllib.request.urlopen(server.base_url + "/v1/metrics") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in resp.headers["Content-Type"]

    def test_json_variant(self, live):
        server, client, manager, state, path = live
        client.health()
        payload = client.metrics()
        assert payload["enabled"] is True
        assert "repro_requests_total" in payload["families"]

    def test_solver_and_cache_metrics_populate(self, live):
        server, client, manager, state, path = live
        sid = client.create_session("demo")
        client.mark_cluster(sid, list(range(8)), label="a")
        client.view(sid)
        families = parse_prometheus(client.metrics_text())
        solve_count = [
            s
            for s in families["repro_solve_duration_seconds"]["samples"]
            if s["name"].endswith("_count")
        ][0]["value"]
        assert solve_count >= 1
        lookups = families["repro_solve_cache_lookups_total"]["samples"]
        assert sum(s["value"] for s in lookups) >= 1
        batch = [
            s
            for s in families["repro_feedback_batch_size"]["samples"]
            if s["name"].endswith("_count")
        ][0]["value"]
        assert batch == 1.0

    def test_disabled_still_answers_200(self, data):
        assert obs.active() is None
        manager = SessionManager({"demo": data})
        api = ServiceAPI(manager)
        status, payload = api.dispatch("GET", "/v1/metrics")
        assert status == 200
        assert isinstance(payload, TextResponse)
        assert "disabled" in payload
        status, payload = api.dispatch(
            "GET", "/v1/metrics", query={"format": "json"}
        )
        assert status == 200
        assert payload == {"enabled": False, "families": {}}


class TestStatsContract:
    """Satellite: /v1/stats always carries perf with an enabled marker."""

    def test_perf_field_present_and_marked_when_disabled(self, data):
        assert not perf.is_enabled()
        manager = SessionManager({"demo": data})
        status, payload = ServiceAPI(manager).dispatch("GET", "/v1/stats")
        assert status == 200
        assert payload["perf"]["enabled"] is False
        assert payload["perf"]["timings"] == {}

    def test_perf_field_carries_data_when_enabled(self, data):
        perf.enable()
        try:
            manager = SessionManager({"demo": data})
            manager.create("demo", session_id="s1")
            manager.view("s1")
            status, payload = ServiceAPI(manager).dispatch("GET", "/v1/stats")
        finally:
            perf.disable()
            perf.reset()
        assert payload["perf"]["enabled"] is True
        assert payload["perf"]["timings"]  # something was recorded


class TestDirectDispatch:
    def test_dispatch_mints_trace_id_without_transport(self, data, obs_log):
        state, path = obs_log
        manager = SessionManager({"demo": data})
        api = ServiceAPI(manager)
        status, _ = api.dispatch("GET", "/v1/health")
        assert status == 200
        assert _TRACE_RE.match(_events(path)[-1]["trace_id"])

    def test_envelope_records_escaped_exceptions(self, obs_log):
        state, path = obs_log
        with pytest.raises(RuntimeError):
            with obs.request_envelope("GET", "/v1/boom"):
                raise RuntimeError("handler bug")
        event = _events(path)[-1]
        assert event["status"] == 500
        assert event["error_kind"] == "internal_error"
        assert "handler bug" in event["error"]


class TestDisabledOverhead:
    """Pin the zero-overhead-by-default claim, with generous bounds."""

    _CALLS = 20_000

    def _per_call(self, fn) -> float:
        start = time.perf_counter()
        for _ in range(self._CALLS):
            fn()
        return (time.perf_counter() - start) / self._CALLS

    def test_disabled_hooks_cost_like_disabled_perf_add(self):
        assert obs.active() is None and not perf.is_enabled()
        baseline = self._per_call(lambda: perf.add("bench.counter"))
        hook = self._per_call(lambda: obs.cache_lookup(True))
        # Same cost class: one global read + None check.  The bound is
        # deliberately loose (10x + 2µs) so only a real regression —
        # locking, allocation, dict work on the disabled path — trips it.
        assert hook < baseline * 10 + 2e-6, (hook, baseline)

    def test_disabled_timer_returns_shared_noop(self):
        assert obs.active() is None and not perf.is_enabled()
        assert perf.timer("anything") is perf.timer("anything")

    def test_all_disabled_hooks_are_cheap_in_absolute_terms(self):
        assert obs.active() is None
        for hook in (
            lambda: obs.solve_completed(0.1, 3),
            lambda: obs.cache_lookup(False),
            lambda: obs.feedback_batch(4),
        ):
            assert self._per_call(hook) < 5e-6
