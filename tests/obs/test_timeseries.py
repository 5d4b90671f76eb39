"""Time-series retention and window derivation (repro.obs.timeseries)."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    counter_delta,
    derive,
    gauge_value,
    histogram_delta,
    sample_key,
)


def _registry():
    registry = MetricsRegistry()
    requests = registry.counter(
        "repro_requests_total", "Requests.", labelnames=("route", "status")
    )
    latency = registry.histogram(
        "repro_request_duration_seconds",
        "Latency.",
        labelnames=("route",),
        buckets=(0.1, 1.0, 10.0),
    )
    sessions = registry.gauge("repro_sessions_in_memory", "Sessions.")
    return registry, requests, latency, sessions


class TestSampleKey:
    def test_no_labels_is_bare_name(self):
        assert sample_key("up", {}) == "up"

    def test_labels_are_sorted(self):
        key = sample_key("reqs", {"status": "200", "route": "GET /x"})
        assert key == 'reqs{route="GET /x",status="200"}'


class TestRecorder:
    def test_sample_and_window(self):
        registry, requests, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=4)
        requests.labels(route="GET /x", status="200").inc()
        recorder.sample()
        requests.labels(route="GET /x", status="200").inc(2)
        recorder.sample()
        window = recorder.window()
        assert len(recorder) == 2
        assert window[0]["mono"] <= window[1]["mono"]
        assert "repro_requests_total" in window[1]["families"]

    def test_capacity_bounds_the_ring(self):
        registry, _, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=3)
        for _ in range(10):
            recorder.sample()
        assert len(recorder) == 3

    def test_window_seconds_filters_by_mono(self):
        registry, _, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=16)
        old = recorder.sample()
        old["mono"] -= 100.0  # age the first sample artificially
        recorder.sample()
        recorder.sample()
        assert len(recorder.window()) == 3
        assert len(recorder.window(seconds=50.0)) == 2

    def test_thread_starts_and_stops(self):
        registry, _, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=0.01, capacity=64)
        recorder.start()
        try:
            assert recorder.running
            assert len(recorder) >= 1  # start() takes an anchor sample
        finally:
            recorder.stop()
        assert not recorder.running
        # retained samples stay readable after stop
        assert len(recorder.window()) >= 1

    def test_invalid_parameters_raise(self):
        registry, _, _, _ = _registry()
        with pytest.raises(ValueError):
            TimeSeriesRecorder(lambda: registry, interval=0.0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(lambda: registry, capacity=1)


class TestCounterDelta:
    def test_increase_over_window(self):
        registry, requests, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        requests.labels(route="GET /x", status="200").inc(3)
        first = recorder.sample()
        requests.labels(route="GET /x", status="200").inc(5)
        requests.labels(route="GET /y", status="200").inc(2)
        last = recorder.sample()
        assert counter_delta(first, last, "repro_requests_total") == 7.0
        assert counter_delta(
            first, last, "repro_requests_total", {"route": "GET /y"}
        ) == 2.0

    def test_child_born_mid_window_counts_from_zero(self):
        registry, requests, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        first = recorder.sample()
        requests.labels(route="GET /x", status="200").inc(4)
        last = recorder.sample()
        assert counter_delta(first, last, "repro_requests_total") == 4.0

    def test_counter_reset_clamps_to_end_value(self):
        # Simulate a restarted shard: the end value is *below* the start.
        registry, requests, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        requests.labels(route="GET /x", status="200").inc(10)
        first = recorder.sample()
        fresh, requests2, _, _ = _registry()
        requests2.labels(route="GET /x", status="200").inc(3)
        recorder2 = TimeSeriesRecorder(lambda: fresh, interval=60.0, capacity=8)
        last = recorder2.sample()
        assert counter_delta(first, last, "repro_requests_total") == 3.0

    def test_missing_family_is_zero(self):
        registry, _, _, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        first = recorder.sample()
        last = recorder.sample()
        assert counter_delta(first, last, "nope_total") == 0.0


class TestHistogramDelta:
    def test_windowed_buckets_cover_only_the_window(self):
        registry, _, latency, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        latency.labels(route="GET /x").observe(0.05)
        first = recorder.sample()
        latency.labels(route="GET /x").observe(0.5)
        latency.labels(route="GET /x").observe(5.0)
        last = recorder.sample()
        delta = histogram_delta(
            first, last, "repro_request_duration_seconds"
        )
        assert delta["count"] == 2
        assert delta["sum"] == pytest.approx(5.5)
        # cumulative per-edge increases: nothing new under 0.1
        cum = {edge: value for edge, value in delta["buckets"]}
        assert cum[0.1] == 0.0
        assert cum[1.0] == 1.0
        assert cum[10.0] == 2.0

    def test_sums_across_children(self):
        registry, _, latency, _ = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        first = recorder.sample()
        latency.labels(route="GET /x").observe(0.05)
        latency.labels(route="GET /y").observe(0.05)
        last = recorder.sample()
        delta = histogram_delta(
            first, last, "repro_request_duration_seconds"
        )
        assert delta["count"] == 2

    def test_mismatched_child_buckets_raise(self):
        registry = MetricsRegistry()
        registry.histogram(
            "h", "H.", labelnames=("k",), buckets=(1.0,)
        ).labels(k="a").observe(0.5)
        other = MetricsRegistry()
        other.histogram(
            "h", "H.", labelnames=("k",), buckets=(2.0,)
        ).labels(k="a").observe(0.5)
        first = TimeSeriesRecorder(lambda: registry, 60.0, 8).sample()
        # splice a mismatched child into the same family snapshot
        mixed = TimeSeriesRecorder(lambda: other, 60.0, 8).sample()
        mixed["families"]["h"]["samples"].extend(
            first["families"]["h"]["samples"]
        )
        with pytest.raises(ValueError, match="mismatched buckets"):
            histogram_delta(first, mixed, "h")


class TestGaugeAndDerive:
    def test_gauge_value_combines_children(self):
        registry, _, _, sessions = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        sessions.default().set(7)
        last = recorder.sample()
        assert gauge_value(last, "repro_sessions_in_memory") == 7.0
        assert math.isnan(gauge_value(last, "missing"))

    def test_derive_reports_rates_and_windowed_quantiles(self):
        registry, requests, latency, sessions = _registry()
        recorder = TimeSeriesRecorder(lambda: registry, interval=60.0, capacity=8)
        first = recorder.sample()
        for _ in range(10):
            requests.labels(route="GET /x", status="200").inc()
            latency.labels(route="GET /x").observe(0.05)
        sessions.default().set(3)
        last = recorder.sample()
        last["mono"] = first["mono"] + 5.0  # deterministic window
        out = derive(first, last)
        assert out["window_seconds"] == pytest.approx(5.0)
        counter_key = sample_key(
            "repro_requests_total", {"route": "GET /x", "status": "200"}
        )
        assert out["counters"][counter_key]["increase"] == 10.0
        assert out["counters"][counter_key]["rate"] == pytest.approx(2.0)
        hist_key = sample_key(
            "repro_request_duration_seconds", {"route": "GET /x"}
        )
        hist = out["histograms"][hist_key]
        assert hist["count"] == 10
        assert hist["mean"] == pytest.approx(0.05)
        assert 0.0 < hist["p99"] <= 0.1  # all observations in first bucket
        assert out["gauges"][sample_key(
            "repro_sessions_in_memory", {}
        )] == 3.0
