"""Metrics registry: counters/gauges/histograms + exposition round-trip."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    histogram_quantile,
    parse_prometheus,
)


class TestFamilies:
    def test_counter_increments_and_is_monotone(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "help").default()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_children_are_distinct_and_cached(self):
        reg = MetricsRegistry()
        family = reg.counter("req_total", "", labelnames=("route",))
        a = family.labels(route="GET /a")
        b = family.labels(route="GET /b")
        assert a is not b
        assert family.labels(route="GET /a") is a
        a.inc()
        assert (a.value, b.value) == (1.0, 0.0)

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        family = reg.counter("x_total", "", labelnames=("route",))
        with pytest.raises(ValueError):
            family.labels(verb="GET")
        with pytest.raises(ValueError):
            family.default()

    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        first = reg.counter("t_total", "help")
        again = reg.counter("t_total", "other help")
        assert again is first
        with pytest.raises(ValueError):
            reg.gauge("t_total")

    def test_gauge_set_inc_and_callback(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g").default()
        gauge.set(4.0)
        gauge.inc(1.0)
        assert gauge.value == 5.0
        gauge.set_function(lambda: 42.0)
        assert gauge.value == 42.0

    def test_broken_gauge_callback_yields_nan_not_raise(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g").default()
        gauge.set_function(lambda: 1 / 0)
        assert math.isnan(gauge.value)
        # and the render survives it
        assert "g" in reg.render_prometheus()


class TestHistogram:
    def test_single_observation_counts_once_per_cumulative_level(self):
        h = Histogram((1.0, 2.0, 5.0))
        h.observe(1.0)
        snap = h.snapshot()
        assert snap["buckets"] == [[1.0, 1], [2.0, 1], [5.0, 1]]
        assert snap["count"] == 1 and snap["sum"] == 1.0

    def test_cumulative_counts_and_overflow(self):
        h = Histogram((1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["buckets"] == [[1.0, 1], [2.0, 2], [5.0, 3]]
        assert snap["count"] == 4  # +Inf bucket == total count

    def test_threaded_observations_sum_exactly(self):
        h = Histogram(DEFAULT_LATENCY_BUCKETS)

        def work():
            for _ in range(500):
                h.observe(0.003)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.snapshot()
        assert snap["count"] == 4000
        assert snap["buckets"][-1][1] == 4000

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram(())


class TestConfigurableBuckets:
    def test_histogram_family_accepts_custom_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "fsync_seconds", "Fsync.", buckets=(0.0001, 0.001, 0.01)
        ).default()
        hist.observe(0.0005)
        snap = hist.snapshot()
        assert [edge for edge, _ in snap["buckets"]] == [0.0001, 0.001, 0.01]
        assert snap["buckets"][1][1] == 1  # landed in the 1 ms bin

    def test_default_buckets_unchanged_when_not_overridden(self):
        reg = MetricsRegistry()
        hist = reg.histogram("dur_seconds", "Durations.").default()
        assert hist.buckets == tuple(DEFAULT_LATENCY_BUCKETS)

    def test_purpose_built_default_ladders(self):
        # fsync buckets resolve sub-ms flushes; solve buckets reach the
        # paper's 10 s solver cutoff and beyond
        from repro.obs.metrics import (
            DEFAULT_FSYNC_BUCKETS,
            DEFAULT_SOLVE_BUCKETS,
        )

        assert min(DEFAULT_FSYNC_BUCKETS) < 0.001
        assert max(DEFAULT_FSYNC_BUCKETS) <= 1.0
        assert max(DEFAULT_SOLVE_BUCKETS) >= 10.0

    def test_wal_append_family_keeps_the_fsync_ladder(self):
        from repro.obs import Observability
        from repro.obs.metrics import DEFAULT_FSYNC_BUCKETS

        state = Observability(metrics=MetricsRegistry())
        family = state.metrics.get("repro_wal_append_seconds")
        assert family.default().buckets == tuple(
            sorted(b for b in DEFAULT_FSYNC_BUCKETS if b != float("inf"))
        )


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter(
            "req_total", "Requests.", labelnames=("route", "status")
        ).labels(route='GET /v1/sessions/{id}', status="200").inc(7)
        reg.gauge("live_sessions", "Live sessions.").default().set(3)
        hist = reg.histogram(
            "dur_seconds", "Durations.", buckets=(0.01, 0.1, 1.0)
        ).default()
        hist.observe(0.05)
        hist.observe(0.5)
        return reg

    def test_prometheus_text_shape(self):
        text = self._populated().render_prometheus()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{route="GET /v1/sessions/{id}",status="200"} 7' in text
        assert "live_sessions 3" in text
        assert 'dur_seconds_bucket{le="0.01"} 0' in text
        assert 'dur_seconds_bucket{le="+Inf"} 2' in text
        assert "dur_seconds_count 2" in text
        assert text.endswith("\n")

    def test_parse_round_trip(self):
        reg = self._populated()
        families = parse_prometheus(reg.render_prometheus())
        assert families["req_total"]["type"] == "counter"
        sample = families["req_total"]["samples"][0]
        assert sample["labels"] == {
            "route": "GET /v1/sessions/{id}",
            "status": "200",
        }
        assert sample["value"] == 7.0
        # histogram samples are attributed to their family
        hist = families["dur_seconds"]
        names = {s["name"] for s in hist["samples"]}
        assert names == {"dur_seconds_bucket", "dur_seconds_sum", "dur_seconds_count"}
        inf = [
            s for s in hist["samples"]
            if s["labels"].get("le") == "+Inf"
        ]
        assert inf and inf[0]["value"] == 2.0

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        nasty = 'back\\slash "quote"\nnewline'
        reg.counter("c_total", "", labelnames=("k",)).labels(k=nasty).inc()
        families = parse_prometheus(reg.render_prometheus())
        assert families["c_total"]["samples"][0]["labels"]["k"] == nasty

    def test_json_render(self):
        payload = self._populated().render_json()
        assert payload["req_total"]["type"] == "counter"
        hist_sample = payload["dur_seconds"]["samples"][0]
        assert hist_sample["count"] == 2
        assert hist_sample["buckets"][-1] == [1.0, 2]


class TestQuantiles:
    def test_quantile_interpolates_within_bucket(self):
        # 10 observations, all in (0.1, 0.2]
        buckets = [(0.1, 0.0), (0.2, 10.0), (0.5, 10.0)]
        mid = histogram_quantile(buckets, 10, 0.5)
        assert 0.1 < mid <= 0.2
        assert histogram_quantile(buckets, 10, 0.99) <= 0.2

    def test_quantile_empty_is_nan(self):
        assert math.isnan(histogram_quantile([], 0, 0.5))

    def test_quantile_past_last_bucket_clamps_to_edge(self):
        buckets = [(0.1, 5.0)]  # 5 of 10 observations beyond last edge
        assert histogram_quantile(buckets, 10, 0.99) == 0.1

    def test_bucket_bounds_bracket_the_quantile(self):
        buckets = [(0.1, 0.0), (0.2, 10.0)]
        assert bucket_bounds(buckets, 10, 0.5) == (0.1, 0.2)
        lower, upper = bucket_bounds([(0.1, 5.0)], 10, 0.99)
        assert lower == 0.1 and upper == float("inf")
