"""Tests for the concurrent policy-driven workload generator."""

import json

import pytest

from repro.explore.loadgen import (
    LatencyRecorder,
    LoadGenConfig,
    format_report,
    run_loadgen,
    write_report,
)
from repro.obs import route_template
from repro.service import SessionManager
from repro.service.server import start_background


class TestRouteTemplate:
    """The route keys the loadgen client records (``obs.route_template``)."""

    def test_session_paths_collapse(self):
        assert (
            route_template("GET", "/v1/sessions/abc123/view")[0]
            == "GET /v1/sessions/{id}/view"
        )
        assert (
            route_template("DELETE", "/v1/sessions/abc123")[0]
            == "DELETE /v1/sessions/{id}"
        )

    def test_collection_paths_untouched(self):
        assert route_template("POST", "/v1/sessions")[0] == "POST /v1/sessions"
        assert route_template("GET", "/v1/stats")[0] == "GET /v1/stats"

    def test_query_strings_stripped(self):
        assert (
            route_template("GET", "/v1/sessions/x/view?detail=1")[0]
            == "GET /v1/sessions/{id}/view"
        )


class TestLatencyRecorder:
    def test_percentiles_and_errors(self):
        recorder = LatencyRecorder()
        for ms in (1, 2, 3, 4, 100):
            recorder.record("GET /x", ms / 1e3, ok=True)
        recorder.record("GET /x", 0.5, ok=False)
        summary = recorder.summary()
        stats = summary["GET /x"]
        assert stats["count"] == 6
        assert stats["errors"] == 1
        assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert recorder.totals() == (6, 1)


class TestConfig:
    def test_worker_default(self):
        assert LoadGenConfig(url="x", sessions=3).resolved_workers() == 3
        assert LoadGenConfig(url="x", sessions=50).resolved_workers() == 8
        assert (
            LoadGenConfig(url="x", sessions=50, workers=2).resolved_workers()
            == 2
        )

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_loadgen(LoadGenConfig(url="http://x", sessions=0))
        with pytest.raises(ValueError):
            run_loadgen(LoadGenConfig(url="http://x", policies=()))
        with pytest.raises(ValueError):
            run_loadgen(
                LoadGenConfig(url="http://x", policies=("not-a-policy",))
            )


class TestLiveWorkload:
    @pytest.fixture
    def server(self, two_cluster_data):
        data, _ = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        yield server
        server.stop()

    def test_eight_concurrent_policy_sessions(self, server, tmp_path):
        """The acceptance workload: >= 8 sessions, mixed policies, report."""
        config = LoadGenConfig(
            url=server.base_url,
            sessions=8,
            workers=4,
            policies=("objective-sweep", "random-walk"),
            rounds=2,
            seed=0,
        )
        report = run_loadgen(config)

        totals = report.totals
        assert totals["sessions_failed"] == 0, report.sessions
        assert totals["sessions_ok"] == 8
        assert totals["throughput_rps"] > 0
        # create + (rounds+1 views) + feedback + delete per session.
        assert totals["requests"] >= 8 * 4

        view_stats = report.routes["GET /v1/sessions/{id}/view"]
        for key in ("count", "p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            assert key in view_stats
        assert view_stats["count"] >= 8 * 3  # initial + one per round

        assert report.cache is not None
        assert "hit_rate" in report.cache
        # Twin sessions reach identical belief states concurrently; the
        # solve cache must convert some of them into hits.
        assert report.cache["hits"] > 0

        path = write_report(report, tmp_path / "BENCH_loadgen.json")
        payload = json.loads(path.read_text())
        assert payload["suite"] == "loadgen"
        assert payload["routes"] == report.routes
        assert payload["totals"]["requests"] == totals["requests"]

        text = format_report(report)
        assert "GET /v1/sessions/{id}/view" in text
        assert "req/s" in text

    def test_mixed_datasets_round_robin(
        self, two_cluster_data, gaussian_data, tmp_path
    ):
        data, _ = two_cluster_data
        server = start_background(
            SessionManager({"two": data, "gauss": gaussian_data})
        )
        try:
            report = run_loadgen(
                LoadGenConfig(
                    url=server.base_url,
                    sessions=4,
                    workers=2,
                    policies=("random-walk",),
                    rounds=1,
                    seed=0,
                )
            )
        finally:
            server.stop()
        assert report.totals["sessions_failed"] == 0
        used = {outcome["dataset"] for outcome in report.sessions}
        assert used == {"two", "gauss"}

    def test_obs_run_records_metrics_series(
        self, two_cluster_data, tmp_path
    ):
        """With --obs the loadgen scrapes /v1/metrics DURING the run and
        the report carries the time-series, not just the final totals."""
        from repro import obs

        data, _ = two_cluster_data
        obs.configure()
        server = start_background(SessionManager({"two": data}))
        try:
            report = run_loadgen(
                LoadGenConfig(
                    url=server.base_url,
                    sessions=4,
                    workers=2,
                    policies=("objective-sweep",),
                    rounds=2,
                    seed=0,
                    obs=True,
                    scrape_interval=0.05,
                )
            )
        finally:
            server.stop()
            obs.disable()
        series = report.obs["series"]
        assert series["interval_seconds"] == 0.05
        samples = series["samples"]
        assert len(samples) >= 2  # immediate anchor + final scrape
        for sample in samples:
            assert {"ts", "mono", "families"} <= set(sample)
        assert samples[0]["mono"] <= samples[-1]["mono"]
        timeline = series["timeline"]
        assert len(timeline) == len(samples) - 1
        assert all(point["requests_per_s"] >= 0 for point in timeline)
        # the whole run's requests appear in the scraped counters
        from repro.obs.timeseries import counter_delta

        total = counter_delta(
            samples[0], samples[-1], "repro_requests_total"
        )
        assert total > 0
        # series survives the JSON artifact round-trip
        path = write_report(report, tmp_path / "BENCH_loadgen.json")
        payload = json.loads(path.read_text())
        assert payload["obs"]["series"]["timeline"] == timeline
        assert "obs series:" in format_report(report)

    def test_scrape_interval_zero_disables_sampler(self, two_cluster_data):
        from repro import obs

        data, _ = two_cluster_data
        obs.configure()
        server = start_background(SessionManager({"two": data}))
        try:
            report = run_loadgen(
                LoadGenConfig(
                    url=server.base_url,
                    sessions=1,
                    workers=1,
                    policies=("objective-sweep",),
                    rounds=1,
                    seed=0,
                    obs=True,
                    scrape_interval=0.0,
                )
            )
        finally:
            server.stop()
            obs.disable()
        assert report.obs["enabled"] is True
        assert "series" not in report.obs
