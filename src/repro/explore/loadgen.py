"""Service workload generator: concurrent policy-driven sessions.

Replays N autonomous exploration sessions against a running ``/v1``
service from a thread pool — each worker is a full policy loop
(:mod:`repro.explore.engine` over a :class:`RemoteDriver`), not a
synthetic request stream, so the traffic mix (session creation, detail
views, feedback batches) is exactly what real autonomous clients
generate.  Every request is timed per route template, and the run ends
with a ``BENCH_loadgen.json``-shaped report: p50/p95/p99 latency per
route, total throughput, solve-cache hit rate, and a per-session
outcome table.

Sessions default to ``seed + index`` seeds over a round-robin of
datasets and policies, so the workload is deterministic in *content*
(identical feedback sequences run to run) while the interleaving stays
genuinely concurrent — which is what makes the solve-cache hit rate a
meaningful number: concurrent twins of the same belief state should hit.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.explore.engine import RemoteDriver, run_exploration
from repro.explore.policies import make_policy
from repro.obs import bucket_bounds, histogram_quantile, route_template
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError, parse_chaos
from repro.service.client import ServiceClient, ServiceClientError

#: Client counters summed across workers into ``totals["resilience"]``.
_CLIENT_COUNTERS = (
    "retries", "shed", "breaker_open", "deadline_exceeded", "dedup"
)

#: Percentiles reported per route.
_PERCENTILES = (50, 95, 99)

#: Slack for the client/server latency cross-check: client-side numbers
#: include urllib + socket overhead the server never sees, so agreement
#: is asserted only up to bucket resolution plus this many milliseconds.
_CROSSCHECK_OVERHEAD_MS = 25.0


class LatencyRecorder:
    """Thread-safe per-route latency samples (seconds) and error counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: dict[str, list[float]] = {}
        self._errors: dict[str, int] = {}

    def record(self, route: str, seconds: float, ok: bool) -> None:
        with self._lock:
            self._samples.setdefault(route, []).append(seconds)
            if not ok:
                self._errors[route] = self._errors.get(route, 0) + 1

    def summary(self) -> dict:
        """Per-route count / mean / percentiles (milliseconds) + errors."""
        with self._lock:
            samples = {route: list(vals) for route, vals in self._samples.items()}
            errors = dict(self._errors)
        routes = {}
        for route in sorted(samples):
            values = np.asarray(samples[route], dtype=np.float64) * 1e3
            stats = {
                "count": int(values.size),
                "mean_ms": float(values.mean()),
                "max_ms": float(values.max()),
                "errors": int(errors.get(route, 0)),
            }
            for q in _PERCENTILES:
                stats[f"p{q}_ms"] = float(np.percentile(values, q))
            routes[route] = stats
        return routes

    def totals(self) -> tuple[int, int]:
        """(total requests, total errors) recorded so far."""
        with self._lock:
            requests = sum(len(vals) for vals in self._samples.values())
            errors = sum(self._errors.values())
        return requests, errors


class InstrumentedClient(ServiceClient):
    """A :class:`ServiceClient` that times every request into a recorder.

    Instrumentation wraps the single-attempt layer, so each retry of a
    refused connection is its own sample — percentiles reflect wire
    latency, not the client's backoff sleeps.
    """

    def __init__(self, base_url: str, recorder: LatencyRecorder, **kwargs) -> None:
        super().__init__(base_url, **kwargs)
        self.recorder = recorder

    def _request_once(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        decode_json: bool = True,
    ):
        # The server's own route key, so the two latency tables join.
        route = route_template(method, self.prefix + path)[0]
        start = time.perf_counter()
        try:
            # Client-side chaos point: `--chaos "client.request:error:p=..."`
            # injects ambiguous transport failures *before* the wire, so the
            # retry/breaker machinery is exercised without a faulty server.
            chaos.hit("client.request")
            payload = super()._request_once(
                method, path, body, decode_json=decode_json
            )
        except ChaosError as exc:
            self.recorder.record(route, time.perf_counter() - start, ok=False)
            raise ServiceClientError(
                0, {"error": f"injected fault: {exc}"}
            ) from exc
        except ServiceClientError:
            self.recorder.record(route, time.perf_counter() - start, ok=False)
            raise
        self.recorder.record(route, time.perf_counter() - start, ok=True)
        return payload


@dataclass(frozen=True)
class LoadGenConfig:
    """One workload run.

    Attributes
    ----------
    url:
        Base URL of the running service (e.g. ``http://127.0.0.1:8000``).
    sessions:
        Number of policy-driven sessions to run.
    workers:
        Thread-pool size (default: ``min(sessions, 8)``).
    policies:
        Policy names assigned round-robin over sessions.
    datasets:
        Dataset names assigned round-robin (default: every dataset the
        server advertises).
    rounds:
        Round budget per session.
    objective:
        Default session objective.
    seed:
        Session ``i`` runs with seed ``seed + i`` (policy and session).
    timeout:
        Per-request client timeout, seconds.
    cleanup:
        Delete each session from the server after its run.
    obs:
        Scrape the server's ``/v1/metrics`` after the run and cross-check
        its per-route latency histograms against the client-side
        percentiles (requires observability enabled on the server).
    scrape_interval:
        With ``obs``, also scrape ``/v1/metrics`` every this many seconds
        *during* the run and record the series into the report (so
        throughput-over-time and warmup effects are visible, not just
        end-of-run aggregates).  ``0`` disables the mid-run sampler.
    deadline_ms:
        Per-request deadline each worker sends as ``X-Repro-Deadline-Ms``
        (``None`` sends none); deadline-shed requests land in the
        report's resilience counters.
    chaos:
        Client-side fault spec (:func:`repro.resilience.chaos.parse_chaos`
        grammar) installed for the duration of the run; the meaningful
        point is ``client.request`` (latency / error before each
        attempt).  Exercises the retry and breaker paths without needing
        a misbehaving server.
    chaos_seed:
        Seed of the chaos registry's RNG, for reproducible fault trains.
    """

    url: str
    sessions: int = 8
    workers: int | None = None
    policies: tuple[str, ...] = ("objective-sweep",)
    datasets: tuple[str, ...] | None = None
    rounds: int = 3
    objective: str = "pca"
    seed: int = 0
    timeout: float = 60.0
    cleanup: bool = True
    obs: bool = False
    scrape_interval: float = 0.5
    deadline_ms: float | None = None
    chaos: str | None = None
    chaos_seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "sessions": self.sessions,
            "workers": self.resolved_workers(),
            "policies": list(self.policies),
            "datasets": list(self.datasets) if self.datasets else None,
            "rounds": self.rounds,
            "objective": self.objective,
            "seed": self.seed,
            "timeout": self.timeout,
            "cleanup": self.cleanup,
            "obs": self.obs,
            "scrape_interval": self.scrape_interval,
            "deadline_ms": self.deadline_ms,
            "chaos": self.chaos,
            "chaos_seed": self.chaos_seed,
        }

    def resolved_workers(self) -> int:
        return self.workers if self.workers else min(self.sessions, 8)


@dataclass
class LoadGenReport:
    """Everything one workload run measured (JSON-ready via ``to_dict``)."""

    config: dict
    routes: dict
    totals: dict
    cache: dict | None
    server: dict | None
    sessions: list[dict] = field(default_factory=list)
    obs: dict | None = None

    def to_dict(self) -> dict:
        return {
            "suite": "loadgen",
            "config": self.config,
            "routes": self.routes,
            "totals": self.totals,
            "cache": self.cache,
            "server": self.server,
            "sessions": self.sessions,
            "obs": self.obs,
        }


def capture_obs(control: ServiceClient, client_routes: dict) -> dict | None:
    """Scrape server-side metrics and cross-check latency percentiles.

    For every route both sides saw, the server's request-duration
    histogram is reduced to p50/p95/p99 estimates
    (:func:`histogram_quantile`) and the client-side percentile is
    checked against the histogram's bucket bounds — agreement "within
    bucket resolution" plus a fixed HTTP-overhead allowance, since the
    client numbers include socket time the server never measures.

    Returns ``None`` when the server cannot be scraped at all,
    ``{"enabled": False}`` when observability is off server-side.
    """
    try:
        scraped = control.metrics()
    except ServiceClientError:
        return None
    if not scraped.get("enabled"):
        return {"enabled": False}
    family = scraped.get("families", {}).get(
        "repro_request_duration_seconds", {}
    )
    server_routes: dict = {}
    crosscheck: dict = {}
    for sample in family.get("samples", []):
        route = sample.get("labels", {}).get("route", "")
        buckets = [tuple(edge) for edge in sample.get("buckets", [])]
        count = sample.get("count", 0)
        if not route or count <= 0:
            continue
        entry: dict = {"count": int(count)}
        for q in _PERCENTILES:
            entry[f"p{q}_ms"] = (
                histogram_quantile(buckets, count, q / 100.0) * 1e3
            )
        server_routes[route] = entry
        client = client_routes.get(route)
        if client is None:
            continue
        checks: dict = {}
        for q in _PERCENTILES:
            lower, upper = bucket_bounds(buckets, count, q / 100.0)
            lower_ms, upper_ms = lower * 1e3, upper * 1e3
            client_ms = client[f"p{q}_ms"]
            # Generous on purpose: this guards against gross divergence
            # (wrong units, mislabelled routes), not clock-level agreement.
            ok = client_ms >= lower_ms - _CROSSCHECK_OVERHEAD_MS and (
                upper_ms != upper_ms  # NaN guard (empty histogram)
                or upper == float("inf")
                or client_ms
                <= upper_ms + max(_CROSSCHECK_OVERHEAD_MS, upper_ms)
            )
            checks[f"p{q}"] = {
                "client_ms": client_ms,
                "server_ms": entry[f"p{q}_ms"],
                "bucket_ms": [lower_ms, upper_ms],
                "within_tolerance": bool(ok),
            }
        crosscheck[route] = checks
    return {
        "enabled": True,
        "server_routes": server_routes,
        "crosscheck": crosscheck,
    }


class _MetricsSampler(threading.Thread):
    """Scrapes ``/v1/metrics?format=json`` on an interval during the run.

    Each scrape is stored as a time-series sample in the shape the
    :mod:`repro.obs.timeseries` derivation helpers consume, so the
    report's ``obs.series`` can be post-processed with the same
    counter→rate math the server's history endpoint uses.  Scrape
    failures are skipped (the workload, not the sampler, is the
    experiment).
    """

    def __init__(self, control: ServiceClient, interval: float) -> None:
        super().__init__(name="loadgen-scrape", daemon=True)
        self.control = control
        self.interval = float(interval)
        self.samples: list[dict] = []
        self._lock = threading.Lock()
        # NB: not named _stop — Thread.join() calls a private _stop().
        self._done = threading.Event()

    def scrape(self) -> None:
        try:
            payload = self.control.metrics()
        except ServiceClientError:
            return
        if not payload.get("enabled"):
            return
        sample = {
            "ts": time.time(),
            "mono": time.perf_counter(),
            "families": payload.get("families", {}),
        }
        with self._lock:
            self.samples.append(sample)

    def run(self) -> None:
        self.scrape()
        while not self._done.wait(self.interval):
            self.scrape()

    def finish(self) -> list[dict]:
        """Stop the sampler, take one final scrape, return the series."""
        self._done.set()
        self.join(timeout=self.interval + 5.0)
        self.scrape()
        with self._lock:
            return list(self.samples)


def _series_timeline(samples: Sequence[dict]) -> list[dict]:
    """Per-interval request/solve rates from consecutive scrapes."""
    from repro.obs.timeseries import counter_delta

    timeline = []
    origin = samples[0]["mono"] if samples else 0.0
    for first, last in zip(samples, samples[1:]):
        window = max(last["mono"] - first["mono"], 1e-9)
        requests = counter_delta(first, last, "repro_requests_total")
        hits = counter_delta(
            first, last, "repro_solve_cache_lookups_total", {"result": "hit"}
        )
        misses = counter_delta(
            first, last, "repro_solve_cache_lookups_total", {"result": "miss"}
        )
        lookups = hits + misses
        timeline.append({
            "elapsed_s": last["mono"] - origin,
            "requests_per_s": requests / window,
            "solves_per_s": misses / window,
            "cache_hit_rate": (hits / lookups) if lookups else None,
        })
    return timeline


def _run_one_session(
    index: int, config: LoadGenConfig, datasets: Sequence[str],
    recorder: LatencyRecorder,
) -> dict:
    dataset = datasets[index % len(datasets)]
    policy_name = config.policies[index % len(config.policies)]
    seed = config.seed + index
    client = InstrumentedClient(
        config.url, recorder,
        timeout=config.timeout,
        deadline_ms=config.deadline_ms,
    )
    outcome = {
        "index": index,
        "dataset": dataset,
        "policy": policy_name,
        "seed": seed,
        "session_id": None,
        "rounds": 0,
        "final_knowledge_nats": None,
        "stopped_by": None,
        "error": None,
    }
    try:
        policy = make_policy(policy_name)
        sid = client.create_session(
            dataset,
            objective=config.objective,
            standardize=True,
            seed=seed,
        )
        outcome["session_id"] = sid
        driver = RemoteDriver(client, sid)
        result = run_exploration(
            policy, driver, rounds=config.rounds, seed=seed
        )
        outcome["rounds"] = len(result.rounds)
        outcome["final_knowledge_nats"] = result.knowledge_curve()[-1]
        outcome["stopped_by"] = result.stopped_by
        if config.cleanup:
            client.delete_session(sid)
    except Exception as exc:  # noqa: BLE001 — one failed session must be
        # reported as a failed session, not abort the whole run (and lose
        # every other worker's measurements).
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    outcome["client"] = dict(client.counters)
    outcome["last_attempts"] = client.last_attempts
    return outcome


def run_loadgen(config: LoadGenConfig) -> LoadGenReport:
    """Drive the configured workload; returns the measured report.

    Raises :class:`ServiceClientError` when the server is unreachable at
    startup (after the client's bounded connection retries).
    """
    if config.sessions <= 0:
        raise ValueError(f"sessions must be positive, got {config.sessions}")
    if not config.policies:
        raise ValueError("loadgen needs at least one policy name")
    for name in config.policies:
        make_policy(name)  # fail fast on unknown policies
    recorder = LatencyRecorder()
    control = ServiceClient(config.url, timeout=config.timeout)
    datasets = (
        list(config.datasets) if config.datasets else control.datasets()
    )
    if not datasets:
        raise ValueError("the server advertises no datasets to explore")

    sampler = None
    if config.obs and config.scrape_interval > 0:
        sampler = _MetricsSampler(control, config.scrape_interval)
        sampler.start()
    if config.chaos:
        chaos.configure_chaos(
            parse_chaos(config.chaos), seed=config.chaos_seed
        )
    started = time.perf_counter()
    try:
        with ThreadPoolExecutor(
            max_workers=config.resolved_workers(), thread_name_prefix="loadgen"
        ) as pool:
            outcomes = list(
                pool.map(
                    lambda i: _run_one_session(i, config, datasets, recorder),
                    range(config.sessions),
                )
            )
    finally:
        if config.chaos:
            chaos.disable_chaos()
    wall = time.perf_counter() - started
    series = sampler.finish() if sampler is not None else None

    requests, errors = recorder.totals()
    routes = recorder.summary()
    try:
        server_stats = control.server_stats()
    except ServiceClientError:
        server_stats = None
    cache = (server_stats or {}).get("cache")
    obs_capture = capture_obs(control, routes) if config.obs else None
    if series is not None and obs_capture is not None:
        obs_capture["series"] = {
            "interval_seconds": config.scrape_interval,
            "samples": series,
            "timeline": _series_timeline(series),
        }
    resilience = {
        key: sum(o.get("client", {}).get(key, 0) for o in outcomes)
        for key in _CLIENT_COUNTERS
    }
    return LoadGenReport(
        config=config.to_dict(),
        routes=routes,
        totals={
            "requests": requests,
            "errors": errors,
            "wall_seconds": wall,
            "throughput_rps": (requests / wall) if wall > 0 else 0.0,
            "sessions_ok": sum(1 for o in outcomes if o["error"] is None),
            "sessions_failed": sum(
                1 for o in outcomes if o["error"] is not None
            ),
            "resilience": resilience,
        },
        cache=cache,
        server=server_stats,
        sessions=outcomes,
        obs=obs_capture,
    )


def write_report(report: LoadGenReport, path: str | Path) -> Path:
    """Write the report as a ``BENCH_loadgen.json`` artifact; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return target


def format_report(report: LoadGenReport) -> str:
    """Human-readable summary table (what the CLI prints)."""
    lines = ["route                                    count    p50ms    p95ms    p99ms  err"]
    for route, stats in report.routes.items():
        lines.append(
            f"{route:<40} {stats['count']:>5} "
            f"{stats['p50_ms']:>8.2f} {stats['p95_ms']:>8.2f} "
            f"{stats['p99_ms']:>8.2f} {stats['errors']:>4}"
        )
    totals = report.totals
    lines.append(
        f"total: {totals['requests']} requests in "
        f"{totals['wall_seconds']:.2f}s -> "
        f"{totals['throughput_rps']:.1f} req/s; "
        f"{totals['sessions_ok']} session(s) ok, "
        f"{totals['sessions_failed']} failed"
    )
    resilience = totals.get("resilience") or {}
    if any(resilience.values()):
        lines.append(
            "resilience: "
            f"{resilience.get('retries', 0)} retried, "
            f"{resilience.get('shed', 0)} shed, "
            f"{resilience.get('breaker_open', 0)} breaker-open, "
            f"{resilience.get('deadline_exceeded', 0)} deadline-exceeded, "
            f"{resilience.get('dedup', 0)} deduplicated"
        )
    if report.cache:
        lines.append(
            f"solve cache: hit rate {report.cache.get('hit_rate', 0.0):.2%} "
            f"({report.cache.get('hits', 0)} hits / "
            f"{report.cache.get('misses', 0)} misses)"
        )
    if report.obs is not None:
        if not report.obs.get("enabled"):
            lines.append("obs: server-side observability disabled (no cross-check)")
        else:
            checks = [
                check["within_tolerance"]
                for route_checks in report.obs["crosscheck"].values()
                for check in route_checks.values()
            ]
            agreed = sum(checks)
            lines.append(
                f"obs: {len(report.obs['server_routes'])} server-side route "
                f"histogram(s); latency cross-check {agreed}/{len(checks)} "
                "within bucket resolution"
            )
            series = report.obs.get("series")
            if series and series.get("timeline"):
                rates = [t["requests_per_s"] for t in series["timeline"]]
                lines.append(
                    f"obs series: {len(series['samples'])} scrape(s) @ "
                    f"{series['interval_seconds']:g}s — req/s "
                    f"min {min(rates):.1f} / peak {max(rates):.1f}"
                )
    return "\n".join(lines)
