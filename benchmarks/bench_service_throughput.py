"""Service throughput: requests/sec and cold-vs-cached view latency.

Two measurements of the `repro.service` stack:

* **solve-cache leverage** — the same belief state (data, constraints,
  solver options) reached by forked/replayed sessions must be served from
  the cache at a fraction of the cold-solve latency (acceptance: >= 5x);
* **HTTP throughput** — end-to-end requests/sec through the threaded
  stdlib server with a warm cache, the number a capacity plan starts from.

Run with::

    pytest benchmarks/bench_service_throughput.py -s
"""

import time

import numpy as np

from repro.datasets import x5
from repro.feedback import ClusterFeedback
from repro.service import (
    ServiceAPI,
    ServiceClient,
    SessionManager,
    start_background,
)


def _x5_manager():
    bundle = x5(seed=0)
    manager = SessionManager({"x5": bundle.data})
    rows = {
        name: [int(r) for r in np.flatnonzero(bundle.labels == name)]
        for name in ("A", "B", "C", "D")
    }
    return manager, rows


def _session_with_clusters(manager, rows):
    sid = manager.create("x5", standardize=True)
    for name, cluster in rows.items():
        manager.apply_feedback(sid, [ClusterFeedback(rows=cluster, label=name)])
    return sid


def test_cache_hit_views_at_least_5x_faster(report_sink, bench_counters):
    """Acceptance: cache-hit view requests >= 5x faster than cold solves."""
    manager, rows = _x5_manager()

    sid = _session_with_clusters(manager, rows)
    start = time.perf_counter()
    _, meta = manager.view(sid)
    cold = time.perf_counter() - start
    assert not meta["cache_hit"]

    # Forked sessions replay the same feedback; their solves are cache hits.
    warm_samples = []
    for _ in range(5):
        fork = _session_with_clusters(manager, rows)
        start = time.perf_counter()
        _, meta = manager.view(fork)
        warm_samples.append(time.perf_counter() - start)
        assert meta["cache_hit"]
    warm = min(warm_samples)

    speedup = cold / warm
    bench_counters(
        cold_solve_ms=cold * 1e3,
        cached_view_ms=warm * 1e3,
        cache_speedup=speedup,
    )
    report_sink(
        f"service/cache: cold solve {cold * 1e3:.2f} ms, cached view "
        f"{warm * 1e3:.2f} ms -> {speedup:.1f}x "
        f"(stats: {manager.cache.stats()})"
    )
    assert speedup >= 5.0, (
        f"cache-hit views only {speedup:.1f}x faster than cold solves"
    )


def test_http_requests_per_second(benchmark, report_sink, bench_counters):
    """End-to-end JSON-over-HTTP throughput with a warm cache."""
    manager, rows = _x5_manager()
    server = start_background(ServiceAPI(manager))
    try:
        client = ServiceClient(server.base_url)
        sid = _session_with_clusters(manager, rows)
        client.view(sid)  # warm the solve cache and the connection path

        n_requests = 50

        def burst():
            for _ in range(n_requests):
                client.view(sid)
            return n_requests

        start = time.perf_counter()
        benchmark.pedantic(burst, rounds=1, iterations=1)
        elapsed = time.perf_counter() - start
        rps = n_requests / elapsed
        bench_counters(http_requests_per_second=rps)
        report_sink(
            f"service/http: {n_requests} view requests in {elapsed:.3f} s "
            f"-> {rps:.0f} req/s (single client, warm cache)"
        )
        assert rps > 10, f"service unreasonably slow: {rps:.1f} req/s"
    finally:
        server.stop()


def test_cold_vs_cached_over_http(report_sink):
    """The cache advantage survives the HTTP layer."""
    manager, rows = _x5_manager()
    server = start_background(ServiceAPI(manager))
    try:
        client = ServiceClient(server.base_url)

        sid = _session_with_clusters(manager, rows)
        start = time.perf_counter()
        cold_view = client.view(sid)
        cold = time.perf_counter() - start
        assert cold_view["cache_hit"] is False

        warm_samples = []
        for _ in range(5):
            fork = _session_with_clusters(manager, rows)
            start = time.perf_counter()
            warm_view = client.view(fork)
            warm_samples.append(time.perf_counter() - start)
            assert warm_view["cache_hit"] is True
        warm = min(warm_samples)

        report_sink(
            f"service/http-cache: cold {cold * 1e3:.2f} ms, "
            f"cached {warm * 1e3:.2f} ms over HTTP "
            f"({cold / warm:.1f}x)"
        )
        # HTTP adds a constant overhead to both paths; the cached request
        # must still win clearly.
        assert warm < cold
    finally:
        server.stop()
