"""Walkthrough: the obs v2 operations loop — history, SLOs, top.

Runs a live server with the full observability stack on, drives traffic
at it, and then walks the three surfaces an operator actually uses:

1. **metrics history** — ``GET /v1/metrics/history`` returns the ring
   buffer the in-process recorder filled during the run, with rates and
   windowed latency quantiles derived server-side;
2. **SLOs** — ``GET /v1/health`` grades the run against the paper's
   interactivity budget; the same samples are then re-graded against a
   deliberately impossible budget to show what ``violating`` looks like
   (this is what ``repro slo check`` exits nonzero on);
3. **the dashboard** — one plain-text ``repro top`` frame rendered from
   two scrapes, plus a shard-merge demo: two registries merged into the
   fleet-wide view ``repro top`` would show behind a load balancer.

Run with::

    PYTHONPATH=src python examples/ops_dashboard.py
"""

from __future__ import annotations

import time

from repro import obs
from repro.datasets import x5
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import default_slos, evaluate_samples
from repro.obs.top import Dashboard
from repro.service import (
    ServiceAPI,
    ServiceClient,
    SessionManager,
    start_background,
)


def drive_traffic(client: ServiceClient, rounds: int = 6) -> None:
    # Twin sessions walk identical belief states, so the second one's
    # solves land in the shared solve cache — the cache-hit SLO needs
    # real hits to grade.
    sids = [client.create_session("x5", standardize=True) for _ in range(2)]
    for i in range(rounds):
        for sid in sids:
            client.view(sid)
            client.mark_cluster(sid, [i, i + 1, i + 2], label=f"blob-{i}")
    for sid in sids:
        client.view(sid)
        client.delete_session(sid)


def main() -> None:
    # enable_slos switches on the whole v2 stack over the door's
    # registry, as `repro serve --obs` does: the history recorder (0.2 s
    # cadence here so a short example fills the buffer), the SLO engine
    # behind /v1/health, and the extended endpoints.
    state = obs.configure()
    bundle = x5(seed=0)
    door = ServiceAPI(SessionManager({"x5": bundle.data}))
    state.enable_slos(door.metrics_registry, history_interval=0.2)
    server = start_background(door)
    client = ServiceClient(server.base_url)
    print(f"server up on {server.base_url} (obs v2 on)")

    drive_traffic(client)
    time.sleep(0.5)  # let the recorder take post-traffic samples

    # --- 1. the metrics time-series ------------------------------------
    history = client.metrics_history()
    samples = history["samples"]
    derived = history["derived"]
    print(f"\nhistory: {len(samples)} samples at "
          f"{history['interval_seconds']}s cadence; derived over "
          f"{derived['window_seconds']:.1f}s window:")
    busy = sorted(
        derived["counters"].items(),
        key=lambda kv: kv[1]["rate"], reverse=True,
    )
    for key, stats in busy[:3]:
        print(f"  {key}: {stats['rate']:.1f}/s "
              f"(+{stats['increase']:.0f})")
    for key, stats in sorted(derived["histograms"].items()):
        if stats["count"]:
            print(f"  {key}: p99 {stats['p99'] * 1e3:.1f} ms "
                  f"over {stats['count']:.0f} obs")

    # --- 2. SLOs: healthy, then a forced breach ------------------------
    health = client.health()
    print(f"\nhealth: {health['status']}")
    for row in health["slos"]:
        long = row["long"]
        print(f"  {row['name']:<18} {row['status']:<9} "
              f"burn={long['burn']:.2f}")

    # Re-grade the same recorded samples against a 1 ms latency budget —
    # the exact check `repro slo check --view-p99-budget 0.001` runs.
    broken = evaluate_samples(
        state.history.window(), default_slos(view_p99_budget=0.001)
    )
    names = [r["name"] for r in broken["slos"] if r["status"] == "violating"]
    print(f"  ...with a 1 ms budget the report flips to "
          f"'{broken['status']}' ({', '.join(names)})")

    # --- 3. one `repro top` frame, then the shard-merge view -----------
    dash = Dashboard(color=False)
    dash.add(client.metrics()["families"], client.health())
    drive_traffic(client, rounds=2)
    dash.add(client.metrics()["families"], client.health())
    print("\n" + dash.render(url=server.base_url))

    # Behind a load balancer each shard serves its own /v1/metrics; the
    # snapshots merge commutatively into the fleet-wide registry:
    # counters and histograms *sum*, gauges keep a per-source label so
    # point-in-time values are never averaged away.
    fleet = MetricsRegistry()
    for shard, requests, sessions in (("a", 3, 2), ("b", 5, 7)):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_requests_total", "requests", labelnames=("route",)
        )
        counter.labels(route="GET /v1/health").inc(requests)
        gauge = registry.gauge("repro_sessions_in_memory", "live sessions")
        gauge.default().set(sessions)
        fleet.merge(registry.to_snapshot(source=f"shard-{shard}"))
    merged = fleet.render_json()
    total = sum(
        s["value"] for s in merged["repro_requests_total"]["samples"]
    )
    gauges = {
        dict(s["labels"])["source"]: s["value"]
        for s in merged["repro_sessions_in_memory"]["samples"]
    }
    print(f"shard merge: {total:.0f} requests fleet-wide (counters sum), "
          f"sessions per shard: {gauges} (gauges stay labeled)")

    server.stop()
    obs.disable()


if __name__ == "__main__":
    main()
