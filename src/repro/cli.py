"""Command-line interface: run experiments and inspect datasets.

Usage (after install)::

    python -m repro list                       # what can be run
    python -m repro experiment table1         # regenerate one table/figure
    python -m repro experiment all            # regenerate everything
    python -m repro dataset x5                 # describe a dataset
    python -m repro objectives                 # registered view objectives
    python -m repro explore x5 --rounds 2      # scripted exploration demo
    python -m repro explore --policy surprise --dataset three-d \\
        --rounds 5 --trace t.jsonl             # autonomous exploration
    python -m repro explore --replay t.jsonl   # verify a recorded trace
    python -m repro serve --port 8000          # multi-tenant session service
    python -m repro serve --store sqlite:sessions.db --fsync batch  # durable
    python -m repro serve --obs --obs-log events.jsonl  # ... with tracing
    python -m repro store verify sqlite:sessions.db     # integrity sweep
    python -m repro store inspect sqlite:sessions.db    # sessions + log tails
    python -m repro store compact sqlite:sessions.db    # fold logs offline
    python -m repro loadgen --sessions 8       # policy-driven load generator
    python -m repro loadgen --obs              # ... + server-side metrics
    python -m repro trace events.jsonl         # analyze a request-event log
    python -m repro bench --quick              # vectorized-core benchmarks
    python -m repro slo check --url http://127.0.0.1:8000  # gate SLOs (CI)
    python -m repro top --url http://127.0.0.1:8000        # live dashboard

The CLI is a thin veneer over :mod:`repro.experiments` and
:mod:`repro.datasets`; everything it prints is available programmatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import numpy as np

from repro.core.session import ExplorationSession
from repro.datasets import (
    bnc_surrogate,
    cytometry_surrogate,
    segmentation_surrogate,
    three_d_clusters,
    x5,
)
from repro.experiments import (
    fig1_loop,
    fig2_synthetic3d,
    fig3_x5_structure,
    fig5_convergence,
    fig6_whitening,
    fig7_bnc_first_view,
    fig8_bnc_iterations,
    fig9_segmentation,
    table1_ica_scores,
    table2_runtime,
)
from repro.explore.policies import policy_names
from repro.feedback import ClusterFeedback
from repro.projection import registry

#: Experiment registry: name -> callable returning an object with
#: ``format_table()``.
EXPERIMENTS: dict[str, Callable[[], object]] = {
    "fig1": lambda: fig1_loop.run(),
    "fig2": lambda: fig2_synthetic3d.run(),
    "fig3": lambda: fig3_x5_structure.run(),
    "table1": lambda: table1_ica_scores.run(),
    "fig5": lambda: fig5_convergence.run(),
    "fig6": lambda: fig6_whitening.run(),
    "table2": lambda: table2_runtime.run(),
    "fig7": lambda: fig7_bnc_first_view.run()[0],
    "fig8": lambda: fig8_bnc_iterations.run(),
    "fig9": lambda: fig9_segmentation.run(),
}

#: Dataset registry: name -> zero-argument constructor.
DATASETS: dict[str, Callable[[], object]] = {
    "three-d": lambda: three_d_clusters(seed=0),
    "x5": lambda: x5(seed=0),
    "bnc": lambda: bnc_surrogate(seed=0),
    "segmentation": lambda: segmentation_surrogate(seed=0),
    "cytometry": lambda: cytometry_surrogate(seed=0),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIDER reproduction: experiments, datasets, exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and datasets")

    exp = sub.add_parser("experiment", help="run an experiment harness")
    exp.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"], help="which experiment"
    )

    data = sub.add_parser("dataset", help="describe a dataset")
    data.add_argument("name", choices=sorted(DATASETS))

    sub.add_parser("objectives", help="list registered view objectives")

    explore = sub.add_parser(
        "explore",
        help="scripted exploration demo / autonomous policy runs",
    )
    explore.add_argument("name", nargs="?", choices=sorted(DATASETS))
    explore.add_argument(
        "--dataset",
        choices=sorted(DATASETS),
        default=None,
        help="dataset to explore (alternative to the positional name)",
    )
    explore.add_argument("--rounds", type=int, default=2)
    # Choices come from the objective registry, so objectives registered by
    # user code (e.g. via a sitecustomize or plugin import) show up here.
    explore.add_argument(
        "--objective", choices=registry.names(), default="pca"
    )
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--policy",
        choices=policy_names(),
        default=None,
        help="run autonomously with this exploration policy",
    )
    explore.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the run as a replayable JSONL trace",
    )
    explore.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="replay a recorded trace and verify its knowledge curve",
    )
    explore.add_argument(
        "--url",
        default=None,
        help="replay against a running service instead of in-process",
    )
    explore.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        metavar="NATS",
        help="absolute per-point slack when verifying a replayed knowledge "
        "curve (0 = bit-for-bit; use a small value when replaying "
        "warm-start traces against a server)",
    )
    explore.add_argument(
        "--warm-start",
        action="store_true",
        help="seed each refit from the previous solve (incremental path)",
    )
    explore.add_argument(
        "--plateau-nats",
        type=float,
        default=None,
        metavar="NATS",
        help="also stop after 2 rounds gaining less than NATS of knowledge",
    )
    explore.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="also stop once the run exceeds this wall-clock budget",
    )

    loadgen = sub.add_parser(
        "loadgen", help="drive concurrent policy sessions against a service"
    )
    loadgen.add_argument(
        "--url",
        default=None,
        help="service base URL (default: start a temporary in-process server)",
    )
    loadgen.add_argument("--sessions", type=int, default=8)
    loadgen.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread-pool size (default: min(sessions, 8))",
    )
    loadgen.add_argument(
        "--policy",
        action="append",
        choices=policy_names(),
        default=None,
        help="policy name; repeat to mix (round-robin over sessions)",
    )
    loadgen.add_argument(
        "--dataset",
        action="append",
        choices=sorted(DATASETS),
        default=None,
        help="dataset name; repeat to mix (default: all served datasets)",
    )
    loadgen.add_argument("--rounds", type=int, default=3)
    loadgen.add_argument(
        "--objective", choices=registry.names(), default="pca"
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--output",
        default="BENCH_loadgen.json",
        metavar="PATH",
        help="where to write the JSON report",
    )
    loadgen.add_argument(
        "--obs",
        action="store_true",
        help="enable observability (on the temporary server, or scrape an "
        "external one) and cross-check server-side /v1/metrics latency "
        "histograms against the client-side percentiles",
    )
    loadgen.add_argument(
        "--obs-log",
        default=None,
        metavar="PATH",
        help="with --obs and a temporary server: write the structured "
        "JSONL request-event log here (implies --obs)",
    )
    loadgen.add_argument(
        "--scrape-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="with --obs: scrape /v1/metrics this often during the run "
        "and record the series in the report (0 disables; default 0.5)",
    )
    loadgen.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="send X-Repro-Deadline-Ms on every request; shed and "
        "deadline-exceeded responses land in the report's resilience "
        "counters",
    )
    loadgen.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="client-side fault injection, e.g. "
        "'client.request:error:p=0.05' (grammar: point:kind[:k=v...]); "
        "exercises retries and the circuit breaker",
    )
    loadgen.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="seed for --chaos fault draws (reproducible fault trains)",
    )
    loadgen.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        metavar="N",
        help="without --url: run the temporary server sharded over N "
        "worker processes (sticky session routing over a shared "
        "temporary sqlite store)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the vectorized-kernel benchmark suites, write BENCH_*.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (seconds, not minutes)",
    )
    bench.add_argument(
        "--suite",
        default="all",
        choices=("all", "core_solver", "projection", "store", "obs",
                 "resilience", "service"),
        help="which kernel suite to run (default: all)",
    )
    bench.add_argument(
        "--output-dir",
        default=".",
        metavar="DIR",
        help="where to write BENCH_<suite>.json artifacts",
    )
    bench.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="fail if vectorized timings regress past the baselines file "
        "(e.g. benchmarks/baselines.json)",
    )
    bench.add_argument(
        "--refresh-existing",
        action="store_true",
        help="also re-run the pytest benchmark smoke suites to refresh "
        "their BENCH_*.json artifacts",
    )
    bench.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", help="run the HTTP session service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard the service over N worker processes behind a sticky "
        "session router (default: 1 = single process); pair with --store "
        "for rebalancing of a dead worker's sessions onto survivors",
    )
    serve.add_argument(
        "--l2-cache",
        default=None,
        metavar="PATH",
        help="SQLite file for the shared cross-process solve-cache tier "
        "(default with --workers > 1: a temporary file all workers "
        "share; single-process: no L2)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help="session store URL: sqlite:PATH (durable: checkpoints + "
        "write-ahead log) or memory: (default)",
    )
    serve.add_argument(
        "--fsync",
        default="batch",
        choices=("always", "batch", "off"),
        help="durability of write-ahead appends on a sqlite: store "
        "(default: batch)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="in-memory sessions before LRU eviction",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="expire sessions idle longer than this many seconds",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        help="solve-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--obs",
        action="store_true",
        help="enable request tracing and the /v1/metrics endpoint",
    )
    serve.add_argument(
        "--obs-log",
        default=None,
        metavar="PATH",
        help="write structured request events to this JSONL file "
        "(implies --obs)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help="requests slower than this carry full span detail in the "
        "event log",
    )
    serve.add_argument(
        "--obs-rotate-mb",
        type=float,
        default=None,
        metavar="MB",
        help="rotate the --obs-log event file once it reaches this size "
        "(numeric .N suffixes; repro trace spans rotations)",
    )
    serve.add_argument(
        "--history-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="with --obs: metrics time-series recording cadence for "
        "/v1/metrics/history (default: 1s)",
    )
    serve.add_argument(
        "--history-capacity",
        type=int,
        default=600,
        metavar="SAMPLES",
        help="with --obs: ring-buffer retention in samples (default: 600)",
    )
    serve.add_argument(
        "--view-p99-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --obs: p99 view-latency SLO ceiling (default: the "
        "paper's interactivity budget)",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="start the sampling stack profiler (collapsed stacks at "
        "/v1/profile; slow requests carry a profile excerpt)",
    )
    serve.add_argument(
        "--profile-hz",
        type=float,
        default=100.0,
        metavar="HZ",
        help="profiler sampling rate (default: 100)",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline applied when the client sends no "
        "X-Repro-Deadline-Ms header; expired requests answer 503 "
        "deadline_exceeded (default: none)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission-control concurrency limit; excess requests are "
        "shed with 503 overloaded + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--drain-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="graceful-drain budget on SIGTERM or POST /v1/admin/drain: "
        "how long to wait for in-flight requests before checkpointing "
        "and exiting (default: 10)",
    )

    store_cmd = sub.add_parser(
        "store",
        help="inspect, verify, or compact a session store",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser(
        "inspect", help="summarise sessions, checkpoints, and log tails"
    )
    verify = store_sub.add_parser(
        "verify",
        help="integrity sweep: checkpoints parse, log tails are contiguous "
        "with valid checksums (exit 1 on any damage)",
    )
    verify.add_argument(
        "--policy",
        choices=("fail", "truncate"),
        default="fail",
        help="fail: any damage is an error (default); truncate: report "
        "what recovery would drop instead",
    )
    compact = store_sub.add_parser(
        "compact",
        help="fold feedback-log tails into fresh checkpoints offline",
    )
    compact.add_argument(
        "--session",
        default=None,
        metavar="ID",
        help="compact just this session (default: every session with a "
        "log tail)",
    )
    for store_action in (inspect, verify, compact):
        store_action.add_argument(
            "url",
            metavar="URL",
            help="durable store URL: sqlite:PATH",
        )
        store_action.add_argument(
            "--json",
            action="store_true",
            help="print the full report as JSON",
        )

    trace = sub.add_parser(
        "trace",
        help="analyze a structured request-event log (REPRO_OBS_LOG)",
    )
    trace.add_argument(
        "log", metavar="PATH", help="JSONL event log written by the service"
    )
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many slowest requests to list (default: 10)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON instead of the table",
    )

    slo = sub.add_parser(
        "slo",
        help="evaluate service-level objectives over retained metrics",
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_sub.add_parser(
        "check",
        help="evaluate SLOs against a live server or a saved history; "
        "exit 1 when violated (CI gate)",
    )
    slo_check.add_argument(
        "--url",
        default=None,
        help="fetch /v1/metrics/history from this running service",
    )
    slo_check.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="evaluate a saved history instead: a /v1/metrics/history "
        "JSON dump, a bare sample list, or a BENCH_loadgen.json with a "
        "recorded obs series",
    )
    slo_check.add_argument(
        "--objective",
        action="append",
        default=None,
        metavar="NAME",
        help="gate only this objective (repeatable; unknown names fail); "
        "named objectives with no data also fail",
    )
    slo_check.add_argument(
        "--view-p99-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the p99 view-latency ceiling (default: the "
        "paper's interactivity budget)",
    )
    slo_check.add_argument(
        "--error-rate",
        type=float,
        default=0.01,
        metavar="RATIO",
        help="5xx-per-request ceiling (default: 0.01)",
    )
    slo_check.add_argument(
        "--cache-hit-floor",
        type=float,
        default=0.10,
        metavar="RATIO",
        help="windowed solve-cache hit-rate floor (default: 0.10)",
    )
    slo_check.add_argument(
        "--short-window", type=float, default=60.0, metavar="SECONDS"
    )
    slo_check.add_argument(
        "--long-window", type=float, default=300.0, metavar="SECONDS"
    )
    slo_check.add_argument(
        "--strict",
        action="store_true",
        help="also exit 1 on degraded (short-window) breaches",
    )
    slo_check.add_argument(
        "--json",
        action="store_true",
        help="print the full SLO report as JSON",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over /v1/metrics + /v1/health",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8000",
        help="service base URL (default: http://127.0.0.1:8000)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll/refresh interval (default: 2s)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    return parser


def cmd_list() -> int:
    print("experiments:", ", ".join(sorted(EXPERIMENTS)), "(or: all)")
    print("datasets:   ", ", ".join(sorted(DATASETS)))
    print("objectives: ", ", ".join(registry.names()))
    return 0


def cmd_objectives() -> int:
    width = max(len(row["name"]) for row in registry.describe())
    for row in registry.describe():
        print(f"{row['name']:<{width}}  {row['description']}")
    return 0


def cmd_experiment(name: str) -> int:
    names = sorted(EXPERIMENTS) if name == "all" else [name]
    for item in names:
        result = EXPERIMENTS[item]()
        print(result.format_table())  # type: ignore[attr-defined]
        print()
    return 0


def cmd_dataset(name: str) -> int:
    bundle = DATASETS[name]()
    print(f"name:     {bundle.name}")
    print(f"shape:    {bundle.data.shape}")
    print(f"features: {', '.join(bundle.feature_names[:10])}"
          + (" ..." if bundle.dim > 10 else ""))
    if bundle.labels is not None:
        classes = bundle.class_names()
        counts = {c: int(np.sum(bundle.labels == c)) for c in classes}
        print(f"classes:  {counts}")
    keys = [k for k in bundle.metadata if k != "seed"]
    if keys:
        print(f"metadata: {', '.join(keys)}")
    return 0


def cmd_explore(name: str, rounds: int, objective: str, seed: int) -> int:
    bundle = DATASETS[name]()
    if bundle.labels is None:
        print("dataset has no labels to script the feedback with", file=sys.stderr)
        return 1
    session = ExplorationSession(
        bundle.data, objective=objective, standardize=True, seed=seed
    )
    print(f"exploring {bundle.name} ({bundle.data.shape}) with {objective}")
    classes = bundle.class_names()
    for round_index in range(rounds):
        view = session.current_view()
        top = float(np.max(np.abs(view.scores)))
        print(f"round {round_index}: top |score| {top:.4f}")
        print("  " + view.axis_label(0, feature_names=list(bundle.feature_names)))
        if round_index < len(classes):
            rows = bundle.rows_with_label(classes[round_index])
            session.apply(
                ClusterFeedback(
                    rows=rows,
                    label=str(classes[round_index]),
                )
            )
            print(
                f"  marked class {classes[round_index]!r} "
                f"({rows.size} points) as a cluster"
            )
    final = session.current_view()
    print(f"final top |score| {float(np.max(np.abs(final.scores))):.4f}")
    return 0


def cmd_explore_policy(
    dataset: str,
    policy_name: str,
    rounds: int,
    objective: str,
    seed: int,
    trace_path: str | None,
    warm_start: bool,
    plateau_nats: float | None,
    max_seconds: float | None,
) -> int:
    """Autonomous exploration: a policy plays the user, headlessly."""
    from repro.explore import (
        InProcessDriver,
        KnowledgeGainPlateau,
        WallClockBudget,
        make_policy,
        run_exploration,
        save_trace,
    )

    bundle = DATASETS[dataset]()
    session = ExplorationSession(
        bundle.data,
        objective=objective,
        standardize=True,
        seed=seed,
        warm_start=warm_start,
    )
    driver = InProcessDriver(
        session,
        info={
            "dataset": dataset,
            "standardize": True,
            "session_seed": seed,
            "warm_start": warm_start,
        },
    )
    stopping = []
    if plateau_nats is not None:
        stopping.append(KnowledgeGainPlateau(min_gain_nats=plateau_nats))
    if max_seconds is not None:
        stopping.append(WallClockBudget(max_seconds=max_seconds))
    print(
        f"exploring {bundle.name} ({bundle.data.shape}) with "
        f"policy {policy_name!r}, objective {objective!r}, seed {seed}"
    )
    result = run_exploration(
        make_policy(policy_name),
        driver,
        rounds=rounds,
        stopping=stopping,
        seed=seed,
    )
    for record in result.rounds:
        kinds = ", ".join(type(fb).kind for fb in record.feedback) or "(none)"
        print(
            f"round {record.index}: objective {record.objective}, "
            f"top |score| {record.top_score:.4f}, feedback {kinds}, "
            f"knowledge {record.knowledge_nats:.3f} nats"
        )
    curve = result.knowledge_curve()
    print(f"knowledge curve (nats): {[round(k, 3) for k in curve]}")
    print(f"stopped by: {result.stopped_by}")
    if trace_path:
        save_trace(result, trace_path)
        print(f"trace written to {trace_path}")
    return 0


def cmd_explore_replay(
    trace_path: str, url: str | None, tolerance: float = 0.0
) -> int:
    """Replay a recorded trace and verify the knowledge curve matches."""
    from repro.explore import (
        in_process_driver_for,
        load_trace,
        remote_driver_for,
        replay_trace,
    )

    trace = load_trace(trace_path)
    dataset = trace.session_info.get("dataset")
    if url is not None:
        from repro.service import ServiceClient

        driver = remote_driver_for(trace, ServiceClient(url))
        where = url
    else:
        if dataset not in DATASETS:
            print(
                f"trace names unknown dataset {dataset!r}; "
                f"known: {sorted(DATASETS)}",
                file=sys.stderr,
            )
            return 1
        driver = in_process_driver_for(trace, DATASETS[dataset]().data)
        where = "in-process"
    result = replay_trace(trace, driver, tolerance=tolerance)
    print(f"replaying {trace_path} ({len(trace.rounds)} rounds, {where})")
    print(f"recorded curve: {[round(k, 3) for k in result.expected_curve]}")
    print(f"replayed curve: {[round(k, 3) for k in result.actual_curve]}")
    if result.matches:
        print("replay matches: identical feedback labels and knowledge curve")
        return 0
    print(f"replay MISMATCH: {result.mismatches}", file=sys.stderr)
    return 1


def cmd_loadgen(
    url: str | None,
    sessions: int,
    workers: int | None,
    policies: list[str] | None,
    datasets: list[str] | None,
    rounds: int,
    objective: str,
    seed: int,
    output: str,
    obs_enabled: bool = False,
    obs_log: str | None = None,
    scrape_interval: float = 0.5,
    deadline_ms: float | None = None,
    chaos_spec: str | None = None,
    chaos_seed: int | None = None,
    serve_workers: int = 1,
) -> int:
    """Policy-driven concurrent workload against a (possibly temp) server."""
    from repro.explore import (
        LoadGenConfig,
        format_report,
        run_loadgen,
        write_report,
    )

    obs_enabled = obs_enabled or obs_log is not None
    configured_obs = False
    if obs_enabled and url is None:
        # The temporary server runs in this process, so observability can
        # be switched on right here; against an external URL the server
        # operator controls it and loadgen only scrapes.
        from repro import obs as obs_module

        obs_module.configure(event_log=obs_log)
        configured_obs = True
    elif obs_log is not None:
        print(
            "--obs-log only applies to the temporary in-process server; "
            "an external server writes its own event log",
            file=sys.stderr,
        )
    server = runtime = None
    if url is None:
        from repro.service import ReproServer, ServiceAPI, SessionManager

        if serve_workers > 1:
            import os
            import tempfile

            from repro.service.router import start_fleet
            from repro.service.worker import WorkerConfig

            runtime = tempfile.TemporaryDirectory(prefix="repro-loadgen-shard-")
            runtime_dir = runtime.name
            print(
                f"starting temporary sharded service ({serve_workers} "
                "workers) ..."
            )
            door = start_fleet(
                serve_workers,
                WorkerConfig(
                    store_url=f"sqlite:{os.path.join(runtime_dir, 'store.db')}",
                    l2_cache_path=os.path.join(runtime_dir, "solve-cache.db"),
                    obs=obs_enabled,
                ),
                runtime_dir,
                dataset_names=sorted(DATASETS),
            )
        else:
            door = ServiceAPI(SessionManager(DATASETS))
        server = ReproServer(door, port=0).start_background()
        url = server.base_url
        print(f"started temporary service on {url}")
    try:
        config = LoadGenConfig(
            url=url,
            sessions=sessions,
            workers=workers,
            policies=tuple(policies or ("objective-sweep",)),
            datasets=tuple(datasets) if datasets else None,
            rounds=rounds,
            objective=objective,
            seed=seed,
            obs=obs_enabled,
            scrape_interval=scrape_interval,
            deadline_ms=deadline_ms,
            chaos=chaos_spec,
            chaos_seed=chaos_seed,
        )
        print(
            f"loadgen: {config.sessions} session(s) x {config.rounds} "
            f"round(s), {config.resolved_workers()} worker(s), "
            f"policies {list(config.policies)}"
        )
        if chaos_spec:
            print(f"chaos: {chaos_spec}")
        report = run_loadgen(config)
    finally:
        if server is not None:
            server.stop()
            server.api.close()
        if runtime is not None:
            runtime.cleanup()
        if configured_obs:
            from repro import obs as obs_module

            obs_module.disable()
    print(format_report(report))
    path = write_report(report, output)
    print(f"report written to {path}")
    if obs_log is not None and configured_obs:
        print(f"event log written to {obs_log} (analyze: repro trace {obs_log})")
    return 0 if report.totals["sessions_failed"] == 0 else 1


def cmd_bench(
    quick: bool,
    output_dir: str,
    check: str | None,
    refresh: bool,
    seed: int,
    suite: str = "all",
) -> int:
    """Run the vectorized-kernel benchmark suites; optionally gate on baselines."""
    from repro.bench import (
        SUITES,
        check_baselines,
        format_payload,
        refresh_existing,
        write_payload,
    )

    names = list(SUITES) if suite == "all" else [suite]
    failures: list[str] = []
    for name in names:
        payload = SUITES[name](quick=quick, seed=seed)
        print(format_payload(payload))
        path = write_payload(payload, output_dir)
        print(f"bench artifact: {path}")
        if check is not None:
            failures.extend(check_baselines(payload, check))

    status = 0
    if refresh:
        print("refreshing pytest benchmark artifacts ...")
        status = refresh_existing(output_dir)
    if check is not None:
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"baselines ok ({check})")
    return status


#: ``repro serve`` options that set up the process running the requests
#: beyond what a :class:`~repro.service.worker.WorkerConfig` carries.
#: With ``--workers N`` the workers run the requests, so these options
#: are refused rather than silently ignored.
_SINGLE_PROCESS_OPTIONS = (
    "profile",
    "profile_hz",
    "obs_rotate_mb",
    "history_interval",
    "history_capacity",
    "view_p99_budget",
)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: one front door, over this process or N workers."""
    import os
    import signal
    import tempfile
    from dataclasses import replace

    from repro import obs
    from repro.resilience import chaos
    from repro.resilience.admission import AdmissionController
    from repro.resilience.drain import DEFAULT_DRAIN_BUDGET, drain_budget_seconds
    from repro.service import ReproServer, serve
    from repro.service.router import WorkerDiedError, start_fleet
    from repro.service.store import StoreError
    from repro.service.worker import WorkerConfig, build_worker_api
    from repro.store import store_from_url

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    defaults = build_parser().parse_args(["serve"])
    given = [
        "--" + option.replace("_", "-")
        for option in _SINGLE_PROCESS_OPTIONS
        if getattr(args, option) != getattr(defaults, option)
    ]
    if args.workers > 1 and given:
        print(
            f"{', '.join(given)}: single-process only, not supported "
            f"with --workers {args.workers}",
            file=sys.stderr,
        )
        return 2
    try:
        drain_budget = drain_budget_seconds(
            DEFAULT_DRAIN_BUDGET if args.drain_budget is None else args.drain_budget
        )
    except ValueError as exc:
        print(f"--drain-budget: {exc}", file=sys.stderr)
        return 2
    if args.store is not None:
        # Open the store here, where a bad URL gets a readable error:
        # workers failing to open it would only report "never ready".
        try:
            store_from_url(args.store, fsync=args.fsync).close()
        except StoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    obs_enabled = args.obs or args.obs_log is not None
    config = WorkerConfig(
        store_url=args.store,
        fsync=args.fsync,
        cache_size=args.cache_size,
        l2_cache_path=args.l2_cache,
        max_sessions=args.max_sessions,
        ttl_seconds=args.ttl,
        default_deadline_ms=args.default_deadline_ms,
        obs=obs_enabled,
        obs_log=args.obs_log,
        slow_ms=args.slow_ms,
    )
    admission = AdmissionController(max_inflight=args.max_inflight)
    runtime = None
    if args.workers == 1:
        # This process runs the requests, so it gets their whole set-up.
        if obs_enabled:
            from repro.obs.slo import default_slos

            obs.configure(
                event_log=args.obs_log,
                slow_ms=args.slow_ms,
                event_log_max_bytes=(
                    int(args.obs_rotate_mb * 1024 * 1024)
                    if args.obs_rotate_mb and args.obs_log else None
                ),
                slos=default_slos(**(
                    {"view_p99_budget": args.view_p99_budget}
                    if args.view_p99_budget is not None else {}
                )),
                history_interval=args.history_interval,
                history_capacity=args.history_capacity,
            )
            print(
                "observability: tracing on, metrics at /v1/metrics, history "
                "at /v1/metrics/history, SLOs in /v1/health"
                + (f", events -> {args.obs_log}" if args.obs_log else "")
            )
        if args.profile:
            obs.start_profiler(interval=1.0 / args.profile_hz)
            print(
                f"profiler: sampling at {args.profile_hz:g} Hz, collapsed "
                "stacks at /v1/profile"
            )
        chaos_registry = chaos.configure_from_env(os.environ)
        if chaos_registry is not None:
            print(
                "CHAOS INJECTION ACTIVE (REPRO_CHAOS): "
                + "; ".join(str(f.to_dict()) for f in chaos_registry.faults)
            )
        door = build_worker_api(
            config, admission=admission, drain_budget=drain_budget
        )
    else:
        # The workers run the requests and set themselves up from the
        # config (worker_main); this process only counts what it sheds.
        if obs_enabled:
            obs.configure(slow_ms=args.slow_ms)
        # Worker sockets and the default L2 cache; removed once the
        # workers have stopped.
        runtime = tempfile.TemporaryDirectory(prefix="repro-shard-")
        runtime_dir = runtime.name
        if config.cache_size > 0 and config.l2_cache_path is None:
            config = replace(
                config,
                l2_cache_path=os.path.join(runtime_dir, "solve-cache.db"),
            )
        print(
            f"starting {args.workers} worker process(es): sticky session "
            "routing, "
            + (
                "rebalance + recovery on worker death"
                if config.store_url is not None
                else "static ring (no shared store: sessions die with "
                "their worker)"
            )
        )
        try:
            door = start_fleet(
                args.workers,
                config,
                runtime_dir,
                admission=admission,
                drain_budget=drain_budget,
                dataset_names=sorted(DATASETS),
            )
        except WorkerDiedError as exc:
            runtime.cleanup()
            print(f"failed to start worker pool: {exc}", file=sys.stderr)
            return 2

    server = ReproServer(door, host=args.host, port=args.port, quiet=False)
    print(f"repro service on http://{args.host}:{server.server_address[1]}")
    print("routes: /v1/...")
    print(f"datasets:   {', '.join(sorted(DATASETS))}")
    print(f"objectives: {', '.join(registry.names())}")
    if args.store is not None:
        print(f"store: {args.store}, fsync={args.fsync}")
    if config.cache_size > 0 and config.l2_cache_path:
        print(
            f"solve cache: L1 {config.cache_size} entries per process + "
            f"shared L2 at {config.l2_cache_path}"
        )
    if args.max_inflight is not None or args.default_deadline_ms is not None:
        print(
            "resilience: "
            f"max-inflight={args.max_inflight or 'unbounded'}, "
            f"default-deadline-ms={args.default_deadline_ms or 'none'}, "
            f"drain-budget={drain_budget:g}s"
        )

    def stop_serving() -> None:
        # Fired once the drain's report is published: print it before
        # the serve loop stops, since the process exits right after.
        report = door.last_drain
        print(
            f"drained: {report['checkpointed']} session(s) checkpointed, "
            f"{report['abandoned_inflight']} request(s) abandoned, "
            f"{report['elapsed_seconds']:.2f}s elapsed"
        )
        server.shutdown()

    def handle_sigterm(signum, frame) -> None:
        # Graceful drain on its own thread (start_drain): stop admitting,
        # let in-flight requests finish inside the budget, checkpoint,
        # then stop_serving.  server.shutdown() would deadlock if called
        # from a signal handler interrupting serve_forever's poll loop.
        print(f"SIGTERM: draining (budget {drain_budget:g}s) ...")
        door.start_drain()

    door.shutdown_hook = stop_serving
    try:
        previous = signal.signal(signal.SIGTERM, handle_sigterm)
    except ValueError:
        previous = None  # not the main thread (embedded use); no handler
    try:
        serve(server, on_shutdown=door.close)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        if runtime is not None:
            runtime.cleanup()
    return 0


def cmd_store(
    action: str,
    url: str,
    as_json: bool = False,
    policy: str = "fail",
    session: str | None = None,
) -> int:
    """``repro store inspect|verify|compact`` — offline store tooling."""
    import json

    from repro.service.store import SessionNotFoundError, StoreError
    from repro.store import (
        FeedbackLogStore,
        compact_offline,
        store_from_url,
        verify_store,
    )

    try:
        store = store_from_url(url)
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not isinstance(store, FeedbackLogStore):
        print(
            f"{url} has no feedback log (not a durable store); expected "
            "sqlite:PATH",
            file=sys.stderr,
        )
        return 2

    if action == "inspect":
        sessions = {}
        for sid in store.list_ids():
            try:
                payload = store.get(sid)
                info = {
                    "checkpointed": True,
                    "dataset": payload.get("dataset"),
                    "checkpoint_wal_seq": int(payload.get("wal_seq", 0)),
                }
            except SessionNotFoundError:
                info = {"checkpointed": False}
            except StoreError as exc:
                info = {"checkpointed": False, "error": str(exc)}
            tail, damage = store.feedback_tail(
                sid, after_seq=info.get("checkpoint_wal_seq", 0)
            )
            info["tail_records"] = len(tail)
            info["last_seq"] = store.last_seq(sid)
            if damage:
                info["damage"] = damage
            sessions[sid] = info
        report = {
            "url": url,
            "backend": type(store).__name__,
            "durable": True,
            "sessions": sessions,
        }
        if as_json:
            print(json.dumps(report, indent=2))
        else:
            print(f"{url} ({report['backend']}, durable)")
            if not sessions:
                print("no sessions")
            for sid, info in sessions.items():
                parts = [
                    f"dataset={info.get('dataset')}",
                    f"wal_seq={info.get('checkpoint_wal_seq', 0)}"
                    f" tail={info['tail_records']}",
                ]
                if "damage" in info:
                    parts.append(f"DAMAGE: {info['damage']}")
                if "error" in info:
                    parts.append(f"ERROR: {info['error']}")
                print(f"  {sid}: " + " ".join(parts))
        return 0

    if action == "verify":
        report = verify_store(store, policy=policy)
        if as_json:
            print(json.dumps(report, indent=2))
        else:
            for sid, info in report["sessions"].items():
                line = f"  {sid}: {info['tail_records']} tail record(s)"
                for warning in info["warnings"]:
                    line += f"\n    WARNING {warning}"
                print(line)
            for sid, why in report["errors"].items():
                print(f"  {sid}: CORRUPT — {why}")
            print("store OK" if report["ok"] else "store has damage")
        return 0 if report["ok"] else 1

    # compact
    ids = [session] if session else store.list_ids()
    results = {}
    status = 0
    for sid in ids:
        try:
            payload = store.get(sid)
            dataset = payload.get("dataset")
            if dataset not in DATASETS:
                raise StoreError(
                    f"checkpoint names unknown dataset {dataset!r}"
                )
            results[sid] = compact_offline(
                store,
                sid,
                DATASETS[dataset]().data,
                standardize=bool(payload.get("standardize", False)),
                seed=payload.get("seed", 0),
            )
        except (StoreError, SessionNotFoundError) as exc:
            results[sid] = {"error": str(exc)}
            status = 1
    if as_json:
        print(json.dumps(results, indent=2))
    else:
        for sid, info in results.items():
            if "error" in info:
                print(f"  {sid}: FAILED — {info['error']}")
            else:
                print(
                    f"  {sid}: replayed {info['replayed']}, pruned "
                    f"{info['pruned']}, wal_seq -> {info['wal_seq']}"
                )
    return status


def cmd_trace(log: str, top: int, as_json: bool) -> int:
    """Analyze a JSONL request-event log (``repro trace events.jsonl``)."""
    import json

    from repro.obs.analyze import analyze_log, format_analysis

    try:
        report = analyze_log(log, top=top)
    except OSError as exc:
        print(f"cannot read {log}: {exc}", file=sys.stderr)
        return 1
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(format_analysis(report))
    return 0


def _load_history_samples(path: str) -> list[dict] | None:
    """Samples from a saved history file (several accepted shapes).

    Accepts a ``/v1/metrics/history`` dump (``{"samples": [...]}``), a
    bare sample list, or a ``BENCH_loadgen.json`` report carrying a
    recorded ``obs.series``.  Returns ``None`` when no samples are found.
    """
    import json

    with open(path, encoding="utf-8") as stream:
        payload = json.load(stream)
    if isinstance(payload, list):
        return payload
    if isinstance(payload, dict):
        if isinstance(payload.get("samples"), list):
            return payload["samples"]
        series = (payload.get("obs") or {}).get("series") or {}
        if isinstance(series.get("samples"), list):
            return series["samples"]
    return None


def cmd_slo_check(
    url: str | None,
    history: str | None,
    objectives: list[str] | None,
    view_p99_budget: float | None,
    error_rate: float,
    cache_hit_floor: float,
    short_window: float,
    long_window: float,
    strict: bool,
    as_json: bool,
) -> int:
    """``repro slo check`` — evaluate objectives, exit nonzero on breach.

    Exit codes: 0 objectives met, 1 violated (or degraded with
    ``--strict``, or an explicitly named objective has no data),
    2 usage/data errors (no source, unreachable server, empty history).
    """
    import json

    from repro.obs.slo import (
        INTERACTIVITY_BUDGET_SECONDS,
        default_slos,
        evaluate_samples,
    )

    if (url is None) == (history is None):
        print("slo check needs exactly one of --url or --history",
              file=sys.stderr)
        return 2
    if url is not None:
        from repro.service import ServiceClient

        payload = ServiceClient(url).metrics_history()
        if not payload.get("enabled"):
            print(
                f"{url} has no metrics history — start the server with "
                "`repro serve --obs`",
                file=sys.stderr,
            )
            return 2
        samples = payload.get("samples", [])
        source = url
    else:
        try:
            samples = _load_history_samples(history)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {history}: {exc}", file=sys.stderr)
            return 2
        if samples is None:
            print(
                f"{history} carries no metrics samples (expected a "
                "/v1/metrics/history dump, a sample list, or a loadgen "
                "report with an obs series)",
                file=sys.stderr,
            )
            return 2
        source = history
    if len(samples) < 2:
        print(
            f"{source}: {len(samples)} sample(s) retained — need at least "
            "2 to evaluate a window",
            file=sys.stderr,
        )
        return 2

    slos = default_slos(
        view_p99_budget=(
            view_p99_budget if view_p99_budget is not None
            else INTERACTIVITY_BUDGET_SECONDS
        ),
        error_rate_ceiling=error_rate,
        cache_hit_floor=cache_hit_floor,
    )
    if objectives:
        known = {slo.name for slo in slos}
        unknown = [name for name in objectives if name not in known]
        if unknown:
            print(
                f"unknown objective(s) {unknown}; known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        slos = tuple(slo for slo in slos if slo.name in objectives)
    report = evaluate_samples(
        samples, slos, short_window=short_window, long_window=long_window
    )
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(f"slo check ({source}, {report['samples']} samples)")
        for row in report["slos"]:
            short = row["short"]
            measured = short["measured"]
            burn = short["burn"]
            print(
                f"  {row['name']:<20} {row['status']:<10} "
                f"measured={'-' if measured is None else f'{measured:.4g}'} "
                f"threshold={short['threshold']:g} "
                f"burn={'-' if burn is None else f'{burn:.2f}'}"
            )
    failed = [r["name"] for r in report["slos"] if r["status"] == "violating"]
    if strict:
        failed += [r["name"] for r in report["slos"]
                   if r["status"] == "degraded"]
    if objectives:
        # A named objective we cannot measure is a failed gate, not a pass.
        failed += [r["name"] for r in report["slos"]
                   if r["status"] == "no_data"]
    if failed:
        print(f"SLO FAILED: {', '.join(sorted(set(failed)))}",
              file=sys.stderr)
        return 1
    print(f"slo ok ({report['status']})")
    return 0


def cmd_top(url: str, interval: float, iterations: int | None) -> int:
    """``repro top`` — live ops dashboard over a running service."""
    from repro.obs.top import run_top
    from repro.service.client import ServiceClientError

    try:
        return run_top(url, interval=interval, iterations=iterations)
    except ServiceClientError as exc:
        print(f"cannot reach {url}: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the console script."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "experiment":
        return cmd_experiment(args.name)
    if args.command == "dataset":
        return cmd_dataset(args.name)
    if args.command == "objectives":
        return cmd_objectives()
    if args.command == "explore":
        if args.replay is not None:
            return cmd_explore_replay(args.replay, args.url, args.tolerance)
        dataset = args.dataset or args.name
        if dataset is None:
            print(
                "explore needs a dataset (positional name or --dataset)",
                file=sys.stderr,
            )
            return 2
        if args.policy is not None:
            return cmd_explore_policy(
                dataset,
                args.policy,
                args.rounds,
                args.objective,
                args.seed,
                args.trace,
                args.warm_start,
                args.plateau_nats,
                args.max_seconds,
            )
        return cmd_explore(dataset, args.rounds, args.objective, args.seed)
    if args.command == "loadgen":
        return cmd_loadgen(
            args.url,
            args.sessions,
            args.workers,
            args.policy,
            args.dataset,
            args.rounds,
            args.objective,
            args.seed,
            args.output,
            args.obs,
            args.obs_log,
            args.scrape_interval,
            args.deadline_ms,
            args.chaos,
            args.chaos_seed,
            args.serve_workers,
        )
    if args.command == "bench":
        return cmd_bench(
            args.quick,
            args.output_dir,
            args.check,
            args.refresh_existing,
            args.seed,
            args.suite,
        )
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "store":
        return cmd_store(
            args.store_command,
            args.url,
            as_json=args.json,
            policy=getattr(args, "policy", "fail"),
            session=getattr(args, "session", None),
        )
    if args.command == "trace":
        return cmd_trace(args.log, args.top, args.json)
    if args.command == "slo":
        return cmd_slo_check(
            args.url,
            args.history,
            args.objective,
            args.view_p99_budget,
            args.error_rate,
            args.cache_hit_floor,
            args.short_window,
            args.long_window,
            args.strict,
            args.json,
        )
    if args.command == "top":
        return cmd_top(args.url, args.interval, args.iterations)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
