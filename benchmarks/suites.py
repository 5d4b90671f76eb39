"""Benchmark suites: measured proof of the vectorized kernels.

    PYTHONPATH=src python benchmarks/suites.py --quick --check benchmarks/baselines.json

Six suites; the first two pit the batched implementations against the
preserved pre-vectorization loops, the rest gate infrastructure
overhead ratios:

* ``core_solver`` — OPTIM sweep, whitening, sampling, one-shot INIT,
  equivalence building vs :mod:`repro.core.reference`, on a many-class
  workload (margin-style constraints across every class plus one block
  constraint pair per class, the paper's interactive shape).  Writes
  ``BENCH_core_solver.json``.
* ``projection`` — batched/multi-restart FastICA vs
  :mod:`repro.projection.reference`, on a non-gaussian cluster mixture.
  Writes ``BENCH_projection.json``.
* ``store`` — the durable tier: WAL append per backend x fsync policy,
  crash recovery, compaction, and the loadgen p99 view-latency overhead
  of serving with a durable store.  Writes ``BENCH_store.json``.
* ``obs`` — the observability tier: the history recorder's per-tick
  cost through a front door, and shard-snapshot merge throughput.
  Writes ``BENCH_obs.json``.
* ``resilience`` — overload behavior under 4x the admission limit
  (accepted-request p99 vs the interactivity budget, shed fast path)
  plus deadline-check and circuit-breaker hot-path overhead.  Writes
  ``BENCH_resilience.json``.
* ``service`` — the sharded deployment: socket-RPC round-trip cost and
  the same concurrent session workload against a 1-worker vs N-worker
  process fleet (gates the multi/single wall-time ratio so sharding
  overhead, and on multi-core runners the parallel speedup, are both
  held).  Writes ``BENCH_service.json``.

Each suite writes its ``BENCH_<suite>.json`` to the working directory;
``--suite NAME`` runs one suite.  With ``--check`` the vectorized
timings are compared against the committed ``benchmarks/baselines.json``
(suite-keyed sections) and the run exits 1 on a >tolerance regression
(CI's ``bench-smoke`` job).

All timings are best-of-``repeats`` to damp scheduler jitter; speedups
are reference/vectorized on the same workload and sweep count.  The
whitening/sampling numbers are steady-state: repeated calls between fits
(the view-request pattern) hit the version-keyed decomposition cache,
while the reference loops re-eigendecompose every class every call.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import perf
from repro.core.constraint import Constraint, ConstraintKind
from repro.core.equivalence import build_equivalence_classes
from repro.core.parameters import ClassParameters
from repro.core.reference import (
    reference_build_equivalence_classes,
    reference_init_targets,
    reference_optim_sweeps,
    reference_sample_background,
    reference_whiten,
)
from repro.core.sampling import sample_background
from repro.core.solver import SolverOptions, init_targets, solve_maxent
from repro.core.whitening import whiten
from repro.projection.fastica import fit_fastica
from repro.projection.reference import reference_fit_fastica

#: Workload sizes.  ``quick`` keeps CI smoke runs in single-digit seconds;
#: ``full`` doubles the class count and data size.
SIZES = {
    "quick": {"structural": 7, "d": 12, "n": 2048, "sweeps": 4, "repeats": 3},
    "full": {"structural": 8, "d": 12, "n": 4096, "sweeps": 6, "repeats": 5},
}

#: Projection-suite workload sizes.  ``iterations`` caps the fixed-point
#: loop so timings measure throughput, not data-dependent convergence.
PROJECTION_SIZES = {
    "quick": {"n": 1024, "d": 8, "restarts": 8, "iterations": 60, "repeats": 3},
    "full": {"n": 2048, "d": 12, "restarts": 16, "iterations": 100, "repeats": 5},
}


def many_class_workload(
    structural: int, d: int, n: int, seed: int = 0
) -> tuple[np.ndarray, list[Constraint]]:
    """A workload whose constraints each span many equivalence classes.

    ``2d`` margin-style constraints (linear + quadratic along random unit
    vectors) touch every row, and ``structural`` quadratic constraints
    each cover a random half of the rows.  The structural overlaps
    shatter the rows into up to ``2^structural`` equivalence classes, so
    *every* constraint step spans hundreds of classes — the regime where
    the batched Woodbury kernel replaces a per-class Python loop (and the
    regime Fig. 5's adversarial overlapping clusters live in).
    """
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    all_rows = np.arange(n)

    def unit(v: np.ndarray) -> np.ndarray:
        return v / np.linalg.norm(v)

    constraints: list[Constraint] = []
    for axis in range(d):
        constraints.append(
            Constraint(
                ConstraintKind.LINEAR,
                all_rows,
                unit(rng.standard_normal(d)),
                label=f"margin-lin[{axis}]",
            )
        )
        constraints.append(
            Constraint(
                ConstraintKind.QUADRATIC,
                all_rows,
                unit(rng.standard_normal(d)),
                label=f"margin-quad[{axis}]",
            )
        )
    for s in range(structural):
        rows = np.sort(rng.choice(n, n // 2, replace=False))
        constraints.append(
            Constraint(
                ConstraintKind.QUADRATIC,
                rows,
                unit(rng.standard_normal(d)),
                label=f"half[{s}]",
            )
        )
    return data, constraints


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock over ``repeats`` calls of ``fn``."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


def _interleaved_pairs(pairs: int, base, other) -> tuple[list, list]:
    """Run ``base(pair)`` and ``other(pair)`` for each of ``pairs`` pairs.

    Alternates which side runs first, so both sides of a pair share one
    stretch of host speed and neither side always runs second.  Ratio
    gates take the median of the per-pair ratios.  Returns each side's
    results in pair order.
    """
    bases, others = [], []
    for pair in range(pairs):
        if pair % 2:
            others.append(other(pair))
            bases.append(base(pair))
        else:
            bases.append(base(pair))
            others.append(other(pair))
    return bases, others


def run_core_solver_suite(quick: bool = True, seed: int = 0) -> dict:
    """Time every vectorized kernel against its reference loop.

    Returns the ``BENCH_core_solver.json`` payload (see module docstring).
    """
    size = SIZES["quick" if quick else "full"]
    d = size["d"]
    sweeps, repeats = size["sweeps"], size["repeats"]
    data, constraints = many_class_workload(
        size["structural"], d, size["n"], seed=seed
    )
    classes = build_equivalence_classes(data.shape[0], constraints)

    # Sentinel negative tolerances force solve_maxent to run exactly
    # `sweeps` sweeps, matching the fixed work of the reference loop.
    forced = SolverOptions(
        lambda_tolerance=-1.0,
        drift_tolerance_factor=-1.0,
        time_cutoff=None,
        max_sweeps=sweeps,
    )

    def optim_vectorized() -> float:
        # Pure OPTIM: the report's sweep-loop time, classes prebuilt.
        fresh = ClassParameters.prior(classes.n_classes, d)
        _, _, report = solve_maxent(
            data, constraints, options=forced, params=fresh, classes=classes
        )
        return report.optim_seconds

    ref_targets, ref_anchors = reference_init_targets(data, constraints)

    def optim_reference() -> None:
        # Same fixed sweep count, targets precomputed outside the clock.
        reference_optim_sweeps(
            data, constraints, classes, sweeps, ref_targets, ref_anchors
        )

    params, _, _ = solve_maxent(data, constraints, options=forced)
    rng_seed = seed + 1

    timings = {
        "optim_sweep_vectorized_s": min(
            optim_vectorized() for _ in range(repeats)
        ),
        "optim_sweep_reference_s": _best_of(repeats, optim_reference),
        "whiten_vectorized_s": _best_of(
            repeats, lambda: whiten(data, params, classes)
        ),
        "whiten_reference_s": _best_of(
            repeats, lambda: reference_whiten(data, params, classes)
        ),
        "sample_vectorized_s": _best_of(
            repeats,
            lambda: sample_background(
                params, classes, rng=np.random.default_rng(rng_seed)
            ),
        ),
        "sample_reference_s": _best_of(
            repeats,
            lambda: reference_sample_background(
                params, classes, rng=np.random.default_rng(rng_seed)
            ),
        ),
        "init_vectorized_s": _best_of(
            repeats, lambda: init_targets(data, constraints)
        ),
        "init_reference_s": _best_of(
            repeats, lambda: reference_init_targets(data, constraints)
        ),
        "equivalence_vectorized_s": _best_of(
            repeats,
            lambda: build_equivalence_classes(data.shape[0], constraints),
        ),
        "equivalence_reference_s": _best_of(
            repeats,
            lambda: reference_build_equivalence_classes(
                data.shape[0], constraints
            ),
        ),
    }
    timings = {k: round(v, 6) for k, v in timings.items()}

    def speedup(name: str) -> float:
        vec = max(timings[f"{name}_vectorized_s"], 1e-9)
        return round(timings[f"{name}_reference_s"] / vec, 2)

    return {
        "suite": "core_solver",
        "mode": "quick" if quick else "full",
        "workload": {
            "n": int(data.shape[0]),
            "d": d,
            "classes": int(classes.n_classes),
            "constraints": len(constraints),
            "sweeps": sweeps,
            "repeats": repeats,
            "seed": seed,
        },
        "timings": timings,
        "speedups": {
            "optim_sweep": speedup("optim_sweep"),
            "whiten": speedup("whiten"),
            "sample": speedup("sample"),
            "init": speedup("init"),
            "equivalence": speedup("equivalence"),
        },
    }


def cluster_mixture_workload(n: int, d: int, seed: int = 0) -> np.ndarray:
    """A non-gaussian mixture for projection-pursuit benchmarks.

    Three well-separated gaussian blobs in the first two dimensions plus a
    heavy-tailed (Laplace) dimension — structure both the log-cosh and the
    kurtosis contrasts respond to, so fixed-point runs do real work
    instead of wandering on a gaussian plateau.
    """
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    third = n // 3
    data[:third, 0] += 6.0
    data[third : 2 * third, 1] += 6.0
    if d >= 3:
        data[:, 2] = rng.laplace(0.0, 1.0, n)
    return data


def _counted_iterations(run) -> int:
    """Fixed-point iterations one untimed ``fit_fastica`` call performs.

    ``fit_fastica`` reports only its winning restart's iterations but adds
    every restart's to the ``projection.fastica_iterations`` perf counter,
    so ``run`` is made once with perf recording and the counter's rise
    read.  A registry that was off is switched off and emptied again.
    """
    key = "projection.fastica_iterations"
    was_enabled = perf.is_enabled()
    before = perf.snapshot()["counters"].get(key, 0)
    perf.enable()
    try:
        run()
        counted = perf.snapshot()["counters"][key] - before
    finally:
        if not was_enabled:
            perf.disable()
            perf.reset()
    return int(counted)


def run_projection_suite(quick: bool = True, seed: int = 0) -> dict:
    """Time the batched projection kernels against the preserved loops.

    Two match-ups, each on identical inputs.  Tolerance 0 turns the
    alignment test off, so the FastICA runs stop on the plateau test or
    the iteration cap, which both sides apply identically; the payload's
    ``iterations`` block records the fixed-point iterations each side
    ran, so a speedup never compares unequal work:

    * ``fastica`` — one batched symmetric run vs the serial loop
      preserved in :mod:`repro.projection.reference`;
    * ``fastica_restarts`` — R initialisations as one stacked tensor
      iteration vs R serial ``reference_fit_fastica`` calls (the old
      restart pattern), the serial calls drawing their starts from one
      generator in turn, exactly the stack the batched run draws.

    Returns the ``BENCH_projection.json`` payload.
    """
    size = PROJECTION_SIZES["quick" if quick else "full"]
    n, d = size["n"], size["d"]
    restarts, iterations = size["restarts"], size["iterations"]
    repeats = size["repeats"]
    data = cluster_mixture_workload(n, d, seed=seed)
    ica_seed = seed + 1

    def batched_single() -> None:
        fit_fastica(
            data,
            rng=np.random.default_rng(ica_seed),
            max_iterations=iterations,
            tolerance=0.0,
        )

    def reference_single() -> int:
        return reference_fit_fastica(
            data,
            rng=np.random.default_rng(ica_seed),
            max_iterations=iterations,
            tolerance=0.0,
        )[1]

    def batched_restarts() -> None:
        fit_fastica(
            data,
            rng=np.random.default_rng(ica_seed),
            max_iterations=iterations,
            tolerance=0.0,
            n_restarts=restarts,
        )

    def reference_restarts() -> int:
        # The pre-batching restart pattern: R independent serial fits.
        # Sequential (k, k) draws from one generator are the batched
        # run's (R, k, k) stack, so each fit repeats one restart.
        rng = np.random.default_rng(ica_seed)
        return sum(
            reference_fit_fastica(
                data, rng=rng, max_iterations=iterations, tolerance=0.0
            )[1]
            for _ in range(restarts)
        )

    work = {
        "fastica_vectorized": _counted_iterations(batched_single),
        "fastica_reference": reference_single(),
        "fastica_restarts_vectorized": _counted_iterations(batched_restarts),
        "fastica_restarts_reference": reference_restarts(),
    }

    timings = {
        "fastica_vectorized_s": _best_of(repeats, batched_single),
        "fastica_reference_s": _best_of(repeats, reference_single),
        "fastica_restarts_vectorized_s": _best_of(repeats, batched_restarts),
        "fastica_restarts_reference_s": _best_of(repeats, reference_restarts),
    }
    timings = {k: round(v, 6) for k, v in timings.items()}

    def speedup(name: str) -> float:
        vec = max(timings[f"{name}_vectorized_s"], 1e-9)
        return round(timings[f"{name}_reference_s"] / vec, 2)

    return {
        "suite": "projection",
        "mode": "quick" if quick else "full",
        "workload": {
            "n": n,
            "d": d,
            "restarts": restarts,
            "iterations": iterations,
            "repeats": repeats,
            "seed": seed,
        },
        "timings": timings,
        "iterations": {name: int(its) for name, its in work.items()},
        "speedups": {
            "fastica": speedup("fastica"),
            "fastica_restarts": speedup("fastica_restarts"),
        },
    }


#: Store-suite workload sizes: WAL batches appended/recovered/compacted,
#: and the loadgen shape for the durability-overhead comparison
#: (``lg_pairs`` interleaved no-store/durable loadgen pairs).
STORE_SIZES = {
    "quick": {"batches": 48, "repeats": 3,
              "lg_sessions": 4, "lg_rounds": 3, "lg_pairs": 7},
    "full": {"batches": 256, "repeats": 5,
             "lg_sessions": 8, "lg_rounds": 4, "lg_pairs": 9},
}

#: Acceptance bound on durable-service overhead: with ``fsync=batch`` the
#: loadgen p99 view latency must stay within this factor of the no-store
#: baseline (the view path never touches the WAL, so the overhead is
#: lock/bookkeeping only).
DURABILITY_P99_BOUND = 1.2


def run_store_suite(quick: bool = True, seed: int = 0) -> dict:
    """Time the durable-store tier: append, recover, compact, overhead.

    Four measurements, written to ``BENCH_store.json``:

    * **append** — seconds to write-ahead-append B feedback batches to
      SQLite, per fsync policy (``always``/``batch``/``off``) — the
      per-request durability cost;
    * **recover** — open a fresh store and resume the session through a
      fresh :class:`SessionManager`, replaying a B-batch log tail through
      ``apply_many`` (crash-restart latency);
    * **compact** — fold that tail into a fresh checkpoint, as
      ``repro store compact`` does: resume, checkpoint, release;
    * **durability overhead** — identical loadgen runs against an
      in-process server, no store vs ``sqlite:`` with ``fsync=batch``, in
      ``lg_pairs`` interleaved pairs; the median of the per-pair p99 view
      latency ratios must stay under :data:`DURABILITY_P99_BOUND`.  The
      ratio is exported as the timing key ``view_p99_durability_ratio`` so
      the baselines file can gate it like any other metric.
    """
    import shutil
    import tempfile

    from repro.datasets import three_d_clusters
    from repro.feedback import feedback_from_dict
    from repro.service.manager import SessionManager
    from repro.store import SQLiteStore

    size = STORE_SIZES["quick" if quick else "full"]
    batches, repeats = size["batches"], size["repeats"]
    rng = np.random.default_rng(seed)
    bundle = three_d_clusters(seed=seed)
    data = bundle.data
    n = data.shape[0]
    items = [
        [{"kind": "cluster",
          "rows": sorted(int(r) for r in rng.choice(n, 8, replace=False)),
          "label": f"bench-{i}"}]
        for i in range(batches)
    ]
    root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    timings: dict[str, float] = {}
    try:
        # -- append: B write-ahead batches per fsync policy ---------------
        for policy in ("always", "batch", "off"):
            best = np.inf
            for attempt in range(repeats):
                store = SQLiteStore(
                    root / f"append-{policy}-{attempt}.db", fsync=policy
                )
                start = time.perf_counter()
                for batch in items:
                    store.append_feedback("bench", batch)
                best = min(best, time.perf_counter() - start)
            timings[f"append_sqlite_{policy}_s"] = best

        # -- recover + compact: a real session with a B-batch log tail ---
        db = root / "recover.db"
        setup = SessionManager(
            {"three-d": lambda: bundle},
            store=SQLiteStore(db, fsync="off"),
            max_tail_records=0,  # keep the whole tail unfolded
        )
        sid = setup.create("three-d", session_id="bench-recover")
        for batch in items:
            setup.apply_feedback(
                sid, [feedback_from_dict(b) for b in batch]
            )

        def offline_manager() -> SessionManager:
            # Set up as `repro store compact` sets up its own manager.
            return SessionManager(
                {"three-d": lambda: bundle},
                store=SQLiteStore(db, fsync="off"),
                cache=None,
                recovery_policy="fail",
            )

        def recover() -> None:
            offline_manager().session_stats(sid)

        timings["recover_replay_s"] = _best_of(repeats, recover)

        def compact() -> None:
            manager = offline_manager()
            manager.checkpoint(sid)
            manager.release(sid)

        # First call does the real fold; later repeats are near-no-ops,
        # so time the first call only.
        timings["compact_fold_s"] = _best_of(1, compact)

        # -- durability overhead: loadgen p99 views, store vs no store ---
        durability = _durability_overhead(
            root, bundle, size, seed=seed
        )
        timings["view_p99_durability_ratio"] = durability["ratio"]
    finally:
        shutil.rmtree(root, ignore_errors=True)

    timings = {k: round(v, 6) for k, v in timings.items()}
    return {
        "suite": "store",
        "mode": "quick" if quick else "full",
        "workload": {
            "batches": batches,
            "rows": int(n),
            "repeats": repeats,
            "loadgen_sessions": size["lg_sessions"],
            "loadgen_rounds": size["lg_rounds"],
            "loadgen_pairs": size["lg_pairs"],
            "seed": seed,
        },
        "timings": timings,
        "durability": durability,
    }


def _durability_overhead(root: Path, bundle, size: dict, seed: int) -> dict:
    """p99 view latency, durable ``sqlite:`` (fsync=batch) vs no store.

    Runs the identical loadgen workload in ``lg_pairs`` pairs, one run per
    side, alternating which side goes first, and reports the median of the
    per-pair ratios.  A quick loadgen records 16 view samples, so each
    run's "p99" is its slowest view.  On a 2-vCPU VM, 70 single pairs read
    0.60-3.16 and a ratio of best-of-two p99s per side read 0.74-1.63,
    while ten medians of 7 pairs read 0.79-1.18.  Interleaving puts both
    sides of a pair in the same stretch of host speed.  A shared warm-up
    run pays the import/solver warm-up cost before either side is on the
    clock.
    """
    from repro.explore import LoadGenConfig, run_loadgen
    from repro.service import start_background
    from repro.service.manager import SessionManager
    from repro.store import SQLiteStore

    def view_p99(store) -> float:
        manager = SessionManager({"three-d": lambda: bundle}, store=store)
        server = start_background(manager)
        try:
            report = run_loadgen(LoadGenConfig(
                url=server.base_url,
                sessions=size["lg_sessions"],
                workers=size["lg_sessions"],
                policies=("objective-sweep",),
                datasets=("three-d",),
                rounds=size["lg_rounds"],
                objective="pca",
                seed=seed,
            ))
        finally:
            server.stop()
        views = [
            stats for route, stats in report.routes.items()
            if route.endswith("/view")
        ]
        if not views:
            raise RuntimeError(
                f"loadgen recorded no view route: {sorted(report.routes)}"
            )
        return max(float(stats["p99_ms"]) for stats in views)

    view_p99(None)  # warm-up: numpy/solver first-call costs off the clock
    no_store, durable = _interleaved_pairs(
        size["lg_pairs"],
        lambda pair: view_p99(None),
        lambda pair: view_p99(
            SQLiteStore(root / f"loadgen-{pair}.db", fsync="batch")
        ),
    )
    ratios = [d / max(n, 1e-9) for n, d in zip(no_store, durable)]
    ratio = float(np.median(ratios))
    return {
        "view_p99_no_store_ms": round(float(np.median(no_store)), 3),
        "view_p99_sqlite_batch_ms": round(float(np.median(durable)), 3),
        "pair_ratios": [round(r, 4) for r in ratios],
        "ratio": round(ratio, 4),
        "bound": DURABILITY_P99_BOUND,
        "within_bound": ratio <= DURABILITY_P99_BOUND,
    }


#: Obs-suite workload sizes: ``history_samples`` recorder ticks per
#: timed call, ``merge_shards`` snapshots folded per merge.
OBS_SIZES = {
    "quick": {"repeats": 3, "merge_shards": 8, "history_samples": 50},
    "full": {"repeats": 5, "merge_shards": 16, "history_samples": 100},
}


def run_obs_suite(quick: bool = True, seed: int = 0) -> dict:
    """Time the observability tier: history sampling and snapshot merge.

    Two measurements, written to ``BENCH_obs.json``:

    * **history sampling** — seconds to take N time-series samples
      through a single-process front door's
      :meth:`~repro.service.api.ServiceAPI.metrics_registry` (the
      process registry, populated with request observations, its gauges
      refreshed from the manager): the recorder thread's per-tick cost;
    * **snapshot merge** — fold S shard snapshots of that registry into
      one aggregator registry via
      :meth:`~repro.obs.MetricsRegistry.merge`, as the sharded door does
      for its workers on every scrape and tick.
    """
    from repro import obs
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeseries import TimeSeriesRecorder
    from repro.service.api import ServiceAPI
    from repro.service.manager import SessionManager

    size = OBS_SIZES["quick" if quick else "full"]
    repeats = size["repeats"]
    state = obs.configure()
    try:
        rng = np.random.default_rng(seed)
        for route in ("GET /v1/sessions/{id}/view", "POST /v1/sessions"):
            method = route.split(" ", 1)[0]
            for value in rng.uniform(0.001, 0.5, size=256):
                state.observe_request(method, route, 200, float(value),
                                      route=route)
        door = ServiceAPI(SessionManager({}))
        recorder = TimeSeriesRecorder(
            door.metrics_registry, interval=3600.0, capacity=4096
        )

        def take_samples() -> None:
            for _ in range(size["history_samples"]):
                recorder.sample()

        timings = {"history_sample_s": _best_of(repeats, take_samples)}
        snapshots = [
            state.metrics.to_snapshot(source=f"shard-{i}")
            for i in range(size["merge_shards"])
        ]
    finally:
        obs.disable()

    def merge_shards() -> None:
        aggregate = MetricsRegistry()
        for snap in snapshots:
            aggregate.merge(snap)

    timings["snapshot_merge_s"] = _best_of(repeats, merge_shards)

    timings = {k: round(v, 6) for k, v in timings.items()}
    return {
        "suite": "obs",
        "mode": "quick" if quick else "full",
        "workload": {
            "repeats": repeats,
            "merge_shards": size["merge_shards"],
            "history_samples": size["history_samples"],
            "seed": seed,
        },
        "timings": timings,
    }


#: Resilience-suite workload sizes.  ``limit`` is the admission cap L;
#: offered load is ``limit x load_factor`` concurrent workers issuing
#: back-to-back view requests.
RESILIENCE_SIZES = {
    "quick": {"limit": 4, "load_factor": 4, "requests": 40, "repeats": 3,
              "shed_calls": 500, "deadline_calls": 100_000,
              "breaker_cycles": 50_000},
    "full": {"limit": 4, "load_factor": 4, "requests": 120, "repeats": 3,
             "shed_calls": 1000, "deadline_calls": 200_000,
             "breaker_cycles": 100_000},
}


def run_resilience_suite(quick: bool = True, seed: int = 0) -> dict:
    """Time the resilience tier: overload behavior and hot-path overhead.

    Four measurements, written to ``BENCH_resilience.json``:

    * **overload p99** — an in-process server with admission cap L under
      ``load_factor`` x L offered load (concurrent workers, no client
      retries); the p99 latency of *accepted* view requests divided by
      the paper's 2 s interactivity budget is exported as
      ``overload_accepted_p99_interactivity_ratio`` — the baselines file
      gates that accepted requests stay interactive while the excess is
      shed, which is the whole point of admission control;
    * **shed fast path** — seconds to answer ``shed_calls`` dispatches
      against a saturated admission controller (the 503 rejection path
      must be orders cheaper than the work it refuses);
    * **deadline overhead** — ``deadline_calls`` ambient
      :func:`~repro.resilience.deadline.check_deadline` calls with no
      deadline set (the per-sweep solver cost when the feature is off);
    * **breaker cycle** — ``breaker_cycles`` closed-state
      acquire/record_success pairs (the per-request client cost).
    """
    from concurrent.futures import ThreadPoolExecutor
    from contextlib import ExitStack

    from repro.datasets import three_d_clusters
    from repro.obs.slo import INTERACTIVITY_BUDGET_SECONDS
    from repro.resilience import AdmissionController, CircuitBreaker
    from repro.resilience.deadline import check_deadline
    from repro.service import ServiceAPI, start_background
    from repro.service.client import ServiceClient, ServiceClientError
    from repro.service.manager import SessionManager

    size = RESILIENCE_SIZES["quick" if quick else "full"]
    limit = size["limit"]
    workers = limit * size["load_factor"]
    bundle = three_d_clusters(seed=seed)
    manager = SessionManager({"three-d": lambda: bundle})
    admission = AdmissionController(max_inflight=limit)
    api = ServiceAPI(manager, admission=admission)
    server = start_background(api)
    accepted: list[float] = []
    shed = 0
    try:
        control = ServiceClient(server.base_url)
        sid = control.create_session("three-d", seed=seed)
        control.view(sid)  # warm-up: solve + cache fill off the clock

        def drive(_: int) -> tuple[list[float], int]:
            # No retries and no breaker: offered load must stay constant
            # at 4xL, not collapse when the server starts shedding.
            client = ServiceClient(
                server.base_url, breaker=False, max_retries=0,
                connect_retries=3, retry_delay=0.0,
            )
            latencies: list[float] = []
            rejected = 0
            for _ in range(size["requests"]):
                started = time.perf_counter()
                try:
                    client.view(sid)
                except ServiceClientError as exc:
                    kind = (
                        exc.payload.get("kind")
                        if isinstance(exc.payload, dict) else None
                    )
                    if kind != "overloaded":
                        raise
                    rejected += 1
                    continue
                latencies.append(time.perf_counter() - started)
            return latencies, rejected

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for latencies, rejected in pool.map(drive, range(workers)):
                accepted.extend(latencies)
                shed += rejected

        # -- shed fast path: dispatch cost while saturated ---------------
        with ExitStack() as stack:
            for _ in range(limit):
                stack.enter_context(admission.admit())

            def shed_dispatches() -> None:
                for _ in range(size["shed_calls"]):
                    api.dispatch("GET", "/v1/datasets")

            shed_fast_path_s = _best_of(size["repeats"], shed_dispatches)
    finally:
        server.stop()

    if not accepted:
        raise RuntimeError(
            "overload run accepted zero requests; admission cap "
            f"{limit} shed all {shed} attempts"
        )
    accepted_p99_s = float(np.percentile(accepted, 99))
    ratio = accepted_p99_s / INTERACTIVITY_BUDGET_SECONDS

    def deadline_checks() -> None:
        for _ in range(size["deadline_calls"]):
            check_deadline()

    breaker = CircuitBreaker("bench")

    def breaker_cycle() -> None:
        for _ in range(size["breaker_cycles"]):
            breaker.acquire()
            breaker.record_success()

    timings = {
        "overload_accepted_p99_interactivity_ratio": ratio,
        "shed_fast_path_s": shed_fast_path_s,
        "deadline_check_overhead_s": _best_of(
            size["repeats"], deadline_checks
        ),
        "breaker_cycle_s": _best_of(size["repeats"], breaker_cycle),
    }
    timings = {k: round(v, 6) for k, v in timings.items()}
    offered = workers * size["requests"]
    return {
        "suite": "resilience",
        "mode": "quick" if quick else "full",
        "workload": {
            "max_inflight": limit,
            "load_factor": size["load_factor"],
            "workers": workers,
            "requests_per_worker": size["requests"],
            "shed_calls": size["shed_calls"],
            "deadline_calls": size["deadline_calls"],
            "breaker_cycles": size["breaker_cycles"],
            "repeats": size["repeats"],
            "seed": seed,
        },
        "timings": timings,
        "overload": {
            "offered": offered,
            "accepted": len(accepted),
            "shed": shed,
            "shed_rate": round(shed / offered, 4) if offered else 0.0,
            "accepted_p99_ms": round(accepted_p99_s * 1e3, 3),
            "interactivity_budget_s": INTERACTIVITY_BUDGET_SECONDS,
            "within_budget": accepted_p99_s <= INTERACTIVITY_BUDGET_SECONDS,
            "admission": admission.stats(),
        },
    }


def run_service_suite(quick: bool = False, seed: int = 0) -> dict:
    """Sharded-service suite: RPC hop cost and 1-vs-N worker throughput.

    Spawns real worker processes behind the sticky-session router and
    drives the same concurrent session workload (create, feedback, view,
    delete — each session with distinct constraints, so every session
    pays its own solves) against a fresh single-worker and a fresh
    multi-worker fleet, in ``pairs`` interleaved pairs that alternate
    which fleet runs first (the design of :func:`_durability_overhead`).
    Gated timings, each the median over the pairs' runs:

    * ``rpc_roundtrip_s`` — one ping over the length-prefixed socket
      RPC; the per-request tax of the process hop.
    * ``single_vs_multi_throughput_ratio`` — multi-worker wall time over
      single-worker wall time for the identical workload (equivalently
      single-worker throughput over multi-worker throughput), the median
      of the per-pair ratios.  Lower is better; on a 4-core runner the
      target is <= 0.4 (the >= 2.5x speedup of the roadmap), while the
      committed baseline only bounds the *overhead* so the gate also
      passes on starved 1-core CI machines where no parallel speedup is
      physically available.

    ``view_p99_s`` and the absolute throughputs ride along
    informationally.  Writes ``BENCH_service.json``.
    """
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.obs.slo import INTERACTIVITY_BUDGET_SECONDS
    from repro.service.router import start_fleet
    from repro.service.worker import WorkerConfig

    size = (
        {"sessions": 4, "rounds": 2, "pings": 100, "multi_workers": 2,
         "pairs": 7}
        if quick
        else {"sessions": 8, "rounds": 3, "pings": 500, "multi_workers": 4,
              "pairs": 9}
    )

    def run_fleet(n_workers: int) -> dict:
        runtime = tempfile.TemporaryDirectory(prefix="repro-bench-shard-")
        router = start_fleet(n_workers, WorkerConfig(), runtime.name)
        view_latencies: list[float] = []
        try:
            worker0 = router.pool.worker(0)
            started = time.perf_counter()
            for _ in range(size["pings"]):
                worker0.call({"op": "ping"})
            rpc_roundtrip = (time.perf_counter() - started) / size["pings"]

            def drive(i: int) -> list[float]:
                latencies: list[float] = []
                sid = f"bench-{seed}-{i}"
                status, payload = router.dispatch(
                    "POST",
                    "/v1/sessions",
                    body={
                        "dataset": "three-d",
                        "session_id": sid,
                        "seed": seed,
                    },
                )
                if status != 201:
                    raise RuntimeError(
                        f"session create failed: {status} {payload}"
                    )
                rows = list(range(3 * i, 3 * i + 6))
                for rnd in range(size["rounds"]):
                    status, payload = router.dispatch(
                        "POST",
                        f"/v1/sessions/{sid}/feedback",
                        body={
                            "feedback": [
                                {
                                    "kind": "cluster",
                                    "rows": [r + rnd for r in rows],
                                    "label": f"bench-{i}-{rnd}",
                                }
                            ]
                        },
                    )
                    if status != 200:
                        raise RuntimeError(
                            f"feedback failed: {status} {payload}"
                        )
                    t0 = time.perf_counter()
                    status, payload = router.dispatch(
                        "GET", f"/v1/sessions/{sid}/view"
                    )
                    if status != 200:
                        raise RuntimeError(f"view failed: {status} {payload}")
                    latencies.append(time.perf_counter() - t0)
                router.dispatch("DELETE", f"/v1/sessions/{sid}")
                return latencies

            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=size["sessions"]) as tp:
                for latencies in tp.map(drive, range(size["sessions"])):
                    view_latencies.extend(latencies)
            elapsed = time.perf_counter() - started
        finally:
            router.close()
            runtime.cleanup()
        return {
            "elapsed_s": elapsed,
            "rpc_roundtrip_s": rpc_roundtrip,
            "view_p99_s": float(np.percentile(view_latencies, 99)),
        }

    # One run per fleet divides two ~0.15 s wall times, and a slow
    # stretch of the host on either side moved the ratio past the bound
    # (one full quick run read 1.509).
    singles, multis = _interleaved_pairs(
        size["pairs"],
        lambda _: run_fleet(1),
        lambda _: run_fleet(size["multi_workers"]),
    )
    ratios = [m["elapsed_s"] / s["elapsed_s"] for s, m in zip(singles, multis)]
    single, multi = (
        {
            key: float(np.median([run[key] for run in runs]))
            for key in ("elapsed_s", "rpc_roundtrip_s", "view_p99_s")
        }
        for runs in (singles, multis)
    )
    for side in (single, multi):
        side["throughput_sessions_per_s"] = size["sessions"] / side["elapsed_s"]
    ratio = float(np.median(ratios))

    timings = {
        "rpc_roundtrip_s": multi["rpc_roundtrip_s"],
        "single_vs_multi_throughput_ratio": ratio,
        "view_p99_s": multi["view_p99_s"],
    }
    timings = {k: round(v, 6) for k, v in timings.items()}
    return {
        "suite": "service",
        "mode": "quick" if quick else "full",
        "workload": {
            "sessions": size["sessions"],
            "rounds": size["rounds"],
            "pings": size["pings"],
            "multi_workers": size["multi_workers"],
            "pairs": size["pairs"],
            "dataset": "three-d",
            "seed": seed,
        },
        "timings": timings,
        "sharding": {
            "single_worker": {
                k: round(v, 6) for k, v in single.items()
            },
            "multi_worker": {k: round(v, 6) for k, v in multi.items()},
            "pair_ratios": [round(r, 4) for r in ratios],
            "speedup": round(
                single["elapsed_s"] / multi["elapsed_s"], 4
            ),
            "interactivity_budget_s": INTERACTIVITY_BUDGET_SECONDS,
            "multi_view_p99_within_budget": (
                multi["view_p99_s"] <= INTERACTIVITY_BUDGET_SECONDS
            ),
        },
    }


#: Suite name -> runner; :func:`main` executes these in order.
SUITES = {
    "core_solver": run_core_solver_suite,
    "projection": run_projection_suite,
    "store": run_store_suite,
    "obs": run_obs_suite,
    "resilience": run_resilience_suite,
    "service": run_service_suite,
}


def write_payload(payload: dict, output_dir: str | Path = ".") -> Path:
    """Write the suite payload to ``BENCH_<suite>.json`` in ``output_dir``."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{payload['suite']}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check_baselines(payload: dict, baselines_path: str | Path) -> list[str]:
    """Compare vectorized timings against committed baselines.

    The baselines file maps suite -> mode -> {timing key -> baseline
    seconds} plus a top-level ``tolerance`` factor.
    Returns a list of human-readable failures (empty = within budget).
    Every key listed in the budgets map is gated; reference-loop timings
    are deliberately left out of the baselines so they are never judged.
    The ``store`` suite also gates ``view_p99_durability_ratio`` — a
    ratio, not seconds — whose baseline x tolerance encodes the durable
    overhead bound.
    """
    spec = json.loads(Path(baselines_path).read_text())
    tolerance = float(spec.get("tolerance", 2.0))
    section = spec.get(payload.get("suite", ""))
    budgets = section.get(payload["mode"]) if isinstance(section, dict) else None
    if budgets is None:
        # A gate that checks nothing must not report success.
        return [
            f"baselines file has no {payload.get('suite')}/{payload['mode']!r} "
            "section; the regression gate would check nothing"
        ]
    failures = []
    for key, baseline in budgets.items():
        measured = payload["timings"].get(key)
        if measured is None:
            failures.append(f"{key}: baseline present but metric missing")
            continue
        limit = float(baseline) * tolerance
        if measured > limit:
            failures.append(
                f"{key}: {measured:.4f}s exceeds {limit:.4f}s "
                f"(baseline {float(baseline):.4f}s x{tolerance:g})"
            )
    return failures


def format_payload(payload: dict) -> str:
    """Terminal rendering of a suite result (any suite's workload keys).

    Suites built around reference-vs-vectorized pairs render their
    speedup table; suites without one (``store``) render the raw timing
    keys, plus the durability section when present.
    """
    workload = ", ".join(
        f"{key}={value}" for key, value in payload["workload"].items()
    )
    lines = [f"suite {payload['suite']} ({payload['mode']}): {workload}"]
    speedups = payload.get("speedups")
    if speedups:
        width = max(len(name) for name in speedups)
        for name, factor in speedups.items():
            ref = payload["timings"][f"{name}_reference_s"]
            vec = payload["timings"][f"{name}_vectorized_s"]
            lines.append(
                f"  {name:<{width}} {ref:>9.4f}s -> {vec:>9.4f}s  ({factor:g}x)"
            )
    else:
        width = max(len(name) for name in payload["timings"])
        for name, value in payload["timings"].items():
            lines.append(f"  {name:<{width}} {value:>10.4f}")
    durability = payload.get("durability")
    if durability:
        lines.append(
            "  durability: view p99 "
            f"{durability['view_p99_no_store_ms']:.1f}ms (no store) -> "
            f"{durability['view_p99_sqlite_batch_ms']:.1f}ms "
            f"(sqlite, fsync=batch), ratio {durability['ratio']:g} "
            f"(bound {durability['bound']:g}, "
            f"{'OK' if durability['within_bound'] else 'EXCEEDED'})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the suites, write their artifacts, gate them on ``--check``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="run the benchmark suites, write BENCH_<suite>.json"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--suite",
        default="all",
        choices=("all", *SUITES),
        help="which suite to run (default: all)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="fail if timings regress past the baselines file "
        "(e.g. benchmarks/baselines.json)",
    )
    args = parser.parse_args(argv)

    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures: list[str] = []
    for name in names:
        payload = SUITES[name](quick=args.quick)
        print(format_payload(payload))
        print(f"bench artifact: {write_payload(payload)}")
        if args.check is not None:
            failures.extend(check_baselines(payload, args.check))
    if args.check is not None:
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"baselines ok ({args.check})")
    return 0


# The guard matters: the service suite starts workers with ``spawn``,
# which re-imports this script in every worker.
if __name__ == "__main__":
    raise SystemExit(main())
