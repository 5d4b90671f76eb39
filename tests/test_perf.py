"""Tests for the perf instrumentation layer (repro.perf)."""

import json
import threading
import time

import numpy as np
import pytest

from repro import perf
from repro.perf import PerfRegistry


def _raise_mid_sweep(sweep, index, lam, params):
    raise RuntimeError("killed mid-sweep")


class TestRegistry:
    def test_disabled_by_default_and_records_nothing(self):
        reg = PerfRegistry()
        with reg.timer("solve"):
            reg.add("steps", 5)
        snap = reg.snapshot()
        assert snap == {"timings": {}, "counters": {}}

    def test_disabled_timer_is_shared_noop(self):
        reg = PerfRegistry()
        assert reg.timer("a") is reg.timer("b")

    def test_timings_and_counters_recorded_when_enabled(self):
        reg = PerfRegistry(enabled=True)
        with reg.timer("solve"):
            time.sleep(0.001)
            reg.add("steps", 3)
        reg.add("steps", 2)
        snap = reg.snapshot()
        assert snap["counters"] == {"steps": 5}
        assert snap["timings"]["solve"]["calls"] == 1
        assert snap["timings"]["solve"]["seconds"] > 0.0

    def test_nested_timers_record_slash_paths(self):
        reg = PerfRegistry(enabled=True)
        with reg.timer("solve"):
            with reg.timer("init"):
                pass
            with reg.timer("optim"):
                pass
            with reg.timer("optim"):
                pass
        snap = reg.snapshot()
        assert set(snap["timings"]) == {"solve", "solve/init", "solve/optim"}
        assert snap["timings"]["solve/optim"]["calls"] == 2

    def test_reset_clears_everything(self):
        reg = PerfRegistry(enabled=True)
        with reg.timer("x"):
            reg.add("c")
        reg.reset()
        assert reg.snapshot() == {"timings": {}, "counters": {}}

    def test_raising_block_still_pops_the_nesting_stack(self):
        # Regression: a timer exited by an exception must pop its frame,
        # or every later path on the thread is silently prefixed with it.
        reg = PerfRegistry(enabled=True)
        with pytest.raises(RuntimeError):
            with reg.timer("solve"):
                raise RuntimeError("solver blew up")
        with reg.timer("after"):
            pass
        snap = reg.snapshot()
        assert "after" in snap["timings"]
        assert "solve/after" not in snap["timings"]
        # the failed block itself is still recorded
        assert snap["timings"]["solve"]["calls"] == 1

    def test_raising_solve_leaves_later_paths_clean(self):
        # End-to-end variant over the real solver instrumentation: a solve
        # that dies mid-sweep must not corrupt subsequent recordings.
        from repro.core.constraint import Constraint, ConstraintKind
        from repro.core.solver import solve_maxent

        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 3))
        constraints = [
            Constraint(
                ConstraintKind.QUADRATIC,
                np.arange(10),
                np.array([1.0, 0.0, 0.0]),
            )
        ]
        perf.enable()
        perf.reset()
        try:
            with pytest.raises(Exception):
                solve_maxent(
                    data,
                    constraints,
                    on_step=_raise_mid_sweep,
                )
            with perf.timer("clean_block"):
                pass
            snap = perf.snapshot()
        finally:
            perf.disable()
            perf.reset()
        assert "clean_block" in snap["timings"]
        assert not any(
            path.startswith("solver_optim/") and path.endswith("clean_block")
            for path in snap["timings"]
        )

    def test_snapshot_is_json_serialisable(self):
        reg = PerfRegistry(enabled=True)
        with reg.timer("a"):
            reg.add("n", 1.5)
        json.dumps(reg.snapshot())

    def test_thread_safety_and_thread_local_nesting(self):
        reg = PerfRegistry(enabled=True)
        errors = []

        def work(name: str) -> None:
            try:
                for _ in range(200):
                    with reg.timer(name):
                        with reg.timer("inner"):
                            reg.add("total")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snap = reg.snapshot()
        assert snap["counters"]["total"] == 800
        # Nesting paths never mix thread A's outer frame with thread B's.
        for i in range(4):
            assert snap["timings"][f"t{i}/inner"]["calls"] == 200


class TestModuleLevelRegistry:
    def test_enable_disable_roundtrip(self):
        assert not perf.is_enabled()
        perf.enable()
        try:
            assert perf.is_enabled()
            with perf.timer("block"):
                perf.add("hits")
            snap = perf.snapshot()
            assert snap["counters"]["hits"] == 1
            assert "block" in snap["timings"]
        finally:
            perf.disable()
            perf.reset()

    def test_solver_records_counters_when_enabled(self):
        from repro.core.solver import solve_maxent
        from repro.core.constraint import Constraint, ConstraintKind

        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 3))
        constraints = [
            Constraint(
                ConstraintKind.QUADRATIC,
                np.arange(10),
                np.array([1.0, 0.0, 0.0]),
            )
        ]
        perf.enable()
        perf.reset()
        try:
            solve_maxent(data, constraints)
            snap = perf.snapshot()
            assert snap["counters"]["solver.solves"] == 1
            assert snap["counters"]["solver.sweeps"] >= 1
            assert "solver_init" in snap["timings"]
            assert "solver_optim" in snap["timings"]
        finally:
            perf.disable()
            perf.reset()

    def test_service_stats_always_embed_snapshot_with_enabled_marker(self):
        from repro.datasets import three_d_clusters
        from repro.service import SessionManager

        manager = SessionManager(
            {"three-d": lambda: three_d_clusters(seed=0)}
        )
        # Disabled: the field is still there (explicit marker, empty data),
        # so /v1/stats consumers never have to sniff for a missing key.
        disabled = manager.stats()["perf"]
        assert disabled["enabled"] is False
        assert disabled["timings"] == {}
        perf.enable()
        perf.reset()
        try:
            sid = manager.create("three-d")
            manager.view(sid)
            stats = manager.stats()
            assert stats["perf"]["enabled"] is True
            assert "service_view" in stats["perf"]["timings"]
        finally:
            perf.disable()
            perf.reset()


class TestProjectionInstrumentation:
    """The projection layer reports under projection/* (PR 5)."""

    def test_view_search_records_projection_paths(self):
        from repro.core.session import ExplorationSession

        rng = np.random.default_rng(0)
        data = np.vstack(
            [rng.standard_normal((60, 3)), rng.standard_normal((40, 3)) + 3.0]
        )
        perf.enable()
        perf.reset()
        try:
            ExplorationSession(data, objective="ica", seed=0).current_view()
            snap = perf.snapshot()
            paths = set(snap["timings"])
            assert any(p.startswith("projection/find/ica") for p in paths)
            # FastICA's internal phases nest under the search timer.
            assert any(p.endswith("fastica/iterate") for p in paths)
            assert any(p.endswith("fastica/pca_whiten") for p in paths)
            counters = snap["counters"]
            assert counters["projection.fastica_runs"] >= 2  # both variants
            assert counters["projection.fastica_iterations"] >= 1
            assert counters["projection.views_built"] == 1
        finally:
            perf.disable()
            perf.reset()

    def test_pca_and_kurtosis_objectives_record_paths(self):
        from repro.projection.view import most_informative_view

        rng = np.random.default_rng(1)
        whitened = rng.standard_normal((80, 4))
        perf.enable()
        perf.reset()
        try:
            most_informative_view(whitened, objective="pca")
            most_informative_view(whitened, objective="kurtosis")
            paths = set(perf.snapshot()["timings"])
            assert any(p.startswith("projection/find/pca") for p in paths)
            assert any(
                p.startswith("projection/find/kurtosis") for p in paths
            )
            assert any(p.endswith("kurtosis_pursuit") for p in paths)
        finally:
            perf.disable()
            perf.reset()

    def test_stats_surface_fastica_stop_counters(self, tmp_path):
        """Capped runs and the winning variant show in /v1/stats, and per
        worker when sharded."""
        import os

        from repro.datasets import three_d_clusters
        from repro.service import SessionManager
        from repro.service.api import ServiceAPI
        from repro.service.router import InProcessWorker, Router, WorkerPool

        def counters(stats):
            return stats["perf"]["counters"]

        def searched(c):
            return c.get("projection.ica_wins_symmetric", 0) + c.get(
                "projection.ica_wins_deflation", 0
            )

        datasets = {"three-d": lambda: three_d_clusters(seed=0)}
        perf.enable()
        perf.reset()
        try:
            api = ServiceAPI(SessionManager(datasets))
            status, created = api.dispatch(
                "POST", "/v1/sessions",
                body={"dataset": "three-d", "objective": "ica"},
            )
            assert status == 201
            api.dispatch("GET", f"/v1/sessions/{created['session_id']}/view")
            status, stats = api.dispatch("GET", "/v1/stats")
            assert status == 200
            assert counters(stats)["projection.fastica_capped"] == 0
            assert searched(counters(stats)) == 1

            socket_dir = str(tmp_path / "socks")
            os.makedirs(socket_dir)

            def factory(worker_id):
                manager = SessionManager(datasets)
                return InProcessWorker(
                    ServiceAPI(manager), manager, worker_id, socket_dir
                )

            router = Router(WorkerPool(2, factory), dataset_names=["three-d"])
            try:
                status, created = router.dispatch(
                    "POST", "/v1/sessions",
                    body={"dataset": "three-d", "objective": "ica"},
                )
                assert status == 201
                router.dispatch(
                    "GET", f"/v1/sessions/{created['session_id']}/view"
                )
                status, stats = router.dispatch("GET", "/v1/stats")
                assert status == 200
                # In-process workers share this process's registry, so
                # each reports both searches run so far.
                for worker in stats["workers"]:
                    assert "projection.fastica_capped" in counters(worker)
                    assert searched(counters(worker)) >= 2
            finally:
                router.close()
        finally:
            perf.disable()
            perf.reset()

    def test_service_stats_surface_projection_timers(self):
        """GET /v1/stats exposes projection/* when REPRO_PERF is on."""
        from repro.datasets import three_d_clusters
        from repro.service import SessionManager

        manager = SessionManager({"three-d": lambda: three_d_clusters(seed=0)})
        perf.enable()
        perf.reset()
        try:
            sid = manager.create("three-d", objective="ica")
            manager.view(sid)
            stats = manager.stats()
            timings = stats["perf"]["timings"]
            assert any("projection/" in path for path in timings)
            # Round-trip through JSON like the HTTP layer does.
            assert any(
                "projection/" in path
                for path in json.loads(json.dumps(stats))["perf"]["timings"]
            )
        finally:
            perf.disable()
            perf.reset()
