"""Tests for the sharded front-end router.

Covers the consistent-hash ring (determinism, balance, minimal movement
on removal), sticky session routing with id minting, the router's local
routes (health, stats, workers, metrics, session listing), front-door
admission shedding and drain, and migration + ownership release when a
worker dies — all over :class:`InProcessWorker` fleets, which exercise
the full socket/frame/ops path at thread speed.
"""

import os
import time

import pytest

from repro.resilience.admission import AdmissionController
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import SessionManager
from repro.service.router import (
    HashRing,
    InProcessWorker,
    Router,
    WorkerDiedError,
    WorkerPool,
)
from repro.service.server import start_background
from repro.store import store_from_url


class TestHashRing:
    def test_lookup_is_deterministic_across_instances(self):
        a = HashRing(worker_ids=range(4))
        b = HashRing(worker_ids=range(4))
        keys = [f"session-{i}" for i in range(100)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_every_worker_owns_some_keys(self):
        ring = HashRing(worker_ids=range(3))
        owners = {ring.lookup(f"sid-{i}") for i in range(300)}
        assert owners == {0, 1, 2}

    def test_removal_only_moves_the_dead_workers_keys(self):
        ring = HashRing(worker_ids=range(3))
        keys = [f"sid-{i}" for i in range(300)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(1)
        after = {k: ring.lookup(k) for k in keys}
        for k in keys:
            if before[k] != 1:
                assert after[k] == before[k]
            else:
                assert after[k] in {0, 2}

    def test_re_adding_restores_the_original_assignment(self):
        ring = HashRing(worker_ids=range(3))
        keys = [f"sid-{i}" for i in range(100)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(2)
        ring.add(2)
        assert {k: ring.lookup(k) for k in keys} == before

    def test_empty_ring_raises_lookup_error(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.lookup("anything")

    def test_duplicate_add_is_idempotent(self):
        ring = HashRing(worker_ids=[0, 1])
        points_before = len(ring._points)
        ring.add(1)
        assert len(ring._points) == points_before
        assert ring.workers() == {0, 1}


@pytest.fixture
def fleet(two_cluster_data, tmp_path):
    """Router over three InProcessWorkers sharing one SQLite store."""
    data, _ = two_cluster_data
    store_url = f"sqlite:{tmp_path / 'store.db'}"
    socket_dir = str(tmp_path / "socks")
    os.makedirs(socket_dir, exist_ok=True)
    managers: dict[int, SessionManager] = {}

    def factory(worker_id):
        manager = SessionManager(
            {"demo": data}, store=store_from_url(store_url)
        )
        api = ServiceAPI(manager)
        managers[worker_id] = manager
        return InProcessWorker(api, manager, worker_id, socket_dir)

    pool = WorkerPool(3, factory)
    router = Router(pool, shared_store=True, dataset_names=["demo"])
    try:
        yield router, pool, managers
    finally:
        router.close()


def _create(router, **body):
    status, payload = router.dispatch(
        "POST", "/v1/sessions", body={"dataset": "demo", **body}
    )
    assert status == 201, payload
    return payload["session_id"]


class TestRouting:
    def test_create_mints_a_session_id(self, fleet):
        router, _pool, _managers = fleet
        sid = _create(router)
        assert isinstance(sid, str) and sid
        # The minted id is sticky: the owner is recorded.
        assert router._owners[sid] == router._ring.lookup(sid)

    def test_client_supplied_session_id_is_respected(self, fleet):
        router, _pool, _managers = fleet
        sid = _create(router, session_id="my-session")
        assert sid == "my-session"

    def test_requests_stick_to_the_ring_owner(self, fleet):
        router, pool, managers = fleet
        sid = _create(router)
        owner = router._ring.lookup(sid)
        for _ in range(3):
            status, _payload = router.dispatch("GET", f"/v1/sessions/{sid}")
            assert status == 200
        # The session lives in exactly the owner's manager.
        holders = [
            wid
            for wid, manager in managers.items()
            if manager.live_session_count() > 0
        ]
        assert holders == [owner]

    def test_full_session_lifecycle_through_the_router(self, fleet):
        router, _pool, _managers = fleet
        sid = _create(router)
        status, _ = router.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={
                "feedback": [
                    {"kind": "cluster", "rows": [0, 1, 2, 3], "label": "a"}
                ]
            },
        )
        assert status == 200
        status, view = router.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert status == 200
        assert view["session_id"] == sid
        status, deleted = router.dispatch("DELETE", f"/v1/sessions/{sid}")
        assert status == 200 and deleted["deleted"] is True

    def test_unknown_route_passes_through_to_worker(self, fleet):
        router, _pool, _managers = fleet
        assert router.dispatch("GET", "/v1/nope")[0] == 404
        assert router.dispatch("PUT", "/sessions")[0] == 404

    def test_worker_error_is_surfaced_as_404_not_500(self, fleet):
        router, _pool, _managers = fleet
        status, payload = router.dispatch("GET", "/v1/sessions/ghost")
        assert status == 404
        assert "ghost" in payload["error"]


class TestLocalRoutes:
    def test_nothing_is_served_outside_v1(self, fleet):
        router, pool, _managers = fleet
        calls = [worker.calls for worker in pool.workers()]
        for method, path in [
            ("GET", "/health"),
            ("GET", "/stats"),
            ("GET", "/workers"),
            ("GET", "/sessions"),
            ("POST", "/sessions"),
            ("POST", "/admin/drain"),
        ]:
            assert router.dispatch(method, path)[0] == 404, (method, path)
        # Answered at the door: no worker saw an RPC, nothing drained.
        assert [worker.calls for worker in pool.workers()] == calls
        assert not router.admission.draining

    def test_health_reports_fleet_liveness(self, fleet):
        router, _pool, _managers = fleet
        status, payload = router.dispatch("GET", "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers"] == {"alive": 3, "total": 3}

    def test_stats_sums_worker_counters(self, fleet):
        router, _pool, _managers = fleet
        for _ in range(2):
            _create(router)
        status, payload = router.dispatch("GET", "/v1/stats")
        assert status == 200
        assert payload["sharded"] is True
        assert payload["created"] == 2
        assert payload["sessions_in_memory"] == 2
        assert payload["router"]["workers"] == 3
        assert payload["router"]["workers_alive"] == 3
        assert payload["router"]["shared_store"] is True
        # Loadgen and the CLI read the merged cache block at top level.
        assert payload["cache"] is not None
        assert {"hits", "misses", "hit_rate"} <= payload["cache"].keys()
        assert payload["datasets"] == ["demo"]

    def test_workers_route_lists_every_worker(self, fleet):
        router, _pool, _managers = fleet
        sid = _create(router)
        status, payload = router.dispatch("GET", "/v1/workers")
        assert status == 200
        entries = payload["workers"]
        assert [e["worker_id"] for e in entries] == [0, 1, 2]
        assert all(e["alive"] for e in entries)
        owner = router._ring.lookup(sid)
        by_id = {e["worker_id"]: e for e in entries}
        assert by_id[owner]["sessions"] == 1

    def test_metrics_disabled_renders_placeholder(self, fleet):
        router, _pool, _managers = fleet
        status, text = router.dispatch("GET", "/v1/metrics")
        assert status == 200
        assert "observability disabled" in text
        status, payload = router.dispatch(
            "GET", "/v1/metrics", query={"format": "json"}
        )
        assert status == 200
        assert payload == {"enabled": False, "families": {}}

    def test_session_listing_merges_across_workers(self, fleet):
        router, _pool, _managers = fleet
        sids = {_create(router) for _ in range(4)}
        status, payload = router.dispatch("GET", "/v1/sessions")
        assert status == 200
        assert {s["session_id"] for s in payload["sessions"]} == sids


class TestAdmissionAndDrain:
    def test_overload_sheds_non_exempt_requests(
        self, two_cluster_data, tmp_path
    ):
        data, _ = two_cluster_data
        socket_dir = str(tmp_path / "socks")
        os.makedirs(socket_dir, exist_ok=True)

        def factory(worker_id):
            manager = SessionManager({"demo": data})
            return InProcessWorker(
                ServiceAPI(manager), manager, worker_id, socket_dir
            )

        pool = WorkerPool(1, factory)
        router = Router(
            pool, admission=AdmissionController(max_inflight=1)
        )
        try:
            with router.admission.admit():  # occupy the only slot
                status, payload = router.dispatch(
                    "POST", "/v1/sessions", body={"dataset": "demo"}
                )
                assert status == 503
                assert payload["kind"] == "overloaded"
                assert payload["retry_after"] > 0
                # Local routes stay reachable while shedding.
                assert router.dispatch("GET", "/v1/health")[0] == 200
            assert router.dispatch(
                "POST", "/v1/sessions", body={"dataset": "demo"}
            )[0] == 201
        finally:
            router.close()

    def test_drain_checkpoints_and_sheds(self, fleet):
        router, _pool, managers = fleet
        for _ in range(3):
            _create(router)
        report = router.drain(budget_seconds=5.0)
        assert report["idle"] is True
        assert report["checkpointed"] == 3
        assert report["abandoned_inflight"] == 0
        assert router.last_drain is report
        status, payload = router.dispatch(
            "POST", "/v1/sessions", body={"dataset": "demo"}
        )
        assert status == 503
        assert payload["kind"] == "draining"

    def test_admin_drain_endpoint_accepts(self, fleet):
        router, _pool, _managers = fleet
        status, payload = router.dispatch("POST", "/v1/admin/drain", body={})
        assert status == 202
        assert payload["draining"] is True


class TestMigrationAndRelease:
    def test_dead_worker_session_migrates_to_a_survivor(self, fleet):
        router, pool, _managers = fleet
        sid = _create(router)
        status, _ = router.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={
                "feedback": [
                    {"kind": "cluster", "rows": [0, 1, 2], "label": "a"}
                ]
            },
        )
        assert status == 200
        owner = router._ring.lookup(sid)
        pool.worker(owner).kill()
        status, view = router.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert status == 200
        assert view["session_id"] == sid
        assert router.reroutes >= 1
        new_owner = router._owners[sid]
        assert new_owner != owner
        # The feedback survived the migration via the shared store.
        status, stats = router.dispatch("GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert len(stats["feedback_log"]) >= 1
        # The slot respawns in the background and rejoins the ring.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if owner in router._ring.workers():
                break
            time.sleep(0.05)
        assert owner in router._ring.workers()
        assert pool.respawns == 1

    def test_ownership_move_releases_the_previous_owner(self, fleet):
        router, pool, managers = fleet
        sid = _create(router)
        owner = router._ring.lookup(sid)
        other = next(
            wid for wid in pool.live_ids() if wid != owner
        )
        # Simulate an interim owner: make `other` resume the session
        # directly (as it would during the ring-owner's outage) …
        reply = pool.worker(other).call(
            {
                "op": "request",
                "method": "GET",
                "path": f"/v1/sessions/{sid}",
                "body": {},
                "query": {},
            }
        )
        assert reply["ok"] and reply["status"] == 200
        assert managers[other].live_session_count() == 1
        with router._owners_lock:
            router._owners[sid] = other
        # … then route through the front door: ownership snaps back to
        # the ring owner, and the interim copy is released first.
        status, _ = router.dispatch("GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert router.reroutes == 1
        assert router.releases == 1
        assert router._owners[sid] == owner
        assert managers[other].live_session_count() == 0


class TestTornWorkerConnection:
    """Every RPC fails while the workers stay alive (a torn connection):
    the door must still answer, never drop the HTTP connection."""

    @pytest.fixture
    def torn(self, fleet, monkeypatch):
        router, pool, _managers = fleet

        def call(payload, timeout=None):
            raise WorkerDiedError("connection reset by peer")

        for worker in pool.workers():
            monkeypatch.setattr(worker, "call", call)
        return router

    def test_dispatch_answers_503_no_workers(self, torn):
        for path in ("/v1/datasets", "/v1/sessions/s1/view"):
            status, payload = torn.dispatch("GET", path)
            assert status == 503, (path, payload)
            assert payload["kind"] == "no_workers"
            assert payload["retry_after"] > 0

    def test_http_client_gets_the_503(self, torn):
        server = start_background(torn)
        try:
            client = ServiceClient(
                server.base_url, max_retries=0, breaker=False
            )
            with pytest.raises(ServiceClientError) as info:
                client.datasets()
            assert info.value.status == 503
            assert info.value.payload["kind"] == "no_workers"
        finally:
            server.stop()

