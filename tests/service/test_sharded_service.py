"""End-to-end tests of the sharded service over real worker processes.

These spawn genuine ``ProcessWorker`` children (fresh interpreters via
``spawn``) over one shared SQLite session store and one shared L2 solve
cache, and prove the two cross-process guarantees the sharded service
makes:

* **cache-tier parity** — a solve stored by worker A is fetched
  bit-identically by worker B, and again by a freshly restarted fleet;
* **crash migration** — after ``SIGKILL`` of a session's owner, the
  front-end reroutes the session to a survivor whose recovered view
  matches a never-crashed single-process oracle exactly.

Process spawning is slow, so the fleets here are small and shared
within each test; everything else about the wire path is covered at
thread speed in ``test_router.py``.
"""

import json
import os
import time

import pytest

import repro.service.router as router_module
from repro.cli import DATASETS
from repro.service.api import ServiceAPI
from repro.service.manager import SessionManager
from repro.service.router import (
    MAX_SOCKET_PATH_BYTES,
    HashRing,
    ProcessWorker,
    Router,
    WorkerPool,
    start_fleet,
)
from repro.service.worker import WorkerConfig
from repro.store import store_from_url

DATASET = "three-d"

#: Identical feedback applied wherever parity is asserted.
FEEDBACK = [
    {"kind": "cluster", "rows": [0, 1, 2, 3, 4, 5], "label": "a"},
    {"kind": "cluster", "rows": [30, 31, 32, 33], "label": "b"},
]


def _sid_for(worker_id: int, n_workers: int, prefix: str) -> str:
    """A session id that the ring assigns to ``worker_id``."""
    ring = HashRing(worker_ids=range(n_workers))
    for i in range(10_000):
        sid = f"{prefix}-{i}"
        if ring.lookup(sid) == worker_id:
            return sid
    raise AssertionError("no sid found — the ring must be broken")


def _spawn_fleet(base_dir, size=2, respawn=True):
    """Router over ``size`` ProcessWorkers sharing a store and an L2."""
    socket_dir = os.path.join(str(base_dir), "socks")
    os.makedirs(socket_dir, exist_ok=True)
    store_url = f"sqlite:{os.path.join(str(base_dir), 'store.db')}"
    l2_path = os.path.join(str(base_dir), "solve-cache.db")

    def factory(worker_id):
        return ProcessWorker(
            WorkerConfig(
                worker_id=worker_id,
                socket_path=os.path.join(
                    socket_dir, f"worker-{worker_id}.sock"
                ),
                store_url=store_url,
                l2_cache_path=l2_path,
            )
        )

    pool = WorkerPool(size, factory, respawn=respawn)
    return Router(pool, shared_store=True)


def _drive(router, sid, feedback=FEEDBACK):
    """Create ``sid``, apply the canonical feedback, return its view."""
    status, payload = router.dispatch(
        "POST", "/v1/sessions", body={"dataset": DATASET, "session_id": sid}
    )
    assert status == 201, payload
    status, payload = router.dispatch(
        "POST", f"/v1/sessions/{sid}/feedback", body={"feedback": feedback}
    )
    assert status == 200, payload
    status, view = router.dispatch("GET", f"/v1/sessions/{sid}/view")
    assert status == 200, view
    return view


def _worker_cache_stats(router):
    """Per-worker cache stats keyed by worker id, via ``/v1/stats``."""
    status, payload = router.dispatch("GET", "/v1/stats")
    assert status == 200
    return {
        w["worker_id"]: w.get("cache")
        for w in payload["workers"]
        if w.get("alive")
    }


class TestCrossProcessCacheParity:
    def test_solve_by_worker_a_is_hit_on_worker_b_and_after_restart(
        self, tmp_path
    ):
        sid_a = _sid_for(0, 2, "parity-a")
        sid_b = _sid_for(1, 2, "parity-b")
        router = _spawn_fleet(tmp_path / "fleet1")
        try:
            view_a = _drive(router, sid_a)
            view_b = _drive(router, sid_b)
            # Same dataset, seed, and feedback on two different worker
            # processes: worker B must answer from the shared L2 tier,
            # bit-identically to worker A's solve.
            assert view_a["axes"] == view_b["axes"]
            caches = _worker_cache_stats(router)
            assert caches[0]["l2"]["stores"] >= 1
            assert caches[1]["l2"]["hits"] >= 1
        finally:
            router.close()

        # A brand-new fleet on the same L2 file (service restart): the
        # solve survives and is fetched bit-identically again.
        router = _spawn_fleet(tmp_path / "fleet1")
        try:
            sid_c = _sid_for(0, 2, "parity-c")
            view_c = _drive(router, sid_c)
            assert view_c["axes"] == view_a["axes"]
            caches = _worker_cache_stats(router)
            assert caches[0]["l2"]["hits"] >= 1
            assert caches[0]["l2"]["stores"] == 0  # nothing re-solved
        finally:
            router.close()


class TestCrashMigration:
    def test_kill9_owner_migrates_session_and_matches_oracle(self, tmp_path):
        sid = _sid_for(0, 2, "migrate")
        router = _spawn_fleet(tmp_path / "fleet")
        try:
            pre_crash_view = _drive(router, sid)
            owner = router._ring.lookup(sid)
            assert owner == 0

            victim = router.pool.worker(owner)
            victim.kill()  # SIGKILL: no checkpoint, no goodbye
            assert not victim.alive()

            status, view = router.dispatch("GET", f"/v1/sessions/{sid}/view")
            assert status == 200, view
            assert router.reroutes >= 1
            assert router._owners[sid] != owner

            # The recovered view is exactly the pre-crash view …
            assert view["axes"] == pre_crash_view["axes"]

            # … and exactly what a process that never crashed computes.
            bundle = DATASETS[DATASET]()
            oracle_api = ServiceAPI(
                SessionManager(
                    {DATASET: bundle},
                    store=store_from_url(
                        f"sqlite:{tmp_path / 'oracle.db'}"
                    ),
                )
            )
            status, _ = oracle_api.dispatch(
                "POST",
                "/v1/sessions",
                body={"dataset": DATASET, "session_id": sid},
            )
            assert status == 201
            status, _ = oracle_api.dispatch(
                "POST",
                f"/v1/sessions/{sid}/feedback",
                body={"feedback": FEEDBACK},
            )
            assert status == 200
            status, oracle_view = oracle_api.dispatch(
                "GET", f"/v1/sessions/{sid}/view"
            )
            assert status == 200
            # The sharded view crossed a JSON RPC hop; normalise the
            # oracle the same way (exact for finite floats).
            oracle_view = json.loads(json.dumps(oracle_view))
            assert view["axes"] == oracle_view["axes"]
            assert view["scores"] == oracle_view["scores"]
            assert view["all_scores"] == oracle_view["all_scores"]

            # The feedback log migrated intact.
            status, stats = router.dispatch("GET", f"/v1/sessions/{sid}")
            assert status == 200
            assert len(stats["feedback_log"]) == len(FEEDBACK)
        finally:
            router.close()

    def test_killed_worker_slot_respawns(self, tmp_path):
        sid = _sid_for(0, 2, "respawn")
        router = _spawn_fleet(tmp_path / "fleet")
        try:
            _drive(router, sid, feedback=FEEDBACK[:1])
            router.pool.worker(0).kill()
            status, _ = router.dispatch("GET", f"/v1/sessions/{sid}")
            assert status == 200
            # The replacement joins the pool (on a background thread)
            # and answers health checks.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if router.pool.respawns >= 1 and router.pool.worker(0).alive():
                    break
                time.sleep(0.1)
            assert router.pool.respawns == 1
            assert router.pool.worker(0).wait_ready(timeout=30.0)
            status, payload = router.dispatch("GET", "/v1/health")
            assert status == 200
            assert payload["workers"]["alive"] == 2
        finally:
            router.close()


class TestFleetLifecycle:
    def test_close_leaves_no_pooled_rpc_client(self, short_tmp):
        # Terminating a worker sends `shutdown` over a fresh client; that
        # client must be closed too, not left in the pool.
        router = start_fleet(2, WorkerConfig(), str(short_tmp))
        workers = router.pool.workers()
        router.close()
        assert [w.alive() for w in workers] == [False, False]
        assert [len(w._clients) for w in workers] == [0, 0]

    def test_each_worker_rotates_its_own_event_log(self, short_tmp, tmp_path):
        log = tmp_path / "ev.jsonl"
        router = start_fleet(
            1,
            WorkerConfig(obs_log=str(log), obs_log_max_bytes=400),
            str(short_tmp),
        )
        try:
            for _ in range(10):
                assert router.dispatch("GET", "/v1/datasets")[0] == 200
        finally:
            router.close()
        assert (tmp_path / "ev.jsonl.worker0").exists()
        assert (tmp_path / "ev.jsonl.worker0.1").exists()

    def test_too_long_socket_path_fails_before_any_worker_starts(
        self, tmp_path, monkeypatch
    ):
        def no_spawn(config):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(router_module, "ProcessWorker", no_spawn)
        runtime_dir = str(tmp_path / "r").ljust(120, "x")
        with pytest.raises(ValueError) as raised:
            start_fleet(2, WorkerConfig(), runtime_dir)
        message = str(raised.value)
        assert os.path.join(runtime_dir, "worker-0.sock") in message
        assert str(MAX_SOCKET_PATH_BYTES) in message
