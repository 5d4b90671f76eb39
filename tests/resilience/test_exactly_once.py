"""Exactly-once feedback under injected faults.

Two escalating proofs that an ``Idempotency-Key`` makes feedback retries
safe even when the failure is *ambiguous* (the batch committed but the
client never heard back):

1. in-process — a chaos fault throws after the WAL commit; retrying the
   same key answers from the dedup window instead of double-applying;
2. kill -9 over HTTP — the worker process dies (``os._exit(137)``) after
   committing a batch but before responding; the client retries the same
   key against a restarted server on the same database and the final
   state is bit-for-bit identical to a never-crashed oracle.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.feedback import ClusterFeedback
from repro.resilience import ChaosError, configure_chaos, disable_chaos
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import SessionManager
from repro.store.recovery import verify_store
from repro.store.sqlite import SQLiteStore

_REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

SEED = 123
DATA_SEED = 42


def workload_data() -> np.ndarray:
    rng = np.random.default_rng(DATA_SEED)
    a = rng.normal([0.0, 0.0, 0.0], 0.3, (40, 3))
    b = rng.normal([3.0, 3.0, 0.0], 0.3, (30, 3))
    return np.vstack([a, b])


def make_item(i: int) -> ClusterFeedback:
    rows = tuple(range(i % 9, i % 9 + 6))
    return ClusterFeedback(rows=rows, label=f"batch-{i}")


class TestInProcessPostCommitFault:
    def test_retry_after_post_commit_fault_applies_exactly_once(
        self, tmp_path
    ):
        data = workload_data()
        store = SQLiteStore(tmp_path / "eo.db", fsync="always")
        manager = SessionManager({"wl": data}, store=store)
        sid = manager.create("wl", session_id="eo", seed=SEED)

        # The fault fires after the WAL commit and the dedup-window
        # update but before the caller gets its stats — the worst
        # ambiguous failure: work durable, acknowledgement lost.
        configure_chaos("manager.feedback.post_commit:error:times=1")
        try:
            with pytest.raises(ChaosError):
                manager.apply_feedback(
                    sid, [make_item(0)], idempotency_key="key-0"
                )
        finally:
            disable_chaos()

        # A blind retry with the same key must answer from the dedup
        # window, not re-apply the batch.
        stats = manager.apply_feedback(
            sid, [make_item(0)], idempotency_key="key-0"
        )
        assert stats["duplicate"] is True
        assert stats["applied"] == ["batch-0"]
        assert len(stats["feedback_log"]) == 1

        # The durable log holds exactly one record, which a fresh
        # manager resumes once...
        manager.checkpoint(sid)
        fresh = SessionManager({"wl": data}, store=store)
        assert store.last_seq(sid) == 1
        assert [
            item["label"] for item in fresh.session_stats(sid)["feedback_log"]
        ] == ["batch-0"]

        # ...and the view equals an oracle that saw the batch once.
        oracle = ExplorationSession(data, seed=SEED)
        oracle.apply_many([make_item(0)])
        view, _ = manager.view(sid)
        np.testing.assert_array_equal(view.axes, oracle.current_view().axes)
        store.close()

    def test_distinct_keys_still_apply_normally(self, tmp_path):
        data = workload_data()
        store = SQLiteStore(tmp_path / "eo2.db", fsync="always")
        manager = SessionManager({"wl": data}, store=store)
        sid = manager.create("wl", session_id="eo2", seed=SEED)
        first = manager.apply_feedback(
            sid, [make_item(0)], idempotency_key="key-a"
        )
        second = manager.apply_feedback(
            sid, [make_item(1)], idempotency_key="key-b"
        )
        assert "duplicate" not in first
        assert "duplicate" not in second
        assert len(second["feedback_log"]) == 2
        store.close()


_SERVER_SCRIPT = """
import sys

import numpy as np

from repro.resilience import chaos
from repro.service.manager import SessionManager
from repro.service.server import ReproServer
from repro.store.sqlite import SQLiteStore

db_path = sys.argv[1]

rng = np.random.default_rng(42)
a = rng.normal([0.0, 0.0, 0.0], 0.3, (40, 3))
b = rng.normal([3.0, 3.0, 0.0], 0.3, (30, 3))
data = np.vstack([a, b])

chaos.configure_from_env()

store = SQLiteStore(db_path, fsync="always")
manager = SessionManager({"wl": data}, store=store)
server = ReproServer(manager, port=0)
print(server.server_address[1], flush=True)
server.serve_forever()
"""


def _spawn_server(db_path, extra_env=None):
    env = {
        "PYTHONPATH": _REPO_SRC,
        "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    if extra_env:
        env.update(extra_env)
    worker = subprocess.Popen(
        [sys.executable, "-c", _SERVER_SCRIPT, str(db_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    port_line = worker.stdout.readline().strip()
    if not port_line:
        err = worker.stderr.read()
        worker.kill()
        pytest.fail(f"server worker never reported a port: {err}")
    return worker, int(port_line)


def test_kill9_post_commit_retry_is_exactly_once(tmp_path):
    """The acceptance-criteria chaos scenario, end to end over HTTP."""
    db_path = tmp_path / "kill.db"
    chaos_log = tmp_path / "chaos.jsonl"

    # Round 1: the worker is rigged to die (exit 137) right after the
    # THIRD feedback commit, before the response is written.
    worker, port = _spawn_server(
        db_path,
        extra_env={
            "REPRO_CHAOS": "manager.feedback.post_commit:kill:after=2:times=1",
            "REPRO_CHAOS_LOG": str(chaos_log),
        },
    )
    retry_key = "retry-me-once"
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{port}",
            retry_delay=0.0,
            breaker=False,
        )
        sid = client.create_session("wl", session_id="kill", seed=SEED)
        client.apply_feedback(sid, [make_item(0)])
        client.apply_feedback(sid, [make_item(1)])

        # Batch 2 commits server-side; the worker dies before answering.
        # The client's automatic retries (same pending key) hit a corpse
        # and the call surfaces as a transport error, leaving the retry
        # decision — and the key — with the caller.
        with pytest.raises(ServiceClientError) as info:
            client.apply_feedback(
                sid, [make_item(2)], idempotency_key=retry_key
            )
        assert info.value.status == 0
        assert client.last_attempts > 1  # it genuinely retried first
        worker.wait(timeout=30)
        assert worker.returncode == 137
    finally:
        if worker.poll() is None:  # pragma: no cover - cleanup on failure
            worker.kill()
        worker.stdout.close()
        worker.stderr.close()

    # The chaos log recorded the kill before the process died.
    assert "kill" in chaos_log.read_text()

    # Round 2: a fresh worker on the same database, no faults.  The
    # client resends the SAME idempotency key — the only safe move after
    # an ambiguous failure — and the server answers from its dedup
    # window instead of applying batch 2 twice.
    worker2, port2 = _spawn_server(db_path)
    try:
        client2 = ServiceClient(f"http://127.0.0.1:{port2}", breaker=False)
        stats = client2.apply_feedback(
            "kill", [make_item(2)], idempotency_key=retry_key
        )
        assert stats["duplicate"] is True
        assert stats["applied"] == ["batch-2"]
        assert len(stats["feedback_log"]) == 3
        assert client2.counters["dedup"] == 1

        # The restarted server serves the session with all three batches.
        view = client2.view("kill")
    finally:
        worker2.kill()
        worker2.wait(timeout=30)
        worker2.stdout.close()
        worker2.stderr.close()

    # Offline: the store verifies clean, holds exactly three records,
    # and replays to a view bit-identical to a never-crashed oracle.
    store = SQLiteStore(db_path)
    report = verify_store(store, policy="fail")
    assert report["ok"], report
    manager = SessionManager({"wl": workload_data()}, store=store)
    assert store.last_seq("kill") == 3
    assert [
        item["label"] for item in manager.session_stats("kill")["feedback_log"]
    ] == ["batch-0", "batch-1", "batch-2"]
    oracle = ExplorationSession(workload_data(), seed=SEED)
    for i in range(3):
        oracle.apply_many([make_item(i)])
    recovered, _ = manager.view("kill")
    np.testing.assert_array_equal(
        recovered.axes, oracle.current_view().axes
    )
    np.testing.assert_array_equal(
        recovered.scores, oracle.current_view().scores
    )
    np.testing.assert_array_equal(
        np.asarray(view["axes"]), oracle.current_view().axes
    )
    store.close()
