"""The headline durability proof: kill -9 mid-workload, recover everything.

A worker process serves feedback batches into a SQLite-backed manager
with ``fsync=always`` and records an acknowledgement (fsynced to a side
file) after each accepted batch.  The parent SIGKILLs it mid-workload —
no atexit, no finally blocks, no flushes — then recovers from the
database alone and checks that every acknowledged batch survived and
that the recovered view is bit-for-bit identical to an uninterrupted
oracle session fed the same batches.  Recovery is the session manager's
resume, the code a restarted server runs.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.feedback import ClusterFeedback
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


_WORKER_SCRIPT = """
import os
import sys

import numpy as np

from repro.feedback import ClusterFeedback
from repro.service.manager import SessionManager
from repro.store.sqlite import SQLiteStore

db_path, ack_path = sys.argv[1], sys.argv[2]

rng = np.random.default_rng(42)
a = rng.normal([0.0, 0.0, 0.0], 0.3, (40, 3))
b = rng.normal([3.0, 3.0, 0.0], 0.3, (30, 3))
data = np.vstack([a, b])

store = SQLiteStore(db_path, fsync="always")
manager = SessionManager(
    {"wl": data},
    store=store,
    max_tail_records=4,  # fold repeatedly during the run
)
sid = manager.create("wl", session_id="crash", seed=123)

ack = open(ack_path, "a")
for i in range(10_000):
    rows = tuple(range(i % 9, i % 9 + 6))
    manager.apply_feedback(
        sid, [ClusterFeedback(rows=rows, label=f"batch-{i}")]
    )
    # The acknowledgement is itself made durable before the next batch,
    # so after SIGKILL the ack file is a lower bound on what the server
    # accepted — exactly the set the database must still contain.
    ack.write(f"{i}\\n")
    ack.flush()
    os.fsync(ack.fileno())
"""


def _count_acks(ack_path: Path) -> int:
    try:
        return len(ack_path.read_text().splitlines())
    except FileNotFoundError:
        return 0


def test_kill9_recovers_every_acked_batch_bit_for_bit(tmp_path):
    db_path = tmp_path / "crash.db"
    ack_path = tmp_path / "acks.log"
    worker = subprocess.Popen(
        [sys.executable, "-c", _WORKER_SCRIPT, str(db_path), str(ack_path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={
            "PYTHONPATH": _REPO_SRC,
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )
    try:
        # Let it work through at least two compaction folds, then murder
        # it mid-stride — no shutdown path of any kind runs.
        deadline = time.monotonic() + 120
        while _count_acks(ack_path) < 10:
            if worker.poll() is not None:
                pytest.fail(f"worker died early: {worker.stderr.read()}")
            if time.monotonic() > deadline:
                pytest.fail("worker never reached 10 acked batches")
            time.sleep(0.02)
        os.kill(worker.pid, signal.SIGKILL)
        worker.wait(timeout=30)
    finally:
        if worker.poll() is None:  # pragma: no cover - cleanup on failure
            worker.kill()
        worker.stderr.close()

    acked = _count_acks(ack_path)
    assert acked >= 10

    # The store must verify clean under the strict policy: fsync=always
    # admits no torn tail at all.
    store = SQLiteStore(db_path)
    report = verify_store(store, policy="fail")
    assert report["ok"], report

    # Every acknowledged batch is covered: folded into the checkpoint or
    # still replayable in the tail.  (One unacked batch may also have
    # committed if the kill landed between append and ack — fine: it was
    # durable, recovery replays it too.)  A fresh manager resumes the
    # session exactly as a restarted server would.
    manager = SessionManager({"wl": workload_data()}, store=store)
    stats = manager.session_stats("crash")
    total = store.last_seq("crash")
    assert total >= acked
    assert total <= acked + 1
    labels = [item["label"] for item in stats["feedback_log"]]
    assert labels == [f"batch-{i}" for i in range(total)]

    # Bit-for-bit view parity against an oracle that never crashed.
    oracle = ExplorationSession(workload_data(), seed=SEED)
    for i in range(total):
        oracle.apply_many([make_item(i)])
    view, _ = manager.view("crash")
    np.testing.assert_array_equal(view.axes, oracle.current_view().axes)
    np.testing.assert_array_equal(
        view.scores, oracle.current_view().scores
    )
    assert manager.stats()["durable"] is True
    store.close()
