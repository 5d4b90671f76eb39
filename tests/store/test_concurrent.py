"""Concurrent access to one SQLite store: threads, processes, compaction.

Satellite of the durability work: SQLite serialises writers via the
busy-timeout, so concurrent appenders must never lose a record, never
reuse a sequence number, and ``list_ids`` must stay consistent.
"""

import multiprocessing
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service.cache import L2SolveCache
from repro.store.sqlite import SQLiteStore

_REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

_APPENDER_SCRIPT = """
import sys
from repro.store.sqlite import SQLiteStore

path, worker, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = SQLiteStore(path)
for i in range(count):
    rec = store.append_feedback(
        "shared", [{"worker": worker, "i": i}]
    )
    print(rec.seq, flush=True)
store.close()
"""


class TestThreads:
    def test_two_threads_never_lose_or_duplicate_seqs(self, tmp_path):
        store = SQLiteStore(tmp_path / "c.db", busy_timeout_ms=10_000)
        per_thread = 40
        seqs: list[int] = []
        lock = threading.Lock()

        def appender(worker: str) -> None:
            for i in range(per_thread):
                rec = store.append_feedback(
                    "shared", [{"worker": worker, "i": i}]
                )
                with lock:
                    seqs.append(rec.seq)

        threads = [
            threading.Thread(target=appender, args=(name,))
            for name in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert sorted(seqs) == list(range(1, 2 * per_thread + 1))
        records, damage = store.feedback_tail("shared")
        assert damage is None
        assert [r.seq for r in records] == list(range(1, 2 * per_thread + 1))
        # Per-worker batches arrive in their submission order.
        for worker in ("t1", "t2"):
            ours = [r.items[0]["i"] for r in records
                    if r.items[0]["worker"] == worker]
            assert ours == list(range(per_thread))
        store.close()

    def test_append_while_compacting(self, tmp_path):
        store = SQLiteStore(tmp_path / "c.db", busy_timeout_ms=10_000)
        for i in range(10):
            store.append_feedback("shared", [{"i": i}])
        stop = threading.Event()
        errors: list[Exception] = []

        def folder() -> None:
            try:
                while not stop.is_set():
                    floor = store.last_seq("shared")
                    store.checkpoint_and_prune(
                        "shared", {"wal_seq": floor}, floor
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        thread = threading.Thread(target=folder)
        thread.start()
        try:
            appended = [
                store.append_feedback("shared", [{"i": i}]).seq
                for i in range(10, 60)
            ]
        finally:
            stop.set()
            thread.join()
        assert not errors
        # Folds never handed out a stale floor: seqs stay strictly
        # increasing even while records are being pruned underneath.
        assert appended == sorted(set(appended))
        assert appended[0] > 10
        assert store.last_seq("shared") == appended[-1]
        store.close()


class TestProcesses:
    def test_two_processes_share_one_db(self, tmp_path):
        path = str(tmp_path / "multi.db")
        SQLiteStore(path).close()  # create the schema up front
        per_proc = 25
        procs = [
            subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _APPENDER_SCRIPT,
                    path,
                    name,
                    str(per_proc),
                ],
                capture_output=True,
                text=True,
                timeout=120,
                env={
                    "PYTHONPATH": _REPO_SRC,
                    "PATH": "/usr/bin:/bin:/usr/local/bin",
                },
            )
            for name in ("p1", "p2")
        ]
        for proc in procs:
            assert proc.returncode == 0, proc.stderr

        store = SQLiteStore(path)
        records, damage = store.feedback_tail("shared")
        assert damage is None
        assert [r.seq for r in records] == list(range(1, 2 * per_proc + 1))
        assert all(r.verify() for r in records)
        assert store.list_ids() == ["shared"]
        for worker in ("p1", "p2"):
            ours = [r.items[0]["i"] for r in records
                    if r.items[0]["worker"] == worker]
            assert ours == list(range(per_proc))
        store.close()

    def test_compaction_races_a_writer_process(self, tmp_path):
        path = str(tmp_path / "race.db")
        store = SQLiteStore(path, busy_timeout_ms=10_000)
        writer = subprocess.Popen(
            [sys.executable, "-c", _APPENDER_SCRIPT, path, "w", "40"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                "PYTHONPATH": _REPO_SRC,
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )
        try:
            # Fold repeatedly while the other process appends.
            for _ in range(20):
                floor = store.last_seq("shared")
                store.checkpoint_and_prune("shared", {"wal_seq": floor}, floor)
        finally:
            out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        acked = [int(line) for line in out.split()]
        assert acked == sorted(set(acked)), "writer saw a reused seq"
        assert len(acked) == 40
        # Every acked batch is either folded into the checkpoint (seq <=
        # wal_seq) or still replayable in the tail — never lost.
        ckpt_seq = store.get("shared")["wal_seq"]
        tail, damage = store.feedback_tail("shared", after_seq=ckpt_seq)
        assert damage is None
        covered = set(range(1, ckpt_seq + 1)) | {r.seq for r in tail}
        assert set(acked) <= covered
        store.close()


def _open_after(opener, path, barrier, results) -> None:
    """Forked child: wait for the others, open ``path``, report."""
    barrier.wait()
    try:
        opener(path).close()
        results.put(None)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        results.put(f"{type(exc).__name__}: {exc}")


@pytest.mark.parametrize("opener", [SQLiteStore, L2SolveCache])
def test_processes_opening_a_new_file_together_all_succeed(tmp_path, opener):
    """The first switch of a new file to WAL is retried while another
    process switches it, instead of failing at once with "database is
    locked" (a fleet's workers open the shared files together)."""
    ctx = multiprocessing.get_context("fork")
    failures = []
    for trial in range(40):
        barrier = ctx.Barrier(3)
        results = ctx.Queue()
        children = [
            ctx.Process(
                target=_open_after,
                args=(opener, tmp_path / f"{trial}.db", barrier, results),
            )
            for _ in range(3)
        ]
        for child in children:
            child.start()
        failures += [results.get(timeout=60) for _ in children]
        for child in children:
            child.join(timeout=60)
            assert not child.is_alive()
    assert [f for f in failures if f] == []
