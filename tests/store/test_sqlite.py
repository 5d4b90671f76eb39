"""Tests for the SQLite session store (checkpoints + WAL in one DB)."""

import sqlite3

import pytest

from repro.service.store import SessionNotFoundError, StoreError
from repro.store.sqlite import SCHEMA_VERSION, SQLiteStore


@pytest.fixture
def store(tmp_path):
    s = SQLiteStore(tmp_path / "sessions.db")
    yield s
    s.close()


class TestCheckpoints:
    def test_put_get_roundtrip(self, store):
        store.checkpoint_and_prune("s1", {"dataset": "x", "wal_seq": 3}, 3)
        assert store.get("s1") == {"dataset": "x", "wal_seq": 3}

    def test_overwrite(self, store):
        store.checkpoint_and_prune("s", {"v": 1}, 0)
        store.checkpoint_and_prune("s", {"v": 2}, 0)
        assert store.get("s") == {"v": 2}

    def test_missing_id_raises(self, store):
        with pytest.raises(SessionNotFoundError):
            store.get("nope")

    def test_contains_and_list(self, store):
        store.checkpoint_and_prune("b", {"v": 1}, 0)
        store.checkpoint_and_prune("a", {"v": 2}, 0)
        assert "a" in store and "zz" not in store
        assert store.list_ids() == ["a", "b"]

    def test_list_ids_includes_wal_only_sessions(self, store):
        store.checkpoint_and_prune("ckpt", {"v": 1}, 0)
        store.append_feedback("logonly", [{"kind": "cluster", "rows": [1]}])
        assert store.list_ids() == ["ckpt", "logonly"]

    def test_delete_removes_checkpoint_and_log(self, store):
        store.checkpoint_and_prune("s", {"v": 1}, 0)
        store.append_feedback("s", [{"rows": [1]}])
        store.delete("s")
        assert "s" not in store
        assert store.list_ids() == []
        assert store.feedback_tail("s") == ([], None)

    def test_delete_is_idempotent(self, store):
        store.checkpoint_and_prune("s", {"v": 1}, 0)
        store.delete("s")
        store.delete("s")

    def test_unsafe_session_id_rejected(self, store):
        with pytest.raises(StoreError):
            store.checkpoint_and_prune("../evil", {"v": 1}, 0)

    def test_memory_url_rejected(self):
        with pytest.raises(StoreError):
            SQLiteStore(":memory:")


class TestFeedbackLog:
    def test_append_assigns_contiguous_seqs(self, store):
        assert store.append_feedback("s", [{"i": 0}]).seq == 1
        assert store.append_feedback("s", [{"i": 1}]).seq == 2
        assert store.append_feedback("other", [{"i": 0}]).seq == 1
        assert store.last_seq("s") == 2

    def test_records_verify_after_reopen(self, store, tmp_path):
        store.append_feedback("s", [{"i": 0}], kind="feedback")
        store.append_feedback("s", [], kind="undo")
        fresh = SQLiteStore(store.path)
        records, damage = fresh.feedback_tail("s")
        assert damage is None
        assert [(r.seq, r.kind) for r in records] == [
            (1, "feedback"),
            (2, "undo"),
        ]
        assert all(r.verify() for r in records)
        fresh.close()

    def test_rollback_removes_the_row(self, store):
        store.append_feedback("s", [{"i": 0}])
        rec = store.append_feedback("s", [{"i": 1}])
        store.rollback_feedback("s", rec.seq)
        records, _ = store.feedback_tail("s")
        assert [r.seq for r in records] == [1]
        # The rolled-back seq is reused by the next append.
        assert store.append_feedback("s", [{"i": 2}]).seq == 2

    def test_feedback_tail_after_seq(self, store):
        for i in range(4):
            store.append_feedback("s", [{"i": i}])
        records, _ = store.feedback_tail("s", after_seq=2)
        assert [r.seq for r in records] == [3, 4]

    def test_unreadable_row_reported_as_damage(self, store):
        store.append_feedback("s", [{"i": 0}])
        store.append_feedback("s", [{"i": 1}])
        with sqlite3.connect(store.path) as conn:
            conn.execute(
                "UPDATE wal SET items = 'not json' WHERE seq = 2"
            )
        records, damage = store.feedback_tail("s")
        assert damage is not None
        assert [r.seq for r in records] == [1]


class TestSeqFloor:
    """Sequence numbers must stay monotonic across compaction folds.

    Regression guard for the silent-data-loss bug where a fold emptied
    the wal table and the next append restarted at seq 1 — at or below
    the checkpoint's ``wal_seq``, so recovery (replaying only
    ``seq > wal_seq``) skipped acknowledged batches.
    """

    def test_seq_continues_after_full_prune(self, store):
        for i in range(3):
            store.append_feedback("s", [{"i": i}])
        store.checkpoint_and_prune("s", {"wal_seq": 3}, 3)
        assert store.last_seq("s") == 3
        assert store.append_feedback("s", [{"i": 3}]).seq == 4

    def test_seq_floor_survives_reopen(self, store):
        for i in range(3):
            store.append_feedback("s", [{"i": i}])
        store.checkpoint_and_prune("s", {"wal_seq": 3}, 3)
        fresh = SQLiteStore(store.path)
        assert fresh.last_seq("s") == 3
        assert fresh.append_feedback("s", [{"i": 3}]).seq == 4
        fresh.close()

    def test_post_fold_appends_visible_to_recovery(self, store):
        for i in range(3):
            store.append_feedback("s", [{"i": i}])
        store.checkpoint_and_prune("s", {"wal_seq": 3}, 3)
        store.append_feedback("s", [{"i": 3}])
        ckpt_seq = store.get("s")["wal_seq"]
        records, _ = store.feedback_tail("s", after_seq=ckpt_seq)
        assert [r.items for r in records] == [[{"i": 3}]]


class TestCheckpointAndPrune:
    def test_transactional_fold(self, store):
        for i in range(4):
            store.append_feedback("s", [{"i": i}])
        pruned = store.checkpoint_and_prune("s", {"v": 9, "wal_seq": 4}, 4)
        assert pruned == 4
        assert store.get("s") == {"v": 9, "wal_seq": 4}
        assert store.feedback_tail("s") == ([], None)

    def test_partial_fold_keeps_newer_records(self, store):
        for i in range(4):
            store.append_feedback("s", [{"i": i}])
        store.checkpoint_and_prune("s", {"wal_seq": 2}, 2)
        records, _ = store.feedback_tail("s", after_seq=2)
        assert [r.seq for r in records] == [3, 4]


class TestSchema:
    def test_fresh_db_has_current_version(self, store):
        with sqlite3.connect(store.path) as conn:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
        assert version == SCHEMA_VERSION

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "future.db"
        SQLiteStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        with pytest.raises(StoreError, match="newer"):
            SQLiteStore(path)

    def test_negative_schema_refused(self, tmp_path):
        path = tmp_path / "odd.db"
        SQLiteStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute("PRAGMA user_version = -1")
        with pytest.raises(StoreError, match="schema version -1;"):
            SQLiteStore(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not a sqlite database at all")
        with pytest.raises(StoreError):
            SQLiteStore(path)


class TestForkSafety:
    """A connection inherited across fork() must be dropped, never reused.

    Simulated by monkeypatching the PID the store sees: touching (or
    closing) the parent's handle from a "child" would release the
    parent's locks mid-transaction, so on a PID change the store must
    open a fresh connection and leave the inherited one strictly alone.
    """

    def test_pid_change_reopens_the_connection(self, store, monkeypatch):
        import repro.store.sqlite as sqlite_module

        store.checkpoint_and_prune("a", {"v": 1}, 0)
        parent_conn = store._conn()
        assert store._conn() is parent_conn  # cached within one process

        monkeypatch.setattr(sqlite_module.os, "getpid", lambda: -1)
        child_conn = store._conn()
        assert child_conn is not parent_conn
        # The store still works through the fresh handle.
        assert store.get("a") == {"v": 1}
        store.checkpoint_and_prune("b", {"v": 2}, 0)
        # The inherited handle was dropped without close(): it is still
        # usable, exactly as the parent process would need it to be.
        assert parent_conn.execute("SELECT 1").fetchone() == (1,)
        child_conn.close()

    def test_close_in_child_leaves_parent_handle_open(
        self, store, monkeypatch
    ):
        import repro.store.sqlite as sqlite_module

        store.checkpoint_and_prune("a", {"v": 1}, 0)
        parent_conn = store._conn()

        monkeypatch.setattr(sqlite_module.os, "getpid", lambda: -1)
        store.close()  # "child" closing the store it inherited
        assert parent_conn.execute("SELECT 1").fetchone() == (1,)

        monkeypatch.undo()
        # Back in the "parent": the store reopens lazily and still works.
        assert store.get("a") == {"v": 1}
