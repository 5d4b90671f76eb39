"""Tests for log compaction: the manager's threshold and its offline fold."""

import numpy as np

from repro.core.session import ExplorationSession
from repro.feedback import ClusterFeedback
from repro.io import session_to_payload
from repro.service.manager import SessionManager
from repro.store.sqlite import SQLiteStore


def make_item(i: int) -> ClusterFeedback:
    rows = tuple(range(i % 7, i % 7 + 5))
    return ClusterFeedback(rows=rows, label=f"batch-{i}")


def seed_store(store, data, batches, seed=7):
    session = ExplorationSession(data, seed=seed)
    store.checkpoint_and_prune(
        "s",
        {
            "dataset": "small",
            "standardize": False,
            "seed": seed,
            "wal_seq": 0,
            "session": session_to_payload(session),
        },
        0,
    )
    for i in range(batches):
        store.append_feedback("s", [make_item(i).to_dict()])


def offline_manager(store, data) -> SessionManager:
    """A manager set up as ``repro store compact`` sets up its own."""
    return SessionManager(
        {"small": data}, store=store, cache=None, recovery_policy="fail"
    )


def compact(store, data, session_id="s") -> dict:
    """One offline fold: resume, checkpoint and release the session."""
    manager = offline_manager(store, data)
    result = manager.checkpoint(session_id)
    assert manager.release(session_id)
    return result


class TestPolicy:
    """``max_tail_records``: fold at the threshold; ``<= 0`` never folds."""

    def test_defaults_enabled(self, tmp_path, small_data):
        manager = SessionManager(
            {"small": small_data}, store=SQLiteStore(tmp_path / "s.db")
        )
        assert manager.max_tail_records == 64

    def test_zero_or_negative_disables(self, tmp_path, small_data):
        for threshold in (0, -5):
            manager = SessionManager(
                {"small": small_data},
                store=SQLiteStore(tmp_path / f"off{-threshold}.db"),
                max_tail_records=threshold,
            )
            sid = manager.create("small", session_id="off", seed=5)
            for i in range(3):
                manager.apply_feedback(sid, [make_item(i)])
            assert manager.stats()["compactions"] == 0

    def test_folds_exactly_at_threshold(self, tmp_path, small_data):
        store = SQLiteStore(tmp_path / "s.db")
        manager = SessionManager(
            {"small": small_data}, store=store, max_tail_records=4
        )
        sid = manager.create("small", session_id="edge", seed=5)
        for i in range(3):
            manager.apply_feedback(sid, [make_item(i)])
        assert manager.stats()["compactions"] == 0
        manager.apply_feedback(sid, [make_item(3)])
        assert manager.stats()["compactions"] == 1
        assert store.get(sid)["wal_seq"] == 4
        for i in range(4, 9):
            manager.apply_feedback(sid, [make_item(i)])
        assert manager.stats()["compactions"] == 2


class TestCompactOffline:
    def test_fold_replays_and_prunes(self, durable_store, small_data):
        seed_store(durable_store, small_data, batches=6)
        result = compact(durable_store, small_data)
        assert result["replayed"] == 6
        assert result["pruned"] == 6
        assert result["wal_seq"] == 6
        records, damage = durable_store.feedback_tail(
            "s", after_seq=durable_store.get("s")["wal_seq"]
        )
        assert records == [] and damage is None

    def test_fold_is_idempotent(self, durable_store, small_data):
        seed_store(durable_store, small_data, batches=3)
        compact(durable_store, small_data)
        again = compact(durable_store, small_data)
        assert again["replayed"] == 0
        assert again["pruned"] == 0
        assert again["wal_seq"] == 3

    def test_recovery_after_fold_matches_oracle(
        self, durable_store, small_data
    ):
        seed_store(durable_store, small_data, batches=4, seed=13)
        compact(durable_store, small_data)
        # Post-fold appends land above the fold's sequence floor.
        rec = durable_store.append_feedback("s", [make_item(4).to_dict()])
        assert rec.seq == 5
        manager = offline_manager(durable_store, small_data)
        view, _ = manager.view("s")
        oracle = ExplorationSession(small_data, seed=13)
        for i in range(5):
            oracle.apply_many([make_item(i)])
        assert manager.stats()["replayed_batches"] == 1  # post-fold tail
        assert [
            item["label"]
            for item in manager.session_stats("s")["feedback_log"]
        ] == [f.label for f in oracle.feedback_log]
        np.testing.assert_array_equal(view.axes, oracle.current_view().axes)


class TestManagerAutoCompaction:
    def test_fold_triggers_at_threshold(self, durable_store, small_data):
        manager = SessionManager(
            {"small": small_data},
            store=durable_store,
            max_tail_records=3,
        )
        sid = manager.create("small", session_id="auto", seed=5)
        for i in range(7):
            manager.apply_feedback(sid, [make_item(i)])
        stats = manager.stats()
        assert stats["compactions"] >= 2
        # The log tail is short again and the checkpoint covers the folds.
        ckpt_seq = durable_store.get(sid)["wal_seq"]
        records, _ = durable_store.feedback_tail(sid, after_seq=ckpt_seq)
        assert len(records) < 3
        assert durable_store.last_seq(sid) == 7

    def test_disabled_policy_never_folds(self, durable_store, small_data):
        manager = SessionManager(
            {"small": small_data},
            store=durable_store,
            max_tail_records=0,
        )
        sid = manager.create("small", session_id="nofold", seed=5)
        for i in range(6):
            manager.apply_feedback(sid, [make_item(i)])
        assert manager.stats()["compactions"] == 0
        records, _ = durable_store.feedback_tail(sid)
        assert len(records) == 6

    def test_folded_session_recovers_in_fresh_manager(
        self, durable_store, small_data, reopen
    ):
        manager = SessionManager(
            {"small": small_data},
            store=durable_store,
            max_tail_records=2,
        )
        sid = manager.create("small", session_id="refold", seed=9)
        for i in range(5):
            manager.apply_feedback(sid, [make_item(i)])
        view_before, _ = manager.view(sid)
        fresh_manager = SessionManager(
            {"small": small_data}, store=reopen(durable_store)
        )
        view_after, _ = fresh_manager.view(sid)
        np.testing.assert_array_equal(view_before.axes, view_after.axes)
