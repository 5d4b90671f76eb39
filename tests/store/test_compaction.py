"""Tests for log compaction: policy, offline folds, manager integration."""

import numpy as np

from repro.core.session import ExplorationSession
from repro.feedback import ClusterFeedback
from repro.io import session_to_payload
from repro.store.compaction import (
    CompactionPolicy,
    compact_offline,
    should_compact,
)
from repro.store.recovery import recover_session


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


class TestPolicy:
    def test_defaults_enabled(self):
        policy = CompactionPolicy()
        assert policy.enabled
        assert policy.max_tail_records == 64

    def test_zero_or_negative_disables(self):
        assert not CompactionPolicy(0).enabled
        assert not CompactionPolicy(-5).enabled

    def test_should_compact_at_threshold(self):
        policy = CompactionPolicy(4)
        assert not should_compact(policy, 3)
        assert should_compact(policy, 4)
        assert should_compact(policy, 9)
        assert not should_compact(CompactionPolicy(0), 1000)


class TestCompactOffline:
    def test_fold_replays_and_prunes(self, durable_store, small_data):
        seed_store(durable_store, small_data, batches=6)
        result = compact_offline(
            durable_store, "s", small_data, standardize=False, seed=7
        )
        assert result["replayed"] == 6
        assert result["pruned"] == 6
        assert result["wal_seq"] == 6
        records, damage = durable_store.feedback_tail(
            "s", after_seq=durable_store.get("s")["wal_seq"]
        )
        assert records == [] and damage is None

    def test_fold_is_idempotent(self, durable_store, small_data):
        seed_store(durable_store, small_data, batches=3)
        compact_offline(
            durable_store, "s", small_data, standardize=False, seed=7
        )
        again = compact_offline(
            durable_store, "s", small_data, standardize=False, seed=7
        )
        assert again["replayed"] == 0
        assert again["pruned"] == 0
        assert again["wal_seq"] == 3

    def test_recovery_after_fold_matches_oracle(
        self, durable_store, small_data
    ):
        seed_store(durable_store, small_data, batches=4, seed=13)
        compact_offline(
            durable_store, "s", small_data, standardize=False, seed=13
        )
        # Post-fold appends land above the fold's sequence floor.
        rec = durable_store.append_feedback("s", [make_item(4).to_dict()])
        assert rec.seq == 5
        session, state = recover_session(
            durable_store, "s", small_data, standardize=False, seed=13
        )
        oracle = ExplorationSession(small_data, seed=13)
        for i in range(5):
            oracle.apply_many([make_item(i)])
        assert state.replayed_batches == 1  # only the post-fold tail
        assert [f.label for f in session.feedback_log] == [
            f.label for f in oracle.feedback_log
        ]
        np.testing.assert_array_equal(
            session.current_view().axes, oracle.current_view().axes
        )


class TestManagerAutoCompaction:
    def test_fold_triggers_at_threshold(self, durable_store, small_data):
        from repro.service.manager import SessionManager

        manager = SessionManager(
            {"small": small_data},
            store=durable_store,
            compaction=CompactionPolicy(3),
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
        from repro.service.manager import SessionManager

        manager = SessionManager(
            {"small": small_data},
            store=durable_store,
            compaction=CompactionPolicy(0),
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
        from repro.service.manager import SessionManager

        manager = SessionManager(
            {"small": small_data},
            store=durable_store,
            compaction=CompactionPolicy(2),
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
