"""Durable-store integration at the SessionManager layer.

The contract under test: a batch is acknowledged only after its WAL
append is durable, a failed apply rolls the append back, and a fresh
manager over the same store resumes every acknowledged batch.
"""

import numpy as np
import pytest

from repro import obs
from repro.errors import ConstraintError
from repro.feedback import ClusterFeedback
from repro.service.manager import SessionManager


def make_item(i: int) -> ClusterFeedback:
    rows = tuple(range(i % 7, i % 7 + 5))
    return ClusterFeedback(rows=rows, label=f"batch-{i}")


@pytest.fixture
def manager(durable_store, small_data):
    return SessionManager(
        {"small": small_data},
        store=durable_store,
        max_tail_records=0,
    )


class TestWalBeforeApply:
    def test_ack_implies_durable(self, manager, durable_store):
        sid = manager.create("small", session_id="d1", seed=1)
        manager.apply_feedback(sid, [make_item(0)])
        records, damage = durable_store.feedback_tail(sid)
        assert damage is None
        assert [r.seq for r in records] == [1]
        assert records[0].items == [make_item(0).to_dict()]

    def test_create_writes_genesis_checkpoint(self, manager, durable_store):
        sid = manager.create("small", session_id="genesis", seed=1)
        payload = durable_store.get(sid)
        assert payload["dataset"] == "small"
        assert payload["wal_seq"] == 0

    def test_failed_apply_rolls_back_the_append(self, manager, durable_store):
        sid = manager.create("small", session_id="rb", seed=1)
        manager.apply_feedback(sid, [make_item(0)])
        with pytest.raises(ConstraintError):
            # Row index far out of range: the WAL append succeeds, the
            # in-memory apply raises, the record must be annulled.
            manager.apply_feedback(
                sid, [ClusterFeedback(rows=(10_000,), label="bad")]
            )
        live, _ = durable_store.feedback_tail(sid)
        assert [r.items[0]["label"] for r in live] == ["batch-0"]
        assert manager.stats()["wal_rollbacks"] == 1

    def test_undo_is_logged(self, manager, durable_store):
        sid = manager.create("small", session_id="u1", seed=1)
        manager.apply_feedback(sid, [make_item(0)])
        assert manager.undo(sid) is not None
        records, _ = durable_store.feedback_tail(sid)
        kinds = [r.kind for r in records]
        assert kinds == ["feedback", "undo"]

    def test_benign_undo_rolls_back_its_record(self, manager, durable_store):
        sid = manager.create("small", session_id="u0", seed=1)
        assert manager.undo(sid) is None  # nothing to undo
        records, _ = durable_store.feedback_tail(sid)
        assert records == []

    def test_stats_expose_durability_counters(self, manager):
        sid = manager.create("small", session_id="st", seed=1)
        manager.apply_feedback(sid, [make_item(0)])
        stats = manager.stats()
        assert stats["durable"] is True
        assert stats["wal_appends"] == 1
        assert stats["replayed_batches"] == 0

    def test_no_store_is_not_durable(self, small_data):
        manager = SessionManager({"small": small_data})
        stats = manager.stats()
        assert (stats["durable"], stats["store"]) == (False, None)


class TestResume:
    def test_fresh_manager_replays_acked_batches(
        self, manager, durable_store, small_data, reopen
    ):
        sid = manager.create("small", session_id="crash", seed=21)
        for i in range(4):
            manager.apply_feedback(sid, [make_item(i)])
        view_before, _ = manager.view(sid)

        fresh = SessionManager({"small": small_data}, store=reopen(durable_store))
        view_after, _ = fresh.view(sid)
        np.testing.assert_array_equal(view_before.axes, view_after.axes)
        assert fresh.stats()["replayed_batches"] == 4

    def test_resume_then_continue_appending(
        self, manager, durable_store, small_data, reopen
    ):
        sid = manager.create("small", session_id="cont", seed=2)
        manager.apply_feedback(sid, [make_item(0)])

        store2 = reopen(durable_store)
        fresh = SessionManager({"small": small_data}, store=store2)
        fresh.apply_feedback(sid, [make_item(1)])
        records, _ = store2.feedback_tail(sid)
        assert [r.seq for r in records] == [1, 2]


class TestObsMetrics:
    @pytest.fixture(autouse=True)
    def _obs(self):
        obs.configure()
        yield
        obs.disable()

    def _value(self, family_name):
        family = obs.active().metrics.get(family_name)
        assert family is not None, f"family {family_name} not registered"
        total = 0.0
        for _values, child in family.children():
            if family.kind == "histogram":
                total += child.snapshot()["count"]
            else:
                total += child.value
        return total

    def test_wal_append_histogram_observes(self, manager):
        sid = manager.create("small", session_id="m1", seed=1)
        manager.apply_feedback(sid, [make_item(0)])
        assert self._value("repro_wal_append_seconds") > 0

    def test_compaction_counters(self, durable_store, small_data):
        manager = SessionManager(
            {"small": small_data},
            store=durable_store,
            max_tail_records=2,
        )
        sid = manager.create("small", session_id="m2", seed=1)
        for i in range(4):
            manager.apply_feedback(sid, [make_item(i)])
        assert self._value("repro_store_compactions_total") >= 1
        assert self._value("repro_store_compacted_records_total") >= 2

    def test_recovery_counters(self, manager, durable_store, small_data, reopen):
        sid = manager.create("small", session_id="m3", seed=1)
        manager.apply_feedback(sid, [make_item(0)])
        fresh = SessionManager({"small": small_data}, store=reopen(durable_store))
        fresh.view(sid)
        assert self._value("repro_store_recoveries_total") == 1
        assert self._value("repro_store_recovered_batches_total") == 1
