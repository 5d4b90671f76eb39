"""Tests for checkpoint+tail recovery and the corrupt-tail policies."""

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.datasets import DATASETS
from repro.feedback import ClusterFeedback, feedback_from_dict
from repro.io import session_to_payload
from repro.service.store import StoreError
from repro.service.manager import SessionManager
from repro.store.recovery import (
    load_session_state,
    replay_records,
    validate_recovery_policy,
    verify_store,
)
from repro.store.sqlite import SQLiteStore


def make_batch(i: int) -> list[dict]:
    """Deterministic feedback batch #i in wire (``to_dict``) form."""
    rows = [int(r) for r in range(i % 7, i % 7 + 5)]
    return [{"kind": "cluster", "rows": rows, "label": f"batch-{i}"}]


def seed_session(store, small_data, batches=4, seed=7):
    """Checkpoint a fresh session, then log ``batches`` feedback batches."""
    session = ExplorationSession(small_data, seed=seed)
    payload = {
        "dataset": "small",
        "standardize": False,
        "seed": seed,
        "wal_seq": 0,
        "session": session_to_payload(session),
    }
    store.checkpoint_and_prune("s", payload, 0)
    for i in range(batches):
        store.append_feedback("s", make_batch(i))
    return session


class TestPolicyValidation:
    def test_known_policies(self):
        for policy in ("truncate", "fail"):
            assert validate_recovery_policy(policy) == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(StoreError):
            validate_recovery_policy("hope")


class TestLoadSessionState:
    def test_plain_store_recovers_checkpoint_only(self, tmp_path):
        """A checkpoint with no log tail recovers to exactly itself."""
        store = SQLiteStore(tmp_path / "s.db", fsync="off")
        store.checkpoint_and_prune("s", {"wal_seq": 0, "session": {}}, 0)
        state = load_session_state(store, "s")
        assert state.records == []
        assert state.replayed_batches == 0
        store.close()

    def test_tail_loaded_past_checkpoint(self, durable_store, small_data):
        seed_session(durable_store, small_data, batches=3)
        state = load_session_state(durable_store, "s")
        assert state.replayed_batches == 3
        assert state.wal_seq == 3
        assert state.warnings == []

    def test_rolled_back_batches_never_replay(self, durable_store, small_data):
        seed_session(durable_store, small_data, batches=4)
        durable_store.rollback_feedback("s", 4)
        state = load_session_state(durable_store, "s", policy="truncate")
        assert 4 not in [r.seq for r in state.records]

    def test_gap_with_fail_policy_raises(self, tmp_path, small_data):
        store = SQLiteStore(tmp_path / "s.db")
        seed_session(store, small_data, batches=4)
        # Rip out a middle row directly: a real gap, not a rollback.
        store._execute("DELETE FROM wal WHERE seq = 2")
        with pytest.raises(StoreError):
            load_session_state(store, "s", policy="fail")
        state = load_session_state(store, "s", policy="truncate")
        assert [r.seq for r in state.records] == [1]
        assert state.wal_seq == 1
        assert state.warnings
        store.close()

    def test_checksum_mismatch_detected(self, tmp_path, small_data):
        store = SQLiteStore(tmp_path / "s.db")
        seed_session(store, small_data, batches=3)
        store._execute(
            "UPDATE wal SET items = '[{\"kind\": \"cluster\", \"rows\": [9]}]' "
            "WHERE seq = 3"
        )
        with pytest.raises(StoreError):
            load_session_state(store, "s", policy="fail")
        state = load_session_state(store, "s", policy="truncate")
        assert [r.seq for r in state.records] == [1, 2]
        store.close()


def resume(store, small_data):
    """Resume session ``s`` the way a restarted server does.

    Returns the manager, its first view of the session and that view's
    meta, and the replayed feedback labels.
    """
    manager = SessionManager({"small": small_data}, store=store, cache=None)
    view, meta = manager.view("s")
    labels = [
        item["label"] for item in manager.session_stats("s")["feedback_log"]
    ]
    return manager, view, meta, labels


class TestTruncatingResume:
    def test_batch_acked_after_a_truncating_resume_survives_the_next(
        self, tmp_path
    ):
        """The resume deletes the damage it drops, so a batch acknowledged
        after it follows the replayed prefix and the next resume keeps it
        (it used to land past the damage and be dropped again)."""
        path = tmp_path / "s.db"

        def manager():
            return SessionManager(DATASETS, store=SQLiteStore(path), cache=None)

        def labels(m):
            log = m.session_stats("s")["feedback_log"]
            return [item["label"] for item in log]

        first = manager()
        first.create("three-d", session_id="s", seed=0)
        for i in range(3):
            first.apply_feedback(
                "s", [ClusterFeedback(rows=range(i, i + 5), label=f"b{i}")]
            )
        store = SQLiteStore(path)
        store._execute("UPDATE wal SET checksum = 'bad' WHERE seq = 2")
        # `repro store verify --policy truncate` only reports the damage.
        assert verify_store(store, policy="truncate")["ok"] is False
        assert [r.seq for r in store.feedback_tail("s")[0]] == [1, 2, 3]

        second = manager()
        assert labels(second) == ["b0"]
        second.apply_feedback(
            "s", [ClusterFeedback(rows=range(20, 25), label="new")]
        )
        assert [r.seq for r in store.feedback_tail("s")[0]] == [1, 2]

        # A crash: no checkpoint between the two resumes.
        assert labels(manager()) == ["b0", "new"]


class TestReplayParity:
    def test_recovered_session_matches_oracle(self, durable_store, small_data):
        seed_session(durable_store, small_data, batches=5, seed=11)
        manager, view, meta, labels = resume(durable_store, small_data)
        oracle = ExplorationSession(small_data, seed=11)
        for i in range(5):
            oracle.apply_many(
                [feedback_from_dict(item) for item in make_batch(i)]
            )
        assert manager.stats()["replayed_batches"] == 5
        assert labels == [f.label for f in oracle.feedback_log]
        np.testing.assert_array_equal(
            view.axes, oracle.current_view().axes
        )
        # knowledge_nats needs a fit; current_view just performed one.
        assert meta["knowledge_nats"] == pytest.approx(
            oracle.model.knowledge_nats(), abs=0.0
        )

    def test_undo_records_replay_through_undo(self, durable_store, small_data):
        oracle = seed_session(durable_store, small_data, batches=2, seed=3)
        for i in range(2):
            oracle.apply_many(
                [feedback_from_dict(item) for item in make_batch(i)]
            )
        durable_store.append_feedback("s", [], kind="undo")
        oracle.undo_last_feedback()
        manager, _, _, labels = resume(durable_store, small_data)
        assert manager.stats()["replayed_batches"] == 3
        assert labels == [f.label for f in oracle.feedback_log]

    def test_replay_rejects_unknown_kind(self, small_data):
        from repro.store.wal import WalRecord

        session = ExplorationSession(small_data, seed=0)
        with pytest.raises(StoreError):
            replay_records(session, [WalRecord.make("s", 1, kind="mystery")])


class TestVerifyStore:
    def test_clean_store_is_ok(self, durable_store, small_data):
        seed_session(durable_store, small_data, batches=2)
        report = verify_store(durable_store)
        assert report["ok"]
        assert report["sessions"]["s"]["tail_records"] == 2
        assert report["errors"] == {}

    def test_damage_flips_ok_under_fail_policy(self, tmp_path, small_data):
        store = SQLiteStore(tmp_path / "s.db")
        seed_session(store, small_data, batches=3)
        store._execute("DELETE FROM wal WHERE seq = 2")
        report = verify_store(store, policy="fail")
        assert not report["ok"]
        assert "s" in report["errors"]
        store.close()

    def test_truncate_policy_reports_warnings(self, tmp_path, small_data):
        store = SQLiteStore(tmp_path / "s.db")
        seed_session(store, small_data, batches=3)
        store._execute("DELETE FROM wal WHERE seq = 2")
        report = verify_store(store, policy="truncate")
        assert not report["ok"]
        assert report["sessions"]["s"]["warnings"]
        store.close()


class TestApiErrorKind:
    """A damaged store surfaces as ``corrupt_store``, not ``server_error``."""

    def test_corrupt_checkpoint_maps_to_corrupt_store(
        self, small_data, tmp_path
    ):
        from repro.service.api import ServiceAPI
        from repro.service.manager import SessionManager

        class RottenStore(SQLiteStore):
            def get(self, session_id):
                raise StoreError("checkpoint bytes are rotten")

            def __contains__(self, session_id):
                return True

        api = ServiceAPI(
            SessionManager(
                {"small": small_data},
                store=RottenStore(tmp_path / "s.db", fsync="off"),
            )
        )
        status, payload, kind = api._dispatch(
            "GET", "/v1/sessions/ghost/view", {}, {}
        )
        assert status == 500
        assert kind == "corrupt_store"
        assert "rotten" in payload["error"]

    def test_bad_session_id_is_still_a_400(self, small_data):
        from repro.service.api import ServiceAPI
        from repro.service.manager import SessionManager

        api = ServiceAPI(SessionManager({"small": small_data}))
        status, payload, kind = api._dispatch(
            "POST", "/v1/sessions", {"dataset": "small", "session_id": "../evil"}, {}
        )
        assert status == 400
        assert kind == "bad_request"
