"""The session-store contract: checkpoints keyed by safe session ids."""

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.feedback import ClusterFeedback
from repro.io import session_from_payload, session_to_payload
from repro.service.store import (
    SessionNotFoundError,
    StoreError,
    validate_session_id,
)
from repro.store import SQLiteStore


@pytest.fixture(params=["sqlite"])
def store(tmp_path):
    """The one store (the ``[sqlite]`` id names it in test ids)."""
    store = SQLiteStore(tmp_path / "sessions.db")
    yield store
    store.close()


class TestSessionIds:
    def test_safe_ids_accepted(self):
        for sid in ("abc", "A-1", "a.b_c-d", "0" * 128):
            assert validate_session_id(sid) == sid

    @pytest.mark.parametrize(
        "bad", ["", "a/b", "../x", ".hidden", "-lead", "a" * 129, "sp ace", None]
    )
    def test_unsafe_ids_rejected(self, bad):
        with pytest.raises(StoreError):
            validate_session_id(bad)


class TestStoreBasics:
    def test_put_get_roundtrip(self, store):
        store.checkpoint_and_prune("s1", {"dataset": "x", "n": 3}, 0)
        assert store.get("s1") == {"dataset": "x", "n": 3}

    def test_missing_id_raises(self, store):
        with pytest.raises(SessionNotFoundError):
            store.get("nope")

    def test_contains_and_list(self, store):
        store.checkpoint_and_prune("b", {"v": 1}, 0)
        store.checkpoint_and_prune("a", {"v": 2}, 0)
        assert "a" in store and "zz" not in store
        assert store.list_ids() == ["a", "b"]

    def test_overwrite(self, store):
        store.checkpoint_and_prune("s", {"v": 1}, 0)
        store.checkpoint_and_prune("s", {"v": 2}, 0)
        assert store.get("s") == {"v": 2}

    def test_delete_is_idempotent(self, store):
        store.checkpoint_and_prune("s", {"v": 1}, 0)
        store.delete("s")
        store.delete("s")
        assert "s" not in store

    def test_payload_isolated_from_caller(self, store):
        payload = {"nested": {"rows": [1, 2]}}
        store.checkpoint_and_prune("s", payload, 0)
        payload["nested"]["rows"].append(99)
        assert store.get("s") == {"nested": {"rows": [1, 2]}}

    def test_non_json_payload_rejected(self, store):
        with pytest.raises(StoreError):
            store.checkpoint_and_prune("s", {"bad": np.float64}, 0)


class TestSessionRoundtripThroughStore:
    """Save -> store -> resume keeps the full knowledge state (satellite)."""

    def _explored_session(self, data, labels):
        session = ExplorationSession(data, objective="pca", seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left"))
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1), label="right"))
        return session

    def test_constraints_and_undo_history_survive(
        self, store, two_cluster_data
    ):
        data, labels = two_cluster_data
        session = self._explored_session(data, labels)
        store.checkpoint_and_prune("sess", session_to_payload(session), 0)

        restored = session_from_payload(data, store.get("sess"), seed=0)
        assert restored.model.n_constraints == session.model.n_constraints
        assert restored.feedback_groups == session.feedback_groups
        # The undo stack is live: retracting pops the same action.
        assert restored.undo_last_feedback() == "right"
        assert session.undo_last_feedback() == "right"
        assert restored.model.n_constraints == session.model.n_constraints

    def test_next_view_identical_after_resume(self, store, two_cluster_data):
        data, labels = two_cluster_data
        session = self._explored_session(data, labels)
        expected = session.current_view()
        store.checkpoint_and_prune("sess", session_to_payload(session), 0)

        restored = session_from_payload(data, store.get("sess"), seed=0)
        resumed_view = restored.current_view()
        np.testing.assert_allclose(
            np.abs(resumed_view.scores), np.abs(expected.scores), atol=1e-8
        )
        np.testing.assert_allclose(
            np.abs(resumed_view.axes), np.abs(expected.axes), atol=1e-6
        )
