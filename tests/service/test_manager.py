"""Tests for the multi-tenant session manager."""

import threading

import numpy as np
import pytest

from repro.feedback import ClusterFeedback, ViewSelectionFeedback
from repro.service.cache import SolveCache
from repro.service.manager import (
    SessionExistsError,
    SessionManager,
    UnknownDatasetError,
)
from repro.service.store import SessionNotFoundError, StoreError
from repro.store import SQLiteStore


class FakeClock:
    """Deterministic, manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def store(tmp_path):
    store = SQLiteStore(tmp_path / "sessions.db", fsync="off")
    yield store
    store.close()


@pytest.fixture
def manager(two_cluster_data, store):
    data, _ = two_cluster_data
    return SessionManager({"two": data}, store=store)


class TestLifecycle:
    def test_create_and_view(self, manager):
        sid = manager.create("two")
        view, meta = manager.view(sid)
        assert view.axes.shape == (2, 3)
        assert meta["iteration"] == 0
        assert not meta["cache_hit"]

    def test_unknown_dataset(self, manager):
        with pytest.raises(UnknownDatasetError):
            manager.create("nope")

    def test_custom_and_duplicate_ids(self, manager):
        assert manager.create("two", session_id="mine") == "mine"
        with pytest.raises(SessionExistsError):
            manager.create("two", session_id="mine")

    def test_delete(self, manager):
        sid = manager.create("two")
        assert manager.delete(sid)
        assert not manager.has(sid)
        assert not manager.delete(sid)
        with pytest.raises(SessionNotFoundError):
            manager.view(sid)

    def test_dataset_forms(self, two_cluster_data):
        data, _ = two_cluster_data

        class Bundle:
            pass

        bundle = Bundle()
        bundle.data = data
        manager = SessionManager(
            {
                "array": data,
                "bundle": bundle,
                "callable": lambda: data,
            }
        )
        for name in ("array", "bundle", "callable"):
            view, _ = manager.view(manager.create(name))
            assert view.axes.shape == (2, 3)

    def test_feedback_and_undo(self, manager, two_cluster_data):
        _, labels = two_cluster_data
        sid = manager.create("two")
        manager.view(sid)
        stats = manager.apply_feedback(
            sid, [ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left")]
        )
        assert stats["feedback"] == ["left"]
        assert stats["n_constraints"] > 0
        assert manager.undo(sid) == "left"
        assert manager.session_stats(sid)["n_constraints"] == 0
        assert manager.undo(sid) is None

    def test_view_selection_feedback(self, manager):
        sid = manager.create("two")
        stats = manager.apply_feedback(
            sid, [ViewSelectionFeedback(rows=range(10), label="sel")]
        )
        assert stats["feedback"] == ["sel"]


class TestCacheIntegration:
    def test_forked_session_hits_cache(self, manager, two_cluster_data):
        _, labels = two_cluster_data
        rows = np.flatnonzero(labels == 0)
        a = manager.create("two")
        manager.apply_feedback(a, [ClusterFeedback(rows=rows, label="left")])
        _, meta_a = manager.view(a)
        assert not meta_a["cache_hit"]

        b = manager.create("two")
        manager.apply_feedback(b, [ClusterFeedback(rows=rows, label="left")])
        view_b, meta_b = manager.view(b)
        assert meta_b["cache_hit"]
        view_a, _ = manager.view(a)
        np.testing.assert_allclose(view_b.scores, view_a.scores, atol=1e-12)

    def test_cache_disabled(self, two_cluster_data):
        data, _ = two_cluster_data
        manager = SessionManager({"two": data}, cache=None)
        assert manager.cache is None
        sid = manager.create("two")
        _, meta = manager.view(sid)
        assert not meta["cache_hit"]

    def test_shared_cache_across_managers(self, two_cluster_data):
        data, labels = two_cluster_data
        shared = SolveCache()
        rows = np.flatnonzero(labels == 0)
        m1 = SessionManager({"two": data}, cache=shared)
        a = m1.create("two")
        m1.apply_feedback(a, [ClusterFeedback(rows=rows)])
        m1.view(a)

        m2 = SessionManager({"two": data}, cache=shared)
        b = m2.create("two")
        m2.apply_feedback(b, [ClusterFeedback(rows=rows)])
        _, meta = m2.view(b)
        assert meta["cache_hit"]


class TestWhitening:
    """A detail view whitens once per fit, and never reuses a stale fit."""

    @pytest.fixture
    def whiten_calls(self, monkeypatch):
        import repro.core.background as background
        import repro.core.whitening as whitening

        calls = []
        real = whitening.whiten

        def counting(*args):
            calls.append(1)
            return real(*args)

        # background imports the name; eval.information imports it per call.
        monkeypatch.setattr(background, "whiten", counting)
        monkeypatch.setattr(whitening, "whiten", counting)
        return calls

    def test_cold_detail_view_whitens_once(
        self, manager, two_cluster_data, whiten_calls
    ):
        _, labels = two_cluster_data
        sid = manager.create("two")
        manager.apply_feedback(
            sid, [ClusterFeedback(rows=np.flatnonzero(labels == 0))]
        )
        manager.view(sid, detail=True)
        assert len(whiten_calls) == 1
        manager.view(sid, detail=True)  # same fit: nothing to whiten
        assert len(whiten_calls) == 1

    def test_cache_installed_fit_after_undo_is_whitened_afresh(
        self, manager, two_cluster_data
    ):
        from repro.core.whitening import whiten
        from repro.eval.information import row_negative_log_density

        _, labels = two_cluster_data
        sid = manager.create("two")
        manager.view(sid, detail=True)  # prior fit, stored in the cache
        manager.apply_feedback(
            sid, [ClusterFeedback(rows=np.flatnonzero(labels == 0))]
        )
        manager.view(sid, detail=True)
        model = manager._entries[sid].session.model
        marked = model.whiten()
        manager.undo(sid)
        _, meta = manager.view(sid, detail=True)
        assert meta["cache_hit"]
        current = model.whiten()
        assert current is not marked
        params, classes = model._require_fit()
        assert np.array_equal(current, whiten(model.data, params, classes))
        assert np.array_equal(
            meta["row_surprise"],
            row_negative_log_density(model.data, params, classes),
        )


class TestEvictionAndExpiry:
    def test_lru_eviction_checkpoints_and_resumes(self, two_cluster_data, store):
        data, labels = two_cluster_data
        manager = SessionManager({"two": data}, store=store, max_sessions=1)
        first = manager.create("two")
        manager.apply_feedback(
            first, [ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left")]
        )
        expected, _ = manager.view(first)

        second = manager.create("two")  # evicts `first` to the store
        assert first in store
        assert manager.stats()["evicted"] == 1

        # Accessing the evicted session resumes it transparently.
        resumed, _ = manager.view(first)
        np.testing.assert_allclose(
            np.abs(resumed.scores), np.abs(expected.scores), atol=1e-8
        )
        assert manager.session_stats(first)["feedback"] == ["left"]
        assert manager.stats()["resumed"] == 1
        assert manager.has(second)

    def test_eviction_without_store_discards(self, two_cluster_data):
        data, _ = two_cluster_data
        manager = SessionManager({"two": data}, max_sessions=1)
        first = manager.create("two")
        manager.create("two")
        with pytest.raises(SessionNotFoundError):
            manager.view(first)

    def test_ttl_expiry(self, two_cluster_data, store):
        data, _ = two_cluster_data
        clock = FakeClock()
        manager = SessionManager(
            {"two": data}, store=store, ttl_seconds=60.0, clock=clock
        )
        sid = manager.create("two")
        manager.view(sid)
        clock.advance(61.0)
        assert manager.list_sessions()[0]["in_memory"] is False
        assert manager.stats()["expired"] == 1
        # ... but it resumes on demand.
        assert manager.session_stats(sid)["session_id"] == sid

    def test_recent_sessions_not_expired(self, two_cluster_data):
        data, _ = two_cluster_data
        clock = FakeClock()
        manager = SessionManager({"two": data}, ttl_seconds=60.0, clock=clock)
        sid = manager.create("two")
        clock.advance(59.0)
        assert manager.list_sessions()[0]["in_memory"] is True
        assert manager.has(sid)


class FailingStore(SQLiteStore):
    """A store whose checkpoints fail once written (the disk filled up).

    The genesis checkpoint of :meth:`SessionManager.create` succeeds, so
    the sessions exist; every later checkpoint raises.
    """

    def checkpoint_and_prune(self, session_id, payload, up_to_seq):
        if session_id in self:
            raise StoreError("disk full")
        return super().checkpoint_and_prune(session_id, payload, up_to_seq)


class TestFailingStore:
    def test_ttl_expiry_with_broken_store_keeps_sessions_alive(
        self, two_cluster_data, tmp_path
    ):
        data, _ = two_cluster_data
        clock = FakeClock()
        manager = SessionManager(
            {"two": data},
            store=FailingStore(tmp_path / "full.db", fsync="off"),
            ttl_seconds=60.0,
            clock=clock,
        )
        sid = manager.create("two")
        clock.advance(61.0)
        # The failed checkpoint must not 500 unrelated requests, and the
        # un-persistable session must stay live rather than being lost.
        other = manager.create("two")
        view, _ = manager.view(other)
        assert view.axes.shape == (2, 3)
        assert manager.session_stats(sid)["session_id"] == sid
        assert manager.stats()["expired"] == 0

    def test_eviction_with_broken_store_does_not_discard(
        self, two_cluster_data, tmp_path
    ):
        data, _ = two_cluster_data
        manager = SessionManager(
            {"two": data},
            store=FailingStore(tmp_path / "full.db", fsync="off"),
            max_sessions=1,
        )
        first = manager.create("two")
        second = manager.create("two")  # over the limit; checkpoint fails
        # Both stay reachable: losing state is worse than exceeding the cap.
        assert manager.session_stats(first)["session_id"] == first
        assert manager.session_stats(second)["session_id"] == second
        assert manager.stats()["evicted"] == 0


class TestCheckpointing:
    def test_checkpoint_and_resume_in_fresh_manager(
        self, two_cluster_data, store
    ):
        data, labels = two_cluster_data
        m1 = SessionManager({"two": data}, store=store)
        sid = m1.create("two")
        m1.view(sid)
        m1.apply_feedback(
            sid, [ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left")]
        )
        expected, _ = m1.view(sid)
        m1.checkpoint(sid)

        m2 = SessionManager({"two": data}, store=store)
        resumed, _ = m2.view(sid)
        np.testing.assert_allclose(
            np.abs(resumed.scores), np.abs(expected.scores), atol=1e-8
        )
        # Undo still works after cross-manager resume.
        assert m2.undo(sid) == "left"

    def test_checkpoint_all(self, two_cluster_data, store):
        data, _ = two_cluster_data
        manager = SessionManager({"two": data}, store=store)
        ids = {manager.create("two") for _ in range(3)}
        assert manager.checkpoint_all() == 3
        assert set(store.list_ids()) == ids

    def test_checkpoint_without_store_rejected(self, two_cluster_data):
        data, _ = two_cluster_data
        manager = SessionManager({"two": data})
        sid = manager.create("two")
        with pytest.raises(StoreError):
            manager.checkpoint(sid)


class TestConcurrency:
    def test_parallel_requests_stay_consistent(self, two_cluster_data, store):
        data, labels = two_cluster_data
        manager = SessionManager({"two": data}, store=store)
        ids = [manager.create("two") for _ in range(4)]
        rows = np.flatnonzero(labels == 0)
        errors = []

        def hammer(sid):
            try:
                for _ in range(5):
                    manager.view(sid)
                    manager.apply_feedback(sid, [ClusterFeedback(rows=rows)])
                    manager.view(sid)
                    manager.undo(sid)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(sid,)) for sid in ids
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for sid in ids:
            assert manager.session_stats(sid)["n_constraints"] == 0
