"""Tests for the typed feedback vocabulary and the unified apply codepath."""

import numpy as np
import pytest

from repro.core.background import BackgroundModel
from repro.core.session import ExplorationSession
from repro.errors import DataShapeError
from repro.feedback import (
    ClusterFeedback,
    CovarianceFeedback,
    MarginFeedback,
    ViewSelectionFeedback,
    feedback_batch_from_payload,
    feedback_from_dict,
    feedback_kinds,
)
from repro.io import load_session, save_session


class TestSerialization:
    @pytest.mark.parametrize(
        "feedback",
        [
            ClusterFeedback(rows=(0, 1, 2), label="blob"),
            ViewSelectionFeedback(rows=(5, 6), label=""),
            MarginFeedback(),
            CovarianceFeedback(label="cov"),
        ],
    )
    def test_roundtrip(self, feedback):
        assert feedback_from_dict(feedback.to_dict()) == feedback

    def test_kind_registry_covers_builtins(self):
        assert feedback_kinds() == ["cluster", "covariance", "margins", "view"]

    def test_legacy_kind_aliases(self):
        fb = feedback_from_dict({"kind": "2d", "rows": [1, 2]})
        assert isinstance(fb, ViewSelectionFeedback)
        fb = feedback_from_dict({"kind": "1-cluster"})
        assert isinstance(fb, CovarianceFeedback)

    def test_rows_normalised_from_any_iterable(self):
        fb = ClusterFeedback(rows=np.array([3, 1, 4]))
        assert fb.rows == (3, 1, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataShapeError):
            feedback_from_dict({"kind": "telepathy"})

    def test_unknown_field_rejected(self):
        with pytest.raises(DataShapeError):
            feedback_from_dict({"kind": "margins", "rows": [1]})

    def test_empty_rows_rejected(self):
        with pytest.raises(DataShapeError):
            ClusterFeedback(rows=())
        with pytest.raises(DataShapeError):
            feedback_from_dict({"kind": "view", "rows": []})

    def test_non_integer_rows_rejected(self):
        with pytest.raises(DataShapeError):
            ClusterFeedback(rows=(float("inf"),))

    @pytest.mark.parametrize(
        "rows", [[0.5, 1.9, 2.2], ["3", "4"], [True, 2], [1, 2.0], "12"]
    )
    @pytest.mark.parametrize("kind", ["cluster", "view"])
    def test_wire_rows_must_be_integers(self, kind, rows):
        # int() would have marked rows 0, 1, 2 for [0.5, 1.9, 2.2].
        with pytest.raises(DataShapeError, match="integers"):
            feedback_from_dict({"kind": kind, "rows": rows})

    def test_numpy_non_integer_rows_rejected(self):
        with pytest.raises(DataShapeError):
            ClusterFeedback(rows=np.array([0.5, 1.9]))
        with pytest.raises(DataShapeError):
            ClusterFeedback(rows=np.array([True, False]))

    def test_numpy_integer_rows_become_python_ints(self):
        fb = ClusterFeedback(rows=np.array([3, 1], dtype=np.int32))
        assert fb.rows == (3, 1)
        assert all(type(r) is int for r in fb.rows)
        assert ClusterFeedback(rows=(r for r in range(3))).rows == (0, 1, 2)

    def test_batch_parser_validates_everything_up_front(self):
        with pytest.raises(DataShapeError):
            feedback_batch_from_payload([])
        with pytest.raises(DataShapeError):
            feedback_batch_from_payload("not a list")
        with pytest.raises(DataShapeError):
            feedback_batch_from_payload(
                [{"kind": "cluster", "rows": [1]}, {"kind": "bogus"}]
            )


@pytest.fixture
def fit_counter(monkeypatch):
    """Count BackgroundModel.fit invocations (the solver hot path)."""
    calls = []
    original = BackgroundModel.fit

    def counting_fit(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BackgroundModel, "fit", counting_fit)
    return calls


class TestApply:
    def test_auto_labels_match_legacy_scheme(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        labels = session.apply_many(
            [
                ClusterFeedback(rows=(0, 1, 2)),
                MarginFeedback(),
                CovarianceFeedback(),
            ]
        )
        assert labels[0].startswith("cluster[")
        assert labels[1] == "margins"
        assert labels[2] == "1-cluster"

    def test_feedback_log_tracks_and_undoes(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        fb = ClusterFeedback(rows=(0, 1, 2), label="trio")
        session.apply(fb)
        assert session.feedback_log == (fb,)
        assert session.undo_last_feedback() == "trio"
        assert session.feedback_log == ()

    def test_batch_applies_with_single_fit(self, two_cluster_data, fit_counter):
        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        rows = tuple(int(r) for r in np.flatnonzero(labels == 0))
        batch = [
            ClusterFeedback(rows=rows, label="left"),
            ViewSelectionFeedback(rows=rows, label="left-2d"),
            MarginFeedback(),
        ]
        applied = session.apply_many(batch)
        # The view-relative item forced exactly one fit (to resolve axes);
        # cluster/margin items never fit.
        assert len(fit_counter) == 1
        assert applied == ["left", "left-2d", "margins"]
        assert [label for label, _ in session.feedback_groups] == applied

    def test_batch_with_no_view_item_fits_nothing(
        self, two_cluster_data, fit_counter
    ):
        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.apply_many(
            [ClusterFeedback(rows=(0, 1)), MarginFeedback(), CovarianceFeedback()]
        )
        assert len(fit_counter) == 0
        session.current_view()
        assert len(fit_counter) == 1

    def test_batch_is_atomic_on_failure(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        n = data.shape[0]
        before_groups = session.feedback_groups
        with pytest.raises(Exception):
            session.apply_many(
                [
                    ClusterFeedback(rows=(0, 1, 2), label="ok"),
                    ClusterFeedback(rows=(n + 10,), label="out-of-range"),
                ]
            )
        assert session.feedback_groups == before_groups
        assert session.model.n_constraints == 0
        assert session.feedback_log == ()

    def test_non_feedback_rejected(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        with pytest.raises(TypeError):
            session.apply_many([{"kind": "cluster", "rows": [0]}])


class TestCheckpointRoundtrip:
    def test_feedback_log_survives_save_load(self, two_cluster_data, tmp_path):
        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        rows = tuple(int(r) for r in np.flatnonzero(labels == 0))
        session.apply_many(
            [
                ClusterFeedback(rows=rows, label="left"),
                ViewSelectionFeedback(rows=rows, label="left-2d"),
                MarginFeedback(),
            ]
        )
        path = tmp_path / "session.json"
        save_session(session, path)

        restored = load_session(data, path, seed=0)
        assert restored.feedback_log == session.feedback_log
        assert restored.feedback_groups == session.feedback_groups
        # Undo still unwinds the typed log in lockstep.
        assert restored.undo_last_feedback() == "margins"
        assert restored.feedback_log == session.feedback_log[:-1]

    def test_legacy_payload_without_feedback_log(
        self, two_cluster_data, tmp_path
    ):
        import json

        from repro.io import session_to_payload

        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.apply(ClusterFeedback(rows=(0, 1, 2), label="left"))
        payload = session_to_payload(session)
        del payload["feedback_log"]
        payload["format"] = 1  # simulate a pre-vocabulary file
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))

        restored = load_session(data, path, seed=0)
        assert restored.feedback_log == ()  # best effort: log not stored
        assert restored.undo_last_feedback() == "left"  # undo stack intact
