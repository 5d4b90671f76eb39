"""Tests for session and model-parameter serialization."""

import numpy as np
import pytest

from repro.core.constraint import Constraint, ConstraintKind
from repro.core.session import ExplorationSession
from repro.errors import DataShapeError
from repro.feedback import ClusterFeedback
from repro.io import (
    constraint_from_dict,
    constraint_to_dict,
    data_fingerprint,
    load_session,
    save_session,
)


class TestFingerprint:
    def test_deterministic(self, gaussian_data):
        assert data_fingerprint(gaussian_data) == data_fingerprint(gaussian_data)

    def test_sensitive_to_values(self, gaussian_data):
        other = gaussian_data.copy()
        other[0, 0] += 1e-9
        assert data_fingerprint(gaussian_data) != data_fingerprint(other)

    def test_sensitive_to_shape(self, rng):
        flat = rng.standard_normal((4, 6))
        assert data_fingerprint(flat) != data_fingerprint(flat.reshape(6, 4))


class TestConstraintRoundtrip:
    def test_roundtrip(self):
        c = Constraint(
            ConstraintKind.QUADRATIC,
            np.array([3, 1, 4]),
            np.array([0.6, 0.8]),
            label="round/trip",
        )
        restored = constraint_from_dict(constraint_to_dict(c))
        assert restored.kind is c.kind
        np.testing.assert_array_equal(restored.rows, c.rows)
        np.testing.assert_array_equal(restored.w, c.w)
        assert restored.label == c.label

    def test_malformed_payload_rejected(self):
        with pytest.raises(DataShapeError):
            constraint_from_dict({"kind": "nope", "rows": [0], "w": [1.0]})

    @pytest.mark.parametrize(
        "rows",
        [
            [0.5, 1.9, 2.2],  # would truncate onto rows {0, 1, 2}
            ["3", "4"],  # would parse into rows {3, 4}
            [10**30],  # overflows intp
            [2**63],  # a uint64 array, would wrap negative
            [True],  # would cast onto row 1
            [1, True],  # np.asarray makes this an int64 array
        ],
        ids=["floats", "strings", "overflow", "overflow-uint64", "bool",
             "int-and-bool"],
    )
    def test_non_integer_rows_rejected(self, rows):
        payload = {"kind": "lin", "rows": rows, "w": [1.0, 0.0]}
        with pytest.raises(DataShapeError):
            constraint_from_dict(payload)


class TestSessionRoundtrip:
    def test_save_load_restores_constraints(self, two_cluster_data, tmp_path):
        data, labels = two_cluster_data
        session = ExplorationSession(data, objective="pca", seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left"))
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1), label="right"))
        path = tmp_path / "session.json"
        save_session(session, path)

        restored = load_session(data, path, seed=0)
        assert restored.model.n_constraints == session.model.n_constraints
        assert restored.objective == "pca"
        # The restored belief state reproduces the same fit.
        session_view = session.current_view()
        restored_view = restored.current_view()
        np.testing.assert_allclose(
            np.abs(restored_view.scores), np.abs(session_view.scores), atol=1e-6
        )

    def test_wrong_data_rejected(self, two_cluster_data, rng, tmp_path):
        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        path = tmp_path / "session.json"
        save_session(session, path)
        with pytest.raises(DataShapeError):
            load_session(rng.standard_normal(data.shape), path)

    def test_standardize_flag_matters(self, two_cluster_data, tmp_path):
        data, _ = two_cluster_data
        session = ExplorationSession(data, standardize=True, seed=0)
        session.current_view()
        path = tmp_path / "session.json"
        save_session(session, path)
        # Saved from standardised data: restoring without the flag changes
        # the fingerprint and must fail.
        with pytest.raises(DataShapeError):
            load_session(data, path, standardize=False)
        restored = load_session(data, path, standardize=True)
        assert restored.model.n_rows == session.model.n_rows

    def test_unreadable_file_rejected(self, two_cluster_data, tmp_path):
        data, _ = two_cluster_data
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        with pytest.raises(DataShapeError):
            load_session(data, bad)

    def test_history_summary_persisted(self, two_cluster_data, tmp_path):
        import json

        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="blob-a"))
        session.current_view()
        path = tmp_path / "session.json"
        save_session(session, path)
        payload = json.loads(path.read_text())
        assert payload["history"][0]["constraints_added"] == ["blob-a"]
        assert "top_score" in payload["history"][0]

    def test_shape_mismatch_reported_before_fingerprint(
        self, two_cluster_data, tmp_path
    ):
        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        path = tmp_path / "session.json"
        save_session(session, path)
        wrong_shape = data[: data.shape[0] // 2]
        with pytest.raises(DataShapeError, match="shape"):
            load_session(wrong_shape, path)

    def test_shape_stored_in_payload(self, two_cluster_data, tmp_path):
        import json

        data, _ = two_cluster_data
        session = ExplorationSession(data, seed=0)
        path = tmp_path / "session.json"
        save_session(session, path)
        payload = json.loads(path.read_text())
        assert payload["shape"] == list(data.shape)
        assert payload["fingerprint"]

    def test_undo_stack_round_trips(self, two_cluster_data, tmp_path):
        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left"))
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1), label="right"))
        path = tmp_path / "session.json"
        save_session(session, path)

        restored = load_session(data, path, seed=0)
        assert restored.feedback_groups == session.feedback_groups
        assert restored.undo_last_feedback() == "right"
        assert restored.undo_last_feedback() == "left"
        assert restored.model.n_constraints == 0

    def test_legacy_payload_without_feedback_groups(
        self, two_cluster_data, tmp_path
    ):
        import json

        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left"))
        path = tmp_path / "session.json"
        save_session(session, path)
        payload = json.loads(path.read_text())
        del payload["feedback_groups"]  # simulate a pre-undo-stack file
        path.write_text(json.dumps(payload))

        restored = load_session(data, path, seed=0)
        # Best-effort grouping by label prefix recovers the one action.
        assert restored.undo_last_feedback() == "left"
        assert restored.model.n_constraints == 0

    def test_corrupt_feedback_groups_rejected(
        self, two_cluster_data, tmp_path
    ):
        import json

        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left"))
        path = tmp_path / "session.json"
        save_session(session, path)
        payload = json.loads(path.read_text())
        payload["feedback_groups"] = [["left", 999]]  # more than stored
        path.write_text(json.dumps(payload))
        with pytest.raises(DataShapeError):
            load_session(data, path, seed=0)

    def test_model_level_constraints_still_roundtrip(
        self, two_cluster_data, tmp_path
    ):
        # Constraints added via the model API (not session feedback) are
        # saveable and loadable; they are just not undoable.
        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.model.add_cluster_constraint(
            np.flatnonzero(labels == 0), label="direct"
        )
        path = tmp_path / "session.json"
        save_session(session, path)
        restored = load_session(data, path, seed=0)
        assert restored.model.n_constraints == session.model.n_constraints
        assert restored.feedback_groups == ()
        assert restored.undo_last_feedback() is None
