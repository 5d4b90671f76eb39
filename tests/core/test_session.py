"""Tests for the ExplorationSession interaction loop."""

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.datasets.paper import three_d_clusters
from repro.feedback import (
    ClusterFeedback,
    CovarianceFeedback,
    MarginFeedback,
    ViewSelectionFeedback,
)


class TestSessionLoop:
    def test_initial_view_available(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data, objective="pca")
        view = session.current_view()
        assert view.axes.shape == (2, 3)
        assert len(session.history) == 1

    def test_view_cached_until_feedback(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data)
        v1 = session.current_view()
        v2 = session.current_view()
        assert v1 is v2
        assert len(session.history) == 1

    def test_feedback_invalidates_view(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data)
        v1 = session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0)))
        v2 = session.current_view()
        assert v1 is not v2
        assert len(session.history) == 2

    def test_score_decreases_after_marking_all_clusters(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data)
        before = float(np.max(np.abs(session.current_view().scores)))
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0)))
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1)))
        after = float(np.max(np.abs(session.current_view().scores)))
        assert after < 0.2 * before

    def test_is_explained_after_full_feedback(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data)
        assert not session.is_explained()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0)))
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1)))
        assert session.is_explained(score_threshold=0.05)

    def test_history_records_feedback_labels(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data)
        session.current_view()
        session.apply(
            ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left-blob")
        )
        assert "left-blob" in session.history[0].constraints_added

    def test_run_steps_returns_one_view_per_marking(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data)
        views = session.run_steps(
            [np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)]
        )
        assert len(views) == 2
        assert len(session.history) == 3

    def test_mark_view_selection_adds_four_constraints(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data)
        session.current_view()
        session.apply(ViewSelectionFeedback(rows=np.flatnonzero(labels == 0)))
        assert session.model.n_constraints == 4

    def test_margin_and_covariance_feedback(self, gaussian_data):
        session = ExplorationSession(gaussian_data)
        session.apply(MarginFeedback())
        session.apply(CovarianceFeedback())
        assert session.model.n_constraints == 4 * gaussian_data.shape[1]
        # Both constraint families must fit without issue.
        view = session.current_view()
        assert np.all(np.isfinite(view.axes))

    def test_background_sample_shape(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data)
        assert session.background_sample().shape == data.shape

    def test_whitened_shape(self, two_cluster_data):
        data, _ = two_cluster_data
        session = ExplorationSession(data)
        assert session.whitened().shape == data.shape

    def test_invalid_objective_rejected(self, gaussian_data):
        with pytest.raises(ValueError):
            ExplorationSession(gaussian_data, objective="umap")

    def test_reproducible_with_seed(self):
        bundle = three_d_clusters(seed=3)
        s1 = ExplorationSession(bundle.data, objective="ica", seed=11)
        s2 = ExplorationSession(bundle.data, objective="ica", seed=11)
        np.testing.assert_array_equal(
            s1.current_view().axes, s2.current_view().axes
        )


class TestViewRelativeFeedbackResolution:
    def test_view_feedback_uses_the_shown_view_axes(self, two_cluster_data):
        """A 2-D constraint binds to the view the user was looking at —
        including an objective-override view — not a recomputed default."""
        import numpy as np

        from repro.core.session import ExplorationSession
        from repro.feedback import ViewSelectionFeedback

        data, _ = two_cluster_data
        session = ExplorationSession(data, objective="pca", seed=0)
        shown = session.current_view("axis")  # override, as over the API
        session.apply(ViewSelectionFeedback(rows=range(20), label="seen"))
        new_constraints = session.model.constraints[-4:]
        ws = {tuple(np.round(c.w, 12)) for c in new_constraints}
        assert ws <= {tuple(np.round(axis, 12)) for axis in shown.axes}

    def test_view_feedback_without_a_view_falls_back_to_default(
        self, two_cluster_data
    ):
        from repro.core.session import ExplorationSession
        from repro.feedback import ViewSelectionFeedback

        data, _ = two_cluster_data
        session = ExplorationSession(data, objective="pca", seed=0)
        session.apply(ViewSelectionFeedback(rows=range(20)))
        assert session.model.n_constraints > 0
