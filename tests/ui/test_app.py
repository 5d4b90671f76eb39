"""Integration tests for the headless SiderApp."""

import numpy as np
import pytest

from repro.errors import DataShapeError
from repro.ui.app import SiderApp
from repro.ui.state import Objective, PendingAction, UIState


class TestRenderLoop:
    def test_initial_frame_complete(self, two_cluster_data):
        data, _ = two_cluster_data
        app = SiderApp(data, seed=0)
        frame = app.render()
        assert frame.view.axes.shape == (2, 3)
        assert frame.scatterplot.points.shape == (100, 2)
        assert frame.scatterplot.ghost_points.shape == (100, 2)
        assert frame.scatterplot.segments.shape == (100, 2, 2)
        assert frame.pairplot is None      # nothing selected yet
        assert frame.statistics is None

    def test_selection_populates_panels(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        app.render()
        app.select_rows(np.flatnonzero(labels == 0))
        frame = app.render()
        assert frame.pairplot is not None
        assert frame.statistics is not None
        assert frame.statistics.n_selected == 60
        assert frame.scatterplot.selection_ellipse is not None

    def test_rectangle_selection_in_view_coordinates(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        frame = app.render()
        projected = frame.view.project(data)
        target = projected[np.flatnonzero(labels == 0)]
        pad = 0.5
        rows = app.select_rectangle(
            (target[:, 0].min() - pad, target[:, 0].max() + pad),
            (target[:, 1].min() - pad, target[:, 1].max() + pad),
        )
        # The rectangle around cluster 0 must recover mostly cluster 0.
        got = set(rows.tolist())
        want = set(np.flatnonzero(labels == 0).tolist())
        assert len(got & want) / len(want) > 0.95

    def test_full_interaction_cycle_reduces_score(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        frame0 = app.render()
        score0 = float(np.max(np.abs(frame0.view.scores)))
        for c in (0, 1):
            app.select_rows(np.flatnonzero(labels == c))
            app.add_cluster_constraint()
        app.update_background()
        frame1 = app.render()
        score1 = float(np.max(np.abs(frame1.view.scores)))
        assert score1 < 0.2 * score0

    def test_ghost_displacement_shrinks_after_constraints(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        frame0 = app.render()
        before = frame0.scatterplot.mean_displacement
        for c in (0, 1):
            app.select_rows(np.flatnonzero(labels == c))
            app.add_cluster_constraint()
        app.update_background()
        after = app.render().scatterplot.mean_displacement
        assert after < before

    def test_constraint_without_selection_rejected(self, two_cluster_data):
        data, _ = two_cluster_data
        app = SiderApp(data, seed=0)
        app.render()
        with pytest.raises(DataShapeError):
            app.add_cluster_constraint()

    def test_2d_constraint_flow(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        app.render()
        app.select_rows(np.flatnonzero(labels == 0))
        app.add_2d_constraint()
        app.update_background()
        assert app.session.model.n_constraints == 4

    def test_save_and_load_selection(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        app.render()
        rows = np.flatnonzero(labels == 1)
        app.select_rows(rows)
        app.save_selection("right")
        app.select_rows([0, 1])
        restored = app.load_selection("right")
        np.testing.assert_array_equal(restored, np.sort(rows))

    def test_toggle_objective(self, two_cluster_data):
        data, _ = two_cluster_data
        app = SiderApp(data, seed=0)
        assert app.toggle_objective() == "ica"
        frame = app.render()
        assert frame.view.objective == "ica"
        assert app.toggle_objective() == "pca"

    def test_action_log_records_commands(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        app.render()
        app.select_rows(np.flatnonzero(labels == 0))
        app.add_cluster_constraint()
        app.update_background()
        log = " | ".join(app.state.action_log)
        assert "select" in log
        assert "add cluster constraint" in log
        assert "update background" in log


class TestUIState:
    def test_selection_validation(self):
        state = UIState()
        with pytest.raises(DataShapeError):
            state.set_selection(np.array([100]), n_rows=10)

    @pytest.mark.parametrize(
        "rows",
        [
            [0.5, 1.9, 2.2],  # would truncate onto rows {0, 1, 2}
            np.array([True, False, False, True]),  # would become rows {0, 1}
            ["3", "4"],  # would parse into rows {3, 4}
            [2, True],  # np.asarray makes this an int64 array: rows {1, 2}
            [2**63],  # a uint64 array, would wrap to a negative row
        ],
        ids=["floats", "bool-mask", "strings", "int-and-bool", "overflow"],
    )
    def test_non_integer_selection_rejected(self, rows):
        state = UIState()
        state.set_selection(np.array([1, 2]), n_rows=10)
        with pytest.raises(DataShapeError, match="integer row indices"):
            state.set_selection(rows, n_rows=10)
        np.testing.assert_array_equal(state.selection, [1, 2])  # unchanged

    def test_empty_selection_is_legal(self):
        state = UIState()
        state.set_selection(np.array([1, 2]), n_rows=10)
        state.set_selection([], n_rows=10)
        assert state.selection.size == 0
        assert state.selection.dtype == np.intp

    def test_select_rows_validates_instead_of_casting(self, two_cluster_data):
        data, _ = two_cluster_data
        app = SiderApp(data, seed=0)
        with pytest.raises(DataShapeError):
            app.select_rows([0.5, 1.9])
        np.testing.assert_array_equal(app.select_rows([3, 1]), [1, 3])

    def test_clear_selection(self):
        state = UIState()
        state.set_selection(np.array([1, 2]), n_rows=10)
        state.clear_selection()
        assert state.selection.size == 0

    def test_refit_supersedes_view_recompute(self):
        state = UIState()
        state.mark_dirty(PendingAction.RECOMPUTE_VIEW)
        state.mark_dirty(PendingAction.REFIT)
        assert state.consume_pending() is PendingAction.REFIT
        assert state.pending is PendingAction.NONE

    def test_toggle_objective_flags_view(self):
        state = UIState()
        assert state.objective is Objective.PCA
        state.toggle_objective()
        assert state.objective is Objective.ICA
        assert state.pending is PendingAction.RECOMPUTE_VIEW
