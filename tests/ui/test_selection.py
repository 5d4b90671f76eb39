"""Tests for the selection model."""

import numpy as np
import pytest

from repro.errors import DataShapeError
from repro.ui.selection import (
    SelectionStore,
    select_by_label,
    select_ellipse,
    select_knn_blob,
    select_rectangle,
)


@pytest.fixture
def grid_points():
    """A 5x5 grid of projected points in [0, 4]^2."""
    xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
    return np.column_stack([xs.ravel(), ys.ravel()])


class TestSelectRectangle:
    def test_inclusive_bounds(self, grid_points):
        rows = select_rectangle(grid_points, (1.0, 2.0), (1.0, 2.0))
        assert rows.size == 4

    def test_swapped_bounds_normalised(self, grid_points):
        a = select_rectangle(grid_points, (2.0, 1.0), (2.0, 1.0))
        b = select_rectangle(grid_points, (1.0, 2.0), (1.0, 2.0))
        np.testing.assert_array_equal(a, b)

    def test_empty_selection(self, grid_points):
        rows = select_rectangle(grid_points, (10.0, 11.0), (10.0, 11.0))
        assert rows.size == 0

    def test_rejects_non_2d_projection(self):
        with pytest.raises(DataShapeError):
            select_rectangle(np.ones((5, 3)), (0, 1), (0, 1))


class TestSelectEllipse:
    def test_circle_membership(self, grid_points):
        rows = select_ellipse(grid_points, centre=(2.0, 2.0), radii=(1.1, 1.1))
        # centre + 4 direct neighbours.
        assert rows.size == 5

    def test_anisotropic_radii(self, grid_points):
        rows = select_ellipse(grid_points, centre=(2.0, 2.0), radii=(2.1, 0.5))
        pts = grid_points[rows]
        assert np.all(pts[:, 1] == 2.0)
        assert rows.size == 5

    def test_nonpositive_radius_rejected(self, grid_points):
        with pytest.raises(DataShapeError):
            select_ellipse(grid_points, (0, 0), (0.0, 1.0))


class TestSelectByLabel:
    def test_basic(self):
        labels = np.array(["a", "b", "a"])
        np.testing.assert_array_equal(select_by_label(labels, "a"), [0, 2])


class TestSelectKnnBlob:
    def test_selects_k_points(self, grid_points):
        rows = select_knn_blob(grid_points, seed_point=12, k=5)
        assert rows.size == 5
        assert 12 in rows

    def test_k_larger_than_n_capped(self, grid_points):
        rows = select_knn_blob(grid_points, seed_point=0, k=999)
        assert rows.size == grid_points.shape[0]

    def test_invalid_seed_rejected(self, grid_points):
        with pytest.raises(DataShapeError):
            select_knn_blob(grid_points, seed_point=-1, k=3)

    def test_invalid_k_rejected(self, grid_points):
        with pytest.raises(DataShapeError):
            select_knn_blob(grid_points, seed_point=0, k=0)


class TestSelectionStore:
    def test_save_load_roundtrip(self):
        store = SelectionStore()
        store.save("blob", [3, 1, 2])
        np.testing.assert_array_equal(store.load("blob"), [1, 2, 3])

    def test_load_returns_copy(self):
        store = SelectionStore()
        store.save("blob", [1, 2])
        loaded = store.load("blob")
        loaded[0] = 99
        np.testing.assert_array_equal(store.load("blob"), [1, 2])

    def test_missing_name_raises(self):
        with pytest.raises(KeyError):
            SelectionStore().load("nope")

    def test_empty_selection_rejected(self):
        with pytest.raises(DataShapeError):
            SelectionStore().save("empty", [])

    @pytest.mark.parametrize(
        "rows",
        [
            [0.5, 1.9, 2.2],  # would truncate onto rows {0, 1, 2}
            [True, False, True],  # would become rows {0, 1}
            ["3", "4"],  # would parse into rows {3, 4}
        ],
        ids=["floats", "bool-mask", "strings"],
    )
    def test_non_integer_selection_rejected(self, rows):
        store = SelectionStore()
        with pytest.raises(DataShapeError, match="integer row indices"):
            store.save("blob", rows)
        assert "blob" not in store

    def test_remove_and_contains(self):
        store = SelectionStore()
        store.save("a", [0])
        assert "a" in store
        store.remove("a")
        assert "a" not in store
        assert len(store) == 0

    def test_names_insertion_order(self):
        store = SelectionStore()
        store.save("z", [0])
        store.save("a", [1])
        assert store.names() == ["z", "a"]
