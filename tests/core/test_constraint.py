"""Unit tests for the constraint primitives."""

import numpy as np
import pytest

from repro.core.constraint import Constraint, ConstraintKind
from repro.errors import ConstraintError


def _lin(rows, w, **kw):
    return Constraint(ConstraintKind.LINEAR, np.asarray(rows), np.asarray(w, float), **kw)


def _quad(rows, w, **kw):
    return Constraint(
        ConstraintKind.QUADRATIC, np.asarray(rows), np.asarray(w, float), **kw
    )


class TestConstraintValidation:
    def test_rows_sorted_on_construction(self):
        c = _lin([3, 1, 2], [1.0, 0.0])
        np.testing.assert_array_equal(c.rows, [1, 2, 3])

    def test_empty_rows_rejected(self):
        with pytest.raises(ConstraintError):
            _lin([], [1.0])

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ConstraintError):
            _lin([1, 1, 2], [1.0])

    def test_negative_rows_rejected(self):
        with pytest.raises(ConstraintError):
            _lin([-1, 0], [1.0])

    @pytest.mark.parametrize("rows", [[2, 0, 2], [5, -1, 5], [0, 0]])
    def test_duplicates_rejected_in_any_order(self, rows):
        with pytest.raises(ConstraintError, match="duplicate"):
            _lin(rows, [1.0])

    @pytest.mark.parametrize("rows", [[-3, -1], [4, -2, 1]])
    def test_negative_rows_rejected_in_any_order(self, rows):
        with pytest.raises(ConstraintError, match="non-negative"):
            _lin(rows, [1.0])

    @pytest.mark.parametrize("rows", [[0, 1, 2], [2, 0, 1]])
    def test_rows_are_a_private_copy(self, rows):
        given_rows = np.asarray(rows, dtype=np.intp)
        c = _lin(given_rows, [1.0])
        given_rows[:] = 9
        np.testing.assert_array_equal(c.rows, [0, 1, 2])

    def test_zero_vector_rejected(self):
        with pytest.raises(ConstraintError):
            _lin([0], [0.0, 0.0])

    def test_nan_vector_rejected(self):
        with pytest.raises(ConstraintError):
            _lin([0], [np.nan, 1.0])

    def test_2d_vector_rejected(self):
        with pytest.raises(ConstraintError):
            _lin([0], np.ones((2, 2)))

    def test_properties(self):
        c = _quad([0, 5], [0.0, 1.0, 0.0])
        assert c.dim == 3
        assert c.n_rows == 2
        assert "quad" in c.describe()

    def test_label_in_describe(self):
        c = _lin([0], [1.0], label="margin[0]/lin")
        assert "margin[0]/lin" in c.describe()


class TestObservedValue:
    def test_linear_sums_projections(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        c = _lin([0, 2], [1.0, 0.0])
        assert c.observed_value(data) == pytest.approx(1.0 + 5.0)

    def test_linear_with_general_direction(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        c = _lin([0, 1], [0.5, 0.5])
        assert c.observed_value(data) == pytest.approx(0.5 * (1 + 2 + 3 + 4))

    def test_quadratic_is_centred_sum_of_squares(self):
        data = np.array([[0.0], [2.0], [4.0]])
        c = _quad([0, 1, 2], [1.0])
        # mean 2; squared deviations 4 + 0 + 4.
        assert c.observed_value(data) == pytest.approx(8.0)

    def test_quadratic_single_row_is_zero(self):
        data = np.array([[7.0, 1.0]])
        c = _quad([0], [1.0, 0.0])
        assert c.observed_value(data) == pytest.approx(0.0)

    def test_anchor_mean(self):
        data = np.array([[0.0, 0.0], [2.0, 4.0]])
        c = _quad([0, 1], [1.0, 0.0])
        np.testing.assert_allclose(c.anchor_mean(data), [1.0, 2.0])

    def test_quadratic_invariant_to_row_order(self):
        data = np.array([[0.0], [1.0], [5.0]])
        c1 = _quad([0, 2], [1.0])
        c2 = _quad([2, 0], [1.0])
        assert c1.observed_value(data) == c2.observed_value(data)
