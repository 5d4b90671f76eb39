"""Unit tests for the constraint builders."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builders import (
    cluster_constraint,
    margin_constraints,
    one_cluster_constraint,
    projection_constraints,
)
from repro.core.constraint import ConstraintKind
from repro.errors import ConstraintError, DataShapeError

_FAST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def cluster_selection(draw):
    """Data plus a sorted row selection of k rows in d dimensions.

    Shapes cover k < d, k = d, k around 11d/6 (where LAPACK's SVD switches
    to a QR-first path) and k >> d; layouts cover rank-deficient, badly
    scaled and duplicated-row clusters.
    """
    d = draw(st.integers(min_value=1, max_value=12))
    shape = draw(st.sampled_from(["few", "square", "crossover", "tall"]))
    if shape == "few":
        k = draw(st.integers(min_value=1, max_value=d))
    elif shape == "square":
        k = d
    elif shape == "crossover":
        k = max(1, 11 * d // 6 + draw(st.integers(min_value=-1, max_value=1)))
    else:
        k = draw(st.integers(min_value=2 * d, max_value=600))
    layout = draw(st.sampled_from(["gauss", "rank-deficient", "scaled", "duplicated"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    n = k + draw(st.integers(min_value=0, max_value=40))
    data = rng.standard_normal((n, d))
    rows = np.sort(rng.choice(n, size=k, replace=False))
    if layout == "rank-deficient":
        rank = draw(st.integers(min_value=1, max_value=d))
        data[rows] = data[rows][:, :rank] @ rng.standard_normal((rank, d))
    elif layout == "scaled":
        data *= np.logspace(-6, 6, d)
    elif layout == "duplicated":
        data[rows] = data[rows[np.arange(k) % max(1, k // 3)]]
    return data, rows


class TestMarginConstraints:
    def test_count_is_2d(self, gaussian_data):
        constraints = margin_constraints(gaussian_data)
        assert len(constraints) == 2 * gaussian_data.shape[1]

    def test_alternating_kinds(self, gaussian_data):
        constraints = margin_constraints(gaussian_data)
        kinds = [c.kind for c in constraints]
        assert kinds[::2] == [ConstraintKind.LINEAR] * gaussian_data.shape[1]
        assert kinds[1::2] == [ConstraintKind.QUADRATIC] * gaussian_data.shape[1]

    def test_axis_aligned_unit_vectors(self, gaussian_data):
        constraints = margin_constraints(gaussian_data)
        d = gaussian_data.shape[1]
        for j in range(d):
            w = constraints[2 * j].w
            assert w[j] == 1.0
            assert np.count_nonzero(w) == 1

    def test_all_rows_included(self, gaussian_data):
        constraints = margin_constraints(gaussian_data)
        for c in constraints:
            assert c.n_rows == gaussian_data.shape[0]

    def test_rejects_1d_input(self):
        with pytest.raises(DataShapeError):
            margin_constraints(np.ones(5))


class TestClusterConstraint:
    def test_count_is_2d(self, two_cluster_data):
        data, labels = two_cluster_data
        constraints = cluster_constraint(data, np.flatnonzero(labels == 0))
        assert len(constraints) == 2 * data.shape[1]

    def test_axes_are_orthonormal(self, two_cluster_data):
        data, labels = two_cluster_data
        constraints = cluster_constraint(data, np.flatnonzero(labels == 0))
        axes = np.array([c.w for c in constraints[::2]])
        np.testing.assert_allclose(axes @ axes.T, np.eye(data.shape[1]), atol=1e-10)

    def test_full_basis_even_for_tiny_cluster(self, rng):
        data = rng.standard_normal((10, 5))
        constraints = cluster_constraint(data, [0, 1])  # 2 points, 5 dims
        assert len(constraints) == 10
        axes = np.array([c.w for c in constraints[::2]])
        np.testing.assert_allclose(axes @ axes.T, np.eye(5), atol=1e-10)

    def test_labels_carry_prefix(self, two_cluster_data):
        data, labels = two_cluster_data
        constraints = cluster_constraint(
            data, np.flatnonzero(labels == 1), label="my-cluster"
        )
        assert all(c.label.startswith("my-cluster") for c in constraints)

    def test_rows_out_of_range_rejected(self, gaussian_data):
        with pytest.raises(ConstraintError):
            cluster_constraint(gaussian_data, [10**6])

    def test_empty_rows_rejected(self, gaussian_data):
        with pytest.raises(ConstraintError):
            cluster_constraint(gaussian_data, [])

    @_FAST
    @given(cluster_selection())
    def test_axes_match_full_svd(self, selection):
        # The builder skips the k x k left factor for k >= d; the axes must
        # still be the full SVD's vt, bit for bit.
        data, rows = selection
        sub = data[rows]
        centred = sub - np.mean(sub, axis=0, keepdims=True)
        expected = np.linalg.svd(centred, full_matrices=True)[2]
        constraints = cluster_constraint(data, rows)
        assert np.array_equal(np.array([c.w for c in constraints[::2]]), expected)
        assert np.array_equal(np.array([c.w for c in constraints[1::2]]), expected)

    def test_peak_memory_linear_in_cluster_size(self, rng):
        # A k x k SVD factor would be 128 MB here; the axes need O(k * d).
        data = rng.standard_normal((6000, 8))
        rows = np.sort(rng.choice(6000, size=4000, replace=False))
        for build in (
            lambda: cluster_constraint(data, rows),
            lambda: one_cluster_constraint(data[:4000]),
        ):
            tracemalloc.start()
            try:
                build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "rows",
        [
            [0.5, 1.9, 2.2],
            np.array([0.0, 1.0]),
            ["3", "4"],
            [1, 2.5],
            [2, True, 5],  # an int64 array: would constrain rows {1, 2, 5}
        ],
    )
    def test_non_integer_rows_rejected(self, gaussian_data, rows):
        with pytest.raises(ConstraintError, match="integer"):
            cluster_constraint(gaussian_data, rows)

    def test_boolean_mask_rejected(self, gaussian_data):
        mask = np.zeros(gaussian_data.shape[0], dtype=bool)
        mask[[3, 5]] = True
        with pytest.raises(ConstraintError, match="flatnonzero"):
            cluster_constraint(gaussian_data, mask)
        with pytest.raises(ConstraintError, match="flatnonzero"):
            cluster_constraint(gaussian_data, [True, False])

    def test_numpy_integer_rows_accepted(self, gaussian_data):
        expected = cluster_constraint(gaussian_data, [7, 3, 5])
        for rows in (np.array([7, 3, 5], dtype=np.int32), np.uint16([3, 5, 7])):
            got = cluster_constraint(gaussian_data, rows)
            for a, b in zip(got, expected):
                assert a.rows.dtype == np.intp
                np.testing.assert_array_equal(a.rows, [3, 5, 7])
                np.testing.assert_array_equal(a.w, b.w)


class TestOneClusterConstraint:
    def test_covers_all_rows(self, gaussian_data):
        constraints = one_cluster_constraint(gaussian_data)
        assert all(c.n_rows == gaussian_data.shape[0] for c in constraints)
        assert len(constraints) == 2 * gaussian_data.shape[1]

    def test_axes_align_with_principal_components(self, rng):
        # Strongly anisotropic data: first SVD axis must match the dominant
        # direction.
        base = rng.standard_normal((300, 1)) * np.array([[5.0, 0.0, 0.0]])
        data = base + 0.1 * rng.standard_normal((300, 3))
        constraints = one_cluster_constraint(data)
        top_axis = constraints[0].w
        assert abs(top_axis[0]) > 0.99


class TestProjectionConstraints:
    def test_count_is_four(self, gaussian_data):
        axes = np.zeros((2, 4))
        axes[0, 0] = 1.0
        axes[1, 1] = 1.0
        constraints = projection_constraints(gaussian_data, [0, 1, 2], axes)
        assert len(constraints) == 4

    def test_wrong_axes_shape_rejected(self, gaussian_data):
        with pytest.raises(DataShapeError):
            projection_constraints(gaussian_data, [0], np.ones((3, 4)))

    def test_non_integer_rows_rejected(self, gaussian_data):
        axes = np.eye(4)[:2]
        with pytest.raises(ConstraintError, match="integer"):
            projection_constraints(gaussian_data, [0.5, 1.5], axes)
        with pytest.raises(ConstraintError, match="flatnonzero"):
            projection_constraints(gaussian_data, np.ones(200, dtype=bool), axes)

    def test_uses_given_axes(self, gaussian_data):
        axes = np.zeros((2, 4))
        axes[0, 2] = 1.0
        axes[1, 3] = 1.0
        constraints = projection_constraints(gaussian_data, [0, 1], axes)
        np.testing.assert_array_equal(constraints[0].w, axes[0])
        np.testing.assert_array_equal(constraints[2].w, axes[1])
