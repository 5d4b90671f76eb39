"""Tests for the 95% confidence ellipses."""

import numpy as np
import pytest

from repro.errors import DataShapeError
from repro.ui.ellipse import confidence_ellipse


class TestConfidenceEllipse:
    def test_coverage_for_gaussian_cloud(self, rng):
        points = rng.multivariate_normal(
            [1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]], size=5000
        )
        ellipse = confidence_ellipse(points, level=0.95)
        inside = ellipse.contains(points)
        assert float(np.mean(inside)) == pytest.approx(0.95, abs=0.02)

    def test_centre_is_sample_mean(self, rng):
        points = rng.standard_normal((500, 2)) + [3.0, 4.0]
        ellipse = confidence_ellipse(points)
        np.testing.assert_allclose(ellipse.centre, points.mean(axis=0))

    def test_axes_orthonormal(self, rng):
        points = rng.standard_normal((100, 2)) @ np.array([[2.0, 0.3], [0.0, 0.5]])
        ellipse = confidence_ellipse(points)
        np.testing.assert_allclose(
            ellipse.axes @ ellipse.axes.T, np.eye(2), atol=1e-10
        )

    def test_radii_sorted_descending(self, rng):
        points = rng.standard_normal((200, 2)) * np.array([5.0, 0.5])
        ellipse = confidence_ellipse(points)
        assert ellipse.radii[0] >= ellipse.radii[1]

    @pytest.mark.parametrize("level", [0.5, 0.68, 0.9, 0.95, 0.99, 0.999])
    def test_radii_scale_by_the_chi2_quantile(self, rng, level):
        # The closed-form 2-dof quantile agrees with SciPy's to rounding.
        from scipy.stats import chi2

        points = rng.standard_normal((300, 2)) * np.array([3.0, 0.5])
        ellipse = confidence_ellipse(points, level=level)
        cov = np.cov(points, rowvar=False)
        eigvals = np.linalg.eigh(0.5 * (cov + cov.T))[0][::-1]
        np.testing.assert_allclose(
            ellipse.radii,
            np.sqrt(chi2.ppf(level, df=2) * eigvals),
            rtol=1e-14,
        )

    def test_level_changes_size(self, rng):
        points = rng.standard_normal((1000, 2))
        small = confidence_ellipse(points, level=0.5)
        big = confidence_ellipse(points, level=0.99)
        assert np.all(big.radii > small.radii)

    def test_boundary_points_on_contour(self, rng):
        points = rng.standard_normal((300, 2))
        ellipse = confidence_ellipse(points)
        boundary = ellipse.boundary(64)
        assert boundary.shape == (64, 2)
        # Boundary points are (numerically) on the unit contour: shrink a
        # hair inside -> contained; push a hair outside -> not.
        inner = ellipse.centre + 0.99 * (boundary - ellipse.centre)
        outer = ellipse.centre + 1.01 * (boundary - ellipse.centre)
        assert np.all(ellipse.contains(inner))
        assert not np.any(ellipse.contains(outer))

    def test_degenerate_line_cloud_safe(self, rng):
        # All points on a line: zero variance orthogonally.
        t = rng.standard_normal(100)
        points = np.column_stack([t, 2.0 * t])
        ellipse = confidence_ellipse(points)
        assert np.all(np.isfinite(ellipse.radii))
        assert ellipse.contains(points).mean() > 0.9

    def test_invalid_level_rejected(self, rng):
        with pytest.raises(DataShapeError):
            confidence_ellipse(rng.standard_normal((10, 2)), level=1.5)

    def test_too_few_points_rejected(self):
        with pytest.raises(DataShapeError):
            confidence_ellipse(np.ones((1, 2)))
