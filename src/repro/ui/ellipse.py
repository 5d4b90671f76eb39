"""95 % confidence ellipses for scatterplot overlays.

SIDER draws two blue ellipsoids over the main scatterplot: one for the
current selection's projected points and a dotted one for the corresponding
background-sample points, helping the user judge whether the selection sits
where the background distribution expects it (Sec. III, footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataShapeError


@dataclass(frozen=True)
class ConfidenceEllipse:
    """An ellipse in view coordinates.

    Attributes
    ----------
    centre:
        (2,) ellipse centre.
    axes:
        (2, 2) unit axis directions (rows).
    radii:
        (2,) semi-axis lengths.
    level:
        The confidence level the ellipse covers under a Gaussian fit.
    """

    centre: np.ndarray
    axes: np.ndarray
    radii: np.ndarray
    level: float

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of (n, 2) points inside the ellipse."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != 2:
            raise DataShapeError(f"expected (n, 2) points, got {pts.shape}")
        local = (pts - self.centre) @ self.axes.T
        radii = np.where(self.radii > 0, self.radii, 1e-12)
        return np.sum((local / radii) ** 2, axis=1) <= 1.0

    def boundary(self, n_points: int = 128) -> np.ndarray:
        """(n_points, 2) polyline approximating the ellipse boundary."""
        angles = np.linspace(0.0, 2.0 * np.pi, n_points)
        unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return self.centre + (unit * self.radii) @ self.axes


def confidence_ellipse(
    points: np.ndarray, level: float = 0.95
) -> ConfidenceEllipse:
    """Gaussian confidence ellipse of a 2-D point cloud.

    The ellipse is the ``level`` probability contour of the Gaussian with
    the sample mean and covariance of ``points`` (chi-square quantile with
    2 degrees of freedom scales the covariance eigenvalues).  With 2
    degrees of freedom the chi-square CDF is ``1 - exp(-x / 2)``, so the
    quantile has the closed form ``-2 log(1 - level)``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DataShapeError(
            f"need at least 2 points of dimension 2, got shape {pts.shape}"
        )
    if not 0.0 < level < 1.0:
        raise DataShapeError(f"confidence level must be in (0,1), got {level}")
    centre = pts.mean(axis=0)
    cov = np.cov(pts, rowvar=False)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    eigvals = np.maximum(eigvals, 0.0)
    scale = float(-2.0 * np.log1p(-level))
    radii = np.sqrt(scale * eigvals)
    order = np.argsort(radii)[::-1]
    return ConfidenceEllipse(
        centre=centre,
        axes=eigvecs.T[order],
        radii=radii[order],
        level=level,
    )
