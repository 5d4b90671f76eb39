"""Selection model: how a user picks points in a SIDER scatterplot.

SIDER offers three ways to build a selection: direct marking (lasso /
rectangle in the view), pre-defined classes of the dataset, and previously
saved groupings.  The headless equivalents are:

* :func:`select_rectangle` / :func:`select_ellipse` — geometric selection
  in the *projected* 2-D coordinates of the current view;
* :func:`select_by_label` — use a dataset class as the selection;
* :class:`SelectionStore` — named, saved groupings.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.constraint import integer_rows
from repro.errors import DataShapeError


def select_rectangle(
    projected: np.ndarray,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
) -> np.ndarray:
    """Rows whose projected coordinates fall inside an axis-aligned box.

    Parameters
    ----------
    projected:
        (n, 2) projected coordinates (``view.project(data)``).
    x_range, y_range:
        Inclusive (low, high) bounds; swapped bounds are normalised.
    """
    pts = _check_projected(projected)
    x_lo, x_hi = sorted(x_range)
    y_lo, y_hi = sorted(y_range)
    mask = (
        (pts[:, 0] >= x_lo)
        & (pts[:, 0] <= x_hi)
        & (pts[:, 1] >= y_lo)
        & (pts[:, 1] <= y_hi)
    )
    return np.flatnonzero(mask)


def select_ellipse(
    projected: np.ndarray,
    centre: tuple[float, float],
    radii: tuple[float, float],
) -> np.ndarray:
    """Rows inside an axis-aligned ellipse in view coordinates."""
    pts = _check_projected(projected)
    cx, cy = centre
    rx, ry = radii
    if rx <= 0 or ry <= 0:
        raise DataShapeError("ellipse radii must be positive")
    mask = ((pts[:, 0] - cx) / rx) ** 2 + ((pts[:, 1] - cy) / ry) ** 2 <= 1.0
    return np.flatnonzero(mask)


def select_by_label(labels: np.ndarray, value) -> np.ndarray:
    """All rows of a ground-truth class (SIDER's 'pre-defined classes')."""
    return np.flatnonzero(np.asarray(labels) == value)


def select_knn_blob(projected: np.ndarray, seed_point: int, k: int) -> np.ndarray:
    """The k rows nearest (in view coordinates) to a seed row, inclusive.

    A cheap stand-in for a lasso around an on-screen blob.
    """
    pts = _check_projected(projected)
    if not 0 <= seed_point < pts.shape[0]:
        raise DataShapeError(f"seed point {seed_point} out of range")
    if k < 1:
        raise DataShapeError("k must be >= 1")
    dist = np.linalg.norm(pts - pts[seed_point], axis=1)
    return np.sort(np.argsort(dist)[: min(k, pts.shape[0])])


def selection_rows(rows: Sequence[int] | np.ndarray) -> np.ndarray:
    """A selection as sorted, unique ``intp`` row indices.

    Only integer row indices are accepted
    (:func:`~repro.core.constraint.integer_rows`).  An empty selection
    passes.
    """
    return np.unique(integer_rows(rows, DataShapeError))


class SelectionStore:
    """Named, saved selections (SIDER's 'previously saved groupings')."""

    def __init__(self) -> None:
        self._groups: dict[str, np.ndarray] = {}

    def save(self, name: str, rows: Sequence[int] | np.ndarray) -> None:
        """Save (or overwrite) a named, non-empty selection."""
        arr = selection_rows(rows)
        if arr.size == 0:
            raise DataShapeError("refusing to save an empty selection")
        self._groups[name] = arr

    def load(self, name: str) -> np.ndarray:
        """Retrieve a saved selection by name."""
        if name not in self._groups:
            raise KeyError(f"no saved selection named {name!r}")
        return self._groups[name].copy()

    def names(self) -> list[str]:
        """All saved selection names, insertion-ordered."""
        return list(self._groups)

    def remove(self, name: str) -> None:
        """Delete a saved selection."""
        if name not in self._groups:
            raise KeyError(f"no saved selection named {name!r}")
        del self._groups[name]

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, name: str) -> bool:
        return name in self._groups


def _check_projected(projected: np.ndarray) -> np.ndarray:
    pts = np.asarray(projected, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataShapeError(f"expected (n, 2) projected points, got {pts.shape}")
    return pts
