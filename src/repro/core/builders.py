"""High-level constraint builders: the user-facing knowledge vocabulary.

The paper defines four kinds of knowledge a user can state (Sec. II-A), each
compiled down to sets of linear/quadratic primitives:

* **margin constraint** — mean and variance of every attribute (2d
  constraints);
* **cluster constraint** — mean and (co)variance statistics of a selected
  point cluster, encoded along the SVD axes of the cluster (2d constraints
  per cluster);
* **1-cluster constraint** — a cluster constraint on the entire dataset,
  i.e. the data modelled by its principal components (2d constraints);
* **2-D constraint** — mean and variance of a point set as shown in the
  current 2-D projection (4 constraints: one linear + one quadratic per
  spanning vector).

These builders are pure functions from observed data (and a row selection)
to lists of :class:`~repro.core.constraint.Constraint`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.constraint import Constraint, ConstraintKind, integer_rows
from repro.errors import ConstraintError, DataShapeError


def _as_rows(rows: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Validate and normalise a row-index selection against data size.

    Only integer indices are accepted (:func:`integer_rows`).
    """
    arr = integer_rows(rows)
    if arr.size == 0:
        raise ConstraintError("row selection must be a non-empty 1-D sequence")
    if np.any(arr < 0) or np.any(arr >= n):
        raise ConstraintError(f"row indices out of range for n={n}")
    return np.sort(arr)


def _check_data(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DataShapeError(f"expected a 2-D data matrix, got shape {arr.shape}")
    return arr


def margin_constraints(data: np.ndarray) -> list[Constraint]:
    """Mean + variance of each attribute: 2d constraints on all rows.

    Equivalent (paper, Sec. II-A) to transforming the data to zero mean and
    unit variance per column under the background model.
    """
    data = _check_data(data)
    n, d = data.shape
    all_rows = np.arange(n)
    constraints: list[Constraint] = []
    for j in range(d):
        w = np.zeros(d)
        w[j] = 1.0
        constraints.append(
            Constraint(ConstraintKind.LINEAR, all_rows, w, label=f"margin[{j}]/lin")
        )
        constraints.append(
            Constraint(ConstraintKind.QUADRATIC, all_rows, w, label=f"margin[{j}]/quad")
        )
    return constraints


def cluster_constraint(
    data: np.ndarray,
    rows: Sequence[int] | np.ndarray,
    label: str = "cluster",
) -> list[Constraint]:
    """Mean + (co)variance of a point cluster along its SVD axes.

    The cluster's centred submatrix is decomposed with an SVD and one linear
    plus one quadratic constraint is emitted per right-singular vector —
    2d constraints in total.  Constraining means and variances along the
    full orthonormal SVD basis pins down the entire mean vector and
    covariance matrix of the cluster (in expectation), which is exactly the
    "this set of points forms a cluster" statement of the paper.

    Parameters
    ----------
    data:
        Full data matrix (n x d).
    rows:
        Indices of the cluster members.
    label:
        Prefix used in the individual constraint labels.
    """
    data = _check_data(data)
    rows_arr = _as_rows(rows, data.shape[0])
    sub = data[rows_arr]
    centred = sub - np.mean(sub, axis=0, keepdims=True)
    # Right singular vectors of the centred cluster = principal axes.  Only
    # a cluster with fewer points than dimensions needs full_matrices=True
    # to complete vt to an orthonormal basis of R^d; U is then at most d x d.
    # With k >= d the reduced SVD already returns the same d x d vt, bit for
    # bit, without the k x k U that would make a mark quadratic in its size.
    _, _, vt = np.linalg.svd(
        centred, full_matrices=centred.shape[0] < centred.shape[1]
    )
    constraints: list[Constraint] = []
    for k, axis in enumerate(vt):
        constraints.append(
            Constraint(
                ConstraintKind.LINEAR, rows_arr, axis, label=f"{label}/svd[{k}]/lin"
            )
        )
        constraints.append(
            Constraint(
                ConstraintKind.QUADRATIC, rows_arr, axis, label=f"{label}/svd[{k}]/quad"
            )
        )
    return constraints


def one_cluster_constraint(data: np.ndarray) -> list[Constraint]:
    """Cluster constraint treating the full dataset as a single cluster.

    Models the data by its principal components, capturing correlations that
    margin constraints miss (paper, Sec. II-A).
    """
    data = _check_data(data)
    return cluster_constraint(data, np.arange(data.shape[0]), label="1-cluster")


def projection_constraints(
    data: np.ndarray,
    rows: Sequence[int] | np.ndarray,
    axes: np.ndarray,
    label: str = "2d",
) -> list[Constraint]:
    """2-D constraint: mean + variance of ``rows`` along two view axes.

    Encodes what the user can actually *see* in the current scatterplot:
    the first and second moments of the selected points along the two
    vectors spanning the projection — 4 constraints (Sec. II-A).

    Parameters
    ----------
    data:
        Full data matrix (n x d).
    rows:
        Indices of the selected points.
    axes:
        Array of shape (2, d): the two vectors spanning the current view.
    label:
        Prefix used in the individual constraint labels.
    """
    data = _check_data(data)
    rows_arr = _as_rows(rows, data.shape[0])
    axes = np.asarray(axes, dtype=np.float64)
    if axes.shape != (2, data.shape[1]):
        raise DataShapeError(
            f"expected axes of shape (2, {data.shape[1]}), got {axes.shape}"
        )
    constraints: list[Constraint] = []
    for k, axis in enumerate(axes):
        constraints.append(
            Constraint(
                ConstraintKind.LINEAR, rows_arr, axis, label=f"{label}/axis[{k}]/lin"
            )
        )
        constraints.append(
            Constraint(
                ConstraintKind.QUADRATIC, rows_arr, axis, label=f"{label}/axis[{k}]/quad"
            )
        )
    return constraints
