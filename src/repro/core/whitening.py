"""Per-row whitening with respect to the background distribution (Eq. 14).

Each row is mapped by the symmetric inverse square root of its class
covariance:

    y_i = U_i D_i^{1/2} U_i^T (x_i - m_i),   Sigma_i^{-1} = U_i D_i U_i^T

If the data follows the background distribution, the whitened data is a unit
spherical Gaussian — so any structure left in Y is exactly the structure the
user has not yet told the model about.  The symmetric (direction-preserving)
square root keeps whitened rows comparable across equivalence classes, which
is why the paper rotates back to the original orientation.

With no constraints the model is the spherical prior and whitening is the
identity, i.e. ``Y = X``.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.core.equivalence import EquivalenceClasses
from repro.core.grouping import apply_by_class
from repro.core.parameters import ClassParameters
from repro.errors import DataShapeError
from repro.linalg import inverse_sqrt_psd_batched


def whiten(
    data: np.ndarray,
    params: ClassParameters,
    classes: EquivalenceClasses,
) -> np.ndarray:
    """Whiten the data matrix against the fitted background distribution.

    Parameters
    ----------
    data:
        Observed data (n x d).
    params:
        Fitted per-class parameters.
    classes:
        The equivalence-class partition matching ``params``.

    Returns
    -------
    numpy.ndarray
        Whitened matrix Y of the same shape as ``data``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataShapeError(f"expected 2-D data, got shape {data.shape}")
    if data.shape[0] != classes.n_rows:
        raise DataShapeError(
            f"data has {data.shape[0]} rows but classes cover {classes.n_rows}"
        )
    if data.shape[1] != params.dim:
        raise DataShapeError(
            f"data dimension {data.shape[1]} != parameter dimension {params.dim}"
        )

    with perf.timer("whiten"):
        transforms = whitening_transforms(params)
        centred = data - params.mean[classes.class_of_row]
        return apply_by_class(centred, classes, transforms)


def whitening_transforms(params: ClassParameters) -> np.ndarray:
    """The (C, d, d) stack of symmetric whitening matrices ``Sigma_c^{-1/2}``.

    Computed once per class (not per row) — another consequence of the
    equivalence-class sharing that keeps the pipeline independent of n —
    and for all classes at once from the parameter state's one batched
    eigendecomposition (:meth:`ClassParameters.sigma_eig`, shared with
    sampling and the log-determinants).  The stack is memoised on the
    parameter object (version-counter keyed), so repeated whitening
    between fits — every view request — skips the decompositions
    entirely.  Near-singular covariances are regularised by eigenvalue
    clamping, which maps pinned directions to large-but-finite scalings.
    """
    with perf.timer("whitening_transforms"):
        return params.cached_kernel(
            "inverse_sqrt_psd",
            lambda: inverse_sqrt_psd_batched(
                params.sigma, eig=params.sigma_eig()
            ),
        )
