"""Sampling from the fitted background distribution.

SIDER displays a sample of the background distribution as gray "ghost"
points, one per data row, with a segment connecting each data point to its
ghost — a visual proxy for how far the user's belief state sits from the
data in the current projection.  Because rows in the same equivalence class
share ``(m, Sigma)``, one Cholesky-like factor per class suffices.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.core.equivalence import EquivalenceClasses
from repro.core.grouping import apply_by_class
from repro.core.parameters import ClassParameters
from repro.linalg import sqrt_psd_batched


def sample_background(
    params: ClassParameters,
    classes: EquivalenceClasses,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw one sample row per data row from the background distribution.

    Parameters
    ----------
    params:
        Fitted per-class parameters.
    classes:
        The matching equivalence-class partition.
    rng:
        Source of randomness; defaults to a fresh default generator.

    Returns
    -------
    numpy.ndarray
        Array of shape (n, d): row i is a draw from ``N(m_i, Sigma_i)``.

    Notes
    -----
    The symmetric PSD square root is used instead of Cholesky because fitted
    covariances can be exactly singular (pinned directions), where Cholesky
    fails but the PSD root degrades gracefully to sampling inside the
    supported subspace.
    """
    rng = rng or np.random.default_rng()
    with perf.timer("sample_background"):
        n, d = classes.n_rows, params.dim
        noise = rng.standard_normal((n, d))
        # Version-keyed memo: repeated ghost-point draws between fits pay
        # for the per-class PSD roots once, and the eigendecomposition is
        # the parameter state's one, shared with whitening.
        roots = params.cached_kernel(
            "sqrt_psd",
            lambda: sqrt_psd_batched(params.sigma, eig=params.sigma_eig()),
        )
        scaled = apply_by_class(noise, classes, roots)
        return params.mean[classes.class_of_row] + scaled
