"""View scores: how interesting is a direction of the whitened data?

Two scores from the paper:

* **PCA score** — ``(sigma^2 - log sigma^2 - 1)/2``: the KL divergence of a
  zero-mean Gaussian with variance sigma^2 from the unit Gaussian.  Zero iff
  the whitened variance along the direction is exactly 1 (footnote 1).
* **ICA score** — signed non-gaussianity
  ``E[log cosh(v^T y)] - E[log cosh(nu)]`` with ``nu ~ N(0,1)``.  Negative
  for super-gaussian (heavy-tailed) directions, positive for sub-gaussian
  ones such as symmetric multimodal/clustered structure; Table I of the
  paper sorts directions by the absolute value.  Scores shrink towards zero
  as the background distribution absorbs the data's structure.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.errors import DataShapeError
from repro.projection.fastica import (
    GAUSSIAN_LOGCOSH_MEAN,
    GAUSSIAN_LOGCOSH_SD,
    logcosh,
)
from repro.projection.pca import unit_deviation_score

__all__ = [
    "GAUSSIAN_LOGCOSH_MEAN",
    "GAUSSIAN_LOGCOSH_SD",
    "pca_scores",
    "ica_scores",
    "view_score_summary",
]


def pca_scores(whitened: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """PCA view score of each direction on the whitened data.

    Parameters
    ----------
    whitened:
        Whitened data Y (n x d).
    directions:
        (k, d) array of unit direction vectors.

    Returns
    -------
    numpy.ndarray
        Score per direction (non-negative; 0 means "fully explained").
    """
    with perf.timer("score_unit_deviation"):
        proj = _project(whitened, directions)
        variances = proj.var(axis=0, ddof=1)
        perf.add("projection.score_evaluations", proj.shape[1])
        return unit_deviation_score(variances)


def ica_scores(whitened: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Signed log-cosh non-gaussianity of each direction.

    The projection is standardised first (zero mean, unit variance) so the
    score measures *shape* non-gaussianity, as in FastICA's negentropy
    approximation; the sign is kept (no squaring) to match the signed values
    reported in Table I.  Sign convention: sub-gaussian (flat/multimodal)
    directions score positive, super-gaussian (heavy-tailed) negative.

    Uses the overflow-safe :func:`repro.projection.fastica.logcosh`, which
    agrees with ``log(cosh(x))`` to machine precision on the standardised
    range this score operates in.
    """
    with perf.timer("score_logcosh"):
        proj = _project(whitened, directions)
        centred = proj - proj.mean(axis=0, keepdims=True)
        std = centred.std(axis=0, ddof=1)
        std[std == 0.0] = 1.0
        standardised = centred / std
        perf.add("projection.score_evaluations", proj.shape[1])
        return np.mean(logcosh(standardised), axis=0) - GAUSSIAN_LOGCOSH_MEAN


def view_score_summary(
    whitened: np.ndarray, directions: np.ndarray, objective: str = "ica"
) -> np.ndarray:
    """Scores for a set of candidate directions, sorted by |score| descending.

    This is the ordering used to pick the two axes of the next view and the
    ordering of the rows of Table I.  Any registered objective name (see
    :mod:`repro.projection.registry`) is accepted.
    """
    # Imported lazily: the registry builds on this module's score functions.
    from repro.projection import registry

    scores = np.atleast_1d(
        np.asarray(
            registry.get(objective).score(whitened, directions),
            dtype=np.float64,
        )
    )
    order = np.argsort(np.abs(scores))[::-1]
    return scores[order]


def _project(data: np.ndarray, directions: np.ndarray) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    dirs = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if arr.ndim != 2:
        raise DataShapeError(f"expected 2-D data, got shape {arr.shape}")
    if dirs.shape[1] != arr.shape[1]:
        raise DataShapeError(
            f"direction dimension {dirs.shape[1]} != data dimension {arr.shape[1]}"
        )
    return arr @ dirs.T
