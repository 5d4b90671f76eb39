"""Information-theoretic diagnostics of the background distribution.

The MaxEnt objective (Prob. 1, Eq. 5) maximises the relative entropy
``S = -E_p[log(p/q)] = -KL(p || q)`` subject to the constraints; the
optimal value quantifies, in nats, how much the user's accumulated
knowledge has moved the belief state away from the uninformed spherical
prior.  For the row-factorised Gaussian solution this has a closed form
per row:

    KL( N(m, Sigma) || N(0, I) )
        = 1/2 * ( tr(Sigma) + m^T m - d - log det Sigma )

summed over rows via the equivalence-class counts.  The same quantities
give per-row *surprise* (negative log density), the principled version of
the ghost-displacement visual: how unlikely each observed row is under the
current belief state.
"""

from __future__ import annotations

import numpy as np

from repro.core.equivalence import EquivalenceClasses
from repro.core.parameters import ClassParameters
from repro.errors import DataShapeError

#: Eigenvalue floor for log-determinants of (near-)singular covariances.
#: Pinned directions otherwise send the KL to +inf; the floor makes the
#: reported knowledge large-but-finite, mirroring how the solver itself
#: only approaches singular optima (Fig. 5).
_LOGDET_FLOOR = 1e-12


def _class_logdets(params: ClassParameters) -> np.ndarray:
    """log det Sigma_c per class, with eigenvalue flooring.

    Read off the parameter state's memoised eigendecomposition, the one
    whitening and sampling use.
    """
    vals, _ = params.sigma_eig()
    return np.sum(np.log(np.maximum(vals, _LOGDET_FLOOR)), axis=1)


def background_kl_from_prior(
    params: ClassParameters, classes: EquivalenceClasses
) -> float:
    """Total KL(p || q) of the background distribution from the prior.

    This is the negative of the optimised entropy objective: 0 nats with
    no constraints, growing as the user adds knowledge.  Returned in nats.
    """
    d = params.dim
    logdets = _class_logdets(params)
    traces = np.einsum("cii->c", params.sigma)
    mean_sq = np.einsum("ci,ci->c", params.mean, params.mean)
    per_class = 0.5 * (traces + mean_sq - d - logdets)
    counts = classes.class_counts.astype(np.float64)
    return float(np.dot(counts, per_class))


def row_negative_log_density(
    data: np.ndarray,
    params: ClassParameters,
    classes: EquivalenceClasses,
) -> np.ndarray:
    """Per-row surprise: ``-log p(x_i)`` under the background distribution.

    ``1/2 [ (x-m)^T Sigma^{-1} (x-m) + log det Sigma + d log 2 pi ]`` with
    the Mahalanobis part computed through the same clamped whitening used
    everywhere else, so pinned directions stay finite.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != classes.n_rows or arr.shape[1] != params.dim:
        raise DataShapeError(
            f"data shape {arr.shape} does not match model "
            f"(n={classes.n_rows}, d={params.dim})"
        )
    from repro.core.whitening import whiten

    whitened = whiten(arr, params, classes)
    return whitened_negative_log_density(whitened, params, classes)


def whitened_negative_log_density(
    whitened: np.ndarray,
    params: ClassParameters,
    classes: EquivalenceClasses,
) -> np.ndarray:
    """:func:`row_negative_log_density` of data already whitened under
    ``params`` and ``classes``, for a caller that holds that matrix (a
    fitted model whitens once per fit)."""
    maha_sq = np.einsum("ij,ij->i", whitened, whitened)
    logdets = _class_logdets(params)[classes.class_of_row]
    d = params.dim
    return 0.5 * (maha_sq + logdets + d * np.log(2.0 * np.pi))


def knowledge_gain(
    before: float, after: float
) -> float:
    """Nats of knowledge one feedback round added (clamped at zero).

    Tiny negative differences can appear when both fits stop at tolerance;
    they carry no meaning, so they are clamped.
    """
    return max(0.0, after - before)
