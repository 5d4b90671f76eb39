"""Projection-pursuit substrate: objectives, PCA, FastICA, view scoring.

View objectives are pluggable: see :mod:`repro.projection.registry` for
the :class:`Objective` protocol, the built-in ``pca`` / ``ica`` /
``kurtosis`` / ``axis`` objectives, and ``registry.register(...)`` for
adding your own.
"""

from repro.projection import registry
from repro.projection.fastica import ICAResult, fit_fastica
from repro.projection.pca import PCAResult, fit_pca, unit_deviation_score
from repro.projection.registry import Objective, UnknownObjectiveError
from repro.projection.scores import (
    GAUSSIAN_LOGCOSH_MEAN,
    GAUSSIAN_LOGCOSH_SD,
    ica_scores,
    pca_scores,
    view_score_summary,
)
from repro.projection.view import Projection2D, most_informative_view

__all__ = [
    "registry",
    "Objective",
    "UnknownObjectiveError",
    "PCAResult",
    "fit_pca",
    "unit_deviation_score",
    "ICAResult",
    "fit_fastica",
    "GAUSSIAN_LOGCOSH_MEAN",
    "GAUSSIAN_LOGCOSH_SD",
    "pca_scores",
    "ica_scores",
    "view_score_summary",
    "Projection2D",
    "most_informative_view",
]
