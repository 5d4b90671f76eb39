"""repro — a Python reproduction of the SIDER interactive EDA system.

Implements Puolamäki, Oikarinen, Kang, Lijffijt & De Bie:
"Interactive Visual Data Exploration with Subjective Feedback: An
Information-Theoretic Approach" (ICDE 2018).

Quick start
-----------
>>> from repro import ClusterFeedback, ExplorationSession
>>> from repro.datasets import three_d_clusters
>>> bundle = three_d_clusters(seed=0)
>>> session = ExplorationSession(bundle.data, objective="pca")
>>> view = session.current_view()          # most informative 2-D projection
>>> _ = session.apply(ClusterFeedback(rows=range(50)))   # "a cluster here"
>>> next_view = session.current_view()     # belief state updated

Two extensible vocabularies thread through every layer:

* **Objectives** (:mod:`repro.projection.registry`) rank candidate views.
  Built-ins: ``pca``, ``ica``, ``kurtosis``, ``axis``; register your own
  with ``registry.register(...)`` and it becomes usable in sessions, the
  CLI and the ``/v1`` service API without touching core files.
* **Feedback** (:mod:`repro.feedback`) encodes user knowledge as typed,
  serialisable objects (``ClusterFeedback``, ``ViewSelectionFeedback``,
  ``MarginFeedback``, ``CovarianceFeedback``) applied through
  ``session.apply(...)`` / ``session.apply_many(...)`` — a batch costs at
  most one background-model fit.

Package map
-----------
``repro.core``        MaxEnt background distribution + interaction loop
``repro.projection``  projection pursuit: objective registry (PCA /
                      FastICA / kurtosis / axis + plugins), view scores
``repro.feedback``    typed feedback vocabulary (serialisable, batchable)
``repro.linalg``      Woodbury updates, eigen helpers, root finding
``repro.datasets``    paper datasets and surrogates
``repro.ui``          headless SIDER user-interface computations
``repro.eval``        Jaccard / gaussianity metrics
``repro.baselines``   static projection pursuit and randomization baselines
``repro.experiments`` one harness per table/figure of the paper
``repro.service``     multi-tenant session server: stores, solve cache,
                      manager, versioned ``/v1`` HTTP API and client
                      (``repro serve``)
``repro.explore``     autonomous exploration: policies that play the
                      user, deterministic trace record/replay, and the
                      concurrent service load generator
                      (``repro explore --policy ...``, ``repro loadgen``)
``repro.perf``        nested timers + counters wired through solver and
                      service; zero overhead unless enabled
"""

from repro.core import (
    BackgroundModel,
    Constraint,
    ConstraintKind,
    ExplorationSession,
    SolverOptions,
    SolverReport,
)
from repro.errors import (
    ConstraintError,
    ConvergenceError,
    DataShapeError,
    NotFittedError,
    ReproError,
    RootFindError,
)
from repro.feedback import (
    ClusterFeedback,
    CovarianceFeedback,
    Feedback,
    MarginFeedback,
    ViewSelectionFeedback,
    feedback_from_dict,
)
from repro.projection import (
    Projection2D,
    UnknownObjectiveError,
    most_informative_view,
    registry,
)
from repro.service import ServiceClient, SessionManager, SolveCache

__version__ = "1.6.0"

__all__ = [
    "BackgroundModel",
    "Constraint",
    "ConstraintKind",
    "ExplorationSession",
    "SolverOptions",
    "SolverReport",
    "Feedback",
    "ClusterFeedback",
    "ViewSelectionFeedback",
    "MarginFeedback",
    "CovarianceFeedback",
    "feedback_from_dict",
    "registry",
    "UnknownObjectiveError",
    "Projection2D",
    "most_informative_view",
    "SessionManager",
    "SolveCache",
    "ServiceClient",
    "ReproError",
    "ConstraintError",
    "ConvergenceError",
    "DataShapeError",
    "NotFittedError",
    "RootFindError",
    "__version__",
]
