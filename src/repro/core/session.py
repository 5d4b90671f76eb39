"""`ExplorationSession`: the full interactive loop of Fig. 1, headless.

The session glues together the background model, whitening, projection
pursuit and the constraint vocabulary into exactly the cycle the paper's
overview figure describes:

1. (re)fit the background distribution,
2. whiten the data against it,
3. compute the most informative 2-D view (PCA or ICA objective),
4. accept user knowledge (cluster / 2-D constraints on selected points),
5. repeat until the view scores are negligible.

Driving this class programmatically is the scripted analogue of a user
driving the SIDER web UI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.background import BackgroundModel
from repro.core.solver import SolverOptions, SolverReport
from repro.feedback import (
    ClusterFeedback,
    CovarianceFeedback,
    Feedback,
    MarginFeedback,
    ViewSelectionFeedback,
)
from repro.projection import registry
from repro.projection.view import Projection2D, most_informative_view


@dataclass
class IterationRecord:
    """What happened in one loop iteration (for history/reporting).

    Attributes
    ----------
    index:
        Iteration number, starting at 0.
    view:
        The projection shown to the (virtual) user.
    solver_report:
        Diagnostics of the fit that preceded the view.
    constraints_added:
        Labels of the constraint groups added *after* seeing this view.
    """

    index: int
    view: Projection2D
    solver_report: SolverReport
    constraints_added: list[str] = field(default_factory=list)


class ExplorationSession:
    """Scripted interactive exploration of a dataset.

    Parameters
    ----------
    data:
        Observed data matrix (n x d).
    objective:
        Default view objective — any name registered with
        :mod:`repro.projection.registry` (built-ins: ``"pca"``, ``"ica"``,
        ``"kurtosis"``, ``"axis"``).
    standardize:
        Standardise columns before exploring (recommended for raw-scale
        data; see :class:`~repro.core.background.BackgroundModel`).
    solver_options:
        Optimisation options for every refit.
    seed:
        Seed for FastICA initialisation and background sampling, making the
        whole session reproducible.
    warm_start:
        Opt-in: seed each refit from the previous solution via
        :mod:`repro.core.incremental` instead of cold-starting.  The
        interactive loop appends constraints monotonically, which is
        exactly the workload warm starts pay off on (long autonomous
        runs); undo falls back to a cold start automatically.  Default
        off to keep the paper-faithful cold-restart semantics.

    Examples
    --------
    >>> from repro.datasets import three_d_clusters
    >>> bundle = three_d_clusters(seed=0)
    >>> session = ExplorationSession(bundle.data, objective="pca")
    >>> view = session.current_view()
    >>> selection = session.select_within(view, corner="auto")   # doctest: +SKIP
    """

    def __init__(
        self,
        data: np.ndarray,
        objective: str = "pca",
        standardize: bool = False,
        solver_options: SolverOptions | None = None,
        seed: int | None = 0,
        warm_start: bool = False,
    ) -> None:
        # Registry lookup both validates the name and raises a ValueError
        # subclass, keeping the legacy contract for unknown objectives.
        self.objective = registry.get(objective).name
        self.model = BackgroundModel(
            data, standardize=standardize, solver_options=solver_options
        )
        self._rng = np.random.default_rng(seed)
        self._history: list[IterationRecord] = []
        self._current_view: Projection2D | None = None
        # Undo stack: (label, number of primitive constraints) per feedback
        # action, newest last; _feedback_log holds the typed objects in the
        # same order (persisted by checkpoints).
        self._feedback_groups: list[tuple[str, int]] = []
        self._feedback_log: list[Feedback] = []
        self.warm_start = bool(warm_start)
        # Previous solve state for incremental refits; None until the
        # first warm fit (and after any history rewrite that breaks the
        # append-only prefix property, the solver cold-starts silently).
        self._warm_state = None

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    @property
    def history(self) -> tuple[IterationRecord, ...]:
        """All completed iterations, oldest first."""
        return tuple(self._history)

    @property
    def data(self) -> np.ndarray:
        """The (possibly standardised) data being explored."""
        return self.model.data

    @property
    def feedback_groups(self) -> tuple[tuple[str, int], ...]:
        """Undoable feedback actions as ``(label, n_constraints)``, oldest first."""
        return tuple(self._feedback_groups)

    def current_view(self, objective: str | None = None) -> Projection2D:
        """Fit (if needed) and return the most informative projection.

        Calling this repeatedly without adding knowledge returns the same
        view; after constraints are added — or when a different objective
        is requested — a fresh fit/view is computed.
        """
        wanted = objective or self.objective
        stale = (
            self._current_view is None
            or not self.model.is_fitted
            or self._current_view.objective != wanted
        )
        if stale:
            if self.model.is_fitted:
                report = self.model.last_report
            elif self.warm_start:
                report, self._warm_state = self.model.fit_warm(self._warm_state)
            else:
                report = self.model.fit()
            whitened = self.model.whiten()
            view = most_informative_view(whitened, objective=wanted, rng=self._rng)
            record = IterationRecord(
                index=len(self._history), view=view, solver_report=report
            )
            self._history.append(record)
            self._current_view = view
        return self._current_view

    # ------------------------------------------------------------------
    # Feedback: the single typed codepath
    # ------------------------------------------------------------------

    @property
    def feedback_log(self) -> tuple[Feedback, ...]:
        """Typed feedback objects applied so far, oldest first."""
        return tuple(self._feedback_log)

    def apply(self, feedback: Feedback) -> str:
        """Apply one feedback object; returns the label it was filed under.

        All user knowledge flows through here (and :meth:`apply_many`):
        constraint construction, auto-labelling, undo bookkeeping, and the
        typed feedback log that checkpoints persist.  The refit itself stays
        lazy — the next :meth:`current_view` performs it.
        """
        return self.apply_many([feedback])[0]

    def apply_many(self, batch: Sequence[Feedback]) -> list[str]:
        """Apply a batch of feedback objects with at most one solver fit.

        View-relative feedback in the batch is resolved against the view
        the user was looking at when the batch was posted — the cached
        current view, whatever objective ranked it (an objective-override
        view counts), falling back to a freshly computed default view
        when nothing has been shown yet.  The axes are captured *once*,
        before any item mutates the belief state, so a mixed batch costs
        at most one fit (and none when the view is already current).  The
        batch is atomic — if any item fails, the items already applied
        are rolled back before the error propagates.

        Returns the label each item was filed under, in batch order.
        """
        items = list(batch)
        for item in items:
            if not isinstance(item, Feedback):
                raise TypeError(
                    f"expected Feedback objects, got {type(item).__name__}"
                )
        view_axes: np.ndarray | None = None
        if any(isinstance(item, ViewSelectionFeedback) for item in items):
            if self._current_view is not None and self.model.is_fitted:
                # The view the user is actually looking at (possibly an
                # objective override), not a recomputed default view.
                view_axes = self._current_view.axes
            else:
                view_axes = self.current_view().axes
        labels: list[str] = []
        try:
            for item in items:
                labels.append(self._apply_one(item, view_axes))
        except Exception:
            for _ in labels:
                self.undo_last_feedback()
            raise
        return labels

    def _apply_one(self, item: Feedback, view_axes: np.ndarray | None) -> str:
        before = self.model.n_constraints
        if isinstance(item, ClusterFeedback):
            name = item.label or f"cluster[{before}]"
            self.model.add_cluster_constraint(item.rows, label=name)
        elif isinstance(item, ViewSelectionFeedback):
            assert view_axes is not None  # resolved by apply_many
            name = item.label or f"2d[{before}]"
            self.model.add_projection_constraints(
                item.rows, view_axes, label=name
            )
        elif isinstance(item, MarginFeedback):
            name = item.label or "margins"
            self.model.add_margin_constraints()
        elif isinstance(item, CovarianceFeedback):
            name = item.label or "1-cluster"
            self.model.add_one_cluster_constraint()
        else:
            raise TypeError(
                f"no constraint builder for feedback kind "
                f"{type(item).kind or type(item).__name__!r}"
            )
        self._feedback_log.append(item)
        self._note_feedback(name, self.model.n_constraints - before)
        return name

    def undo_last_feedback(self) -> str | None:
        """Retract the most recent feedback action (all its constraints).

        Returns the undone action's label, or ``None`` when there is
        nothing to undo.  The belief state reverts on the next fit — the
        natural "that was not actually a cluster" escape hatch.
        """
        if not self._feedback_groups:
            return None
        label, count = self._feedback_groups.pop()
        if self._feedback_log:
            self._feedback_log.pop()
        self.model.remove_last_constraints(count)
        for record in reversed(self._history):
            if label in record.constraints_added:
                record.constraints_added.remove(label)
                break
        self._current_view = None
        return label

    def _note_feedback(self, label: str, n_constraints: int) -> None:
        if self._history:
            self._history[-1].constraints_added.append(label)
        self._feedback_groups.append((label, n_constraints))
        # Invalidate the cached view: the belief state changed.
        self._current_view = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def whitened(self) -> np.ndarray:
        """Whitened data under the current belief state (fits if needed)."""
        self.current_view()
        return self.model.whiten()

    def background_sample(self) -> np.ndarray:
        """Ghost points: one background draw per data row (fits if needed)."""
        self.current_view()
        return self.model.sample(rng=self._rng)

    def is_explained(self, score_threshold: float = 5e-3) -> bool:
        """True when the current best view has negligible score.

        This is the natural stopping rule of the loop: no projection shows a
        notable difference between data and background any more.
        """
        view = self.current_view()
        return bool(np.max(np.abs(view.scores)) < score_threshold)

    def run_steps(self, markings: Sequence[Sequence[int]]) -> list[Projection2D]:
        """Scripted exploration: mark each given row set as a cluster in turn.

        Parameters
        ----------
        markings:
            A sequence of row-index collections; after each, the background
            is refit and the next view computed.

        Returns
        -------
        list[Projection2D]
            The view *after* each marking (length = len(markings)).
        """
        views: list[Projection2D] = []
        self.current_view()
        for rows in markings:
            self.apply(ClusterFeedback(rows=rows))
            views.append(self.current_view())
        return views
