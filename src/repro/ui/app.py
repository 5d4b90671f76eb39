"""`SiderApp`: the headless SIDER application.

Combines the exploration session (model side) with the UI state machine
(front-end side) and produces render models (scatterplot, pairplot,
statistics panel) exactly as the R/Shiny SIDER does — minus the pixels.

Typical scripted use::

    app = SiderApp(bundle.data, feature_names=bundle.feature_names)
    frame = app.render()                       # initial most-informative view
    app.select_rectangle((0.5, 3.0), (-1.0, 2.0))
    app.add_cluster_constraint()               # button: 'add cluster constraint'
    app.update_background()                    # button: 'recompute background'
    frame = app.render()                       # next most-informative view
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.session import ExplorationSession
from repro.core.solver import SolverOptions
from repro.errors import DataShapeError
from repro.feedback import (
    ClusterFeedback,
    CovarianceFeedback,
    MarginFeedback,
    ViewSelectionFeedback,
)
from repro.projection.view import Projection2D
from repro.ui.pairplot import PairplotModel, build_pairplot
from repro.ui.scatterplot import ScatterplotModel, build_scatterplot
from repro.ui.selection import select_ellipse, select_rectangle
from repro.ui.state import Objective, PendingAction, UIState
from repro.ui.statistics import SelectionStatistics, selection_statistics


@dataclass(frozen=True)
class Frame:
    """One rendered 'screen' of the app.

    Attributes
    ----------
    view:
        The 2-D projection behind the scatterplot.
    scatterplot:
        Main scatterplot model (points, ghosts, segments, ellipses).
    pairplot:
        Pairplot of the most-discriminating attributes for the selection
        (None when nothing is selected).
    statistics:
        Statistics panel for the selection (None when nothing is selected).
    """

    view: Projection2D
    scatterplot: ScatterplotModel
    pairplot: PairplotModel | None
    statistics: SelectionStatistics | None


class SiderApp:
    """Headless SIDER: render models + user commands, no pixels.

    Parameters
    ----------
    data:
        Data matrix (n x d).
    feature_names:
        Optional attribute names used in axis labels and panels.
    objective:
        Initial view objective — any name registered with
        :mod:`repro.projection.registry`.
    standardize:
        Standardise columns before exploration.
    solver_options:
        Background-solver options (the UI exposes these as the convergence
        parameter controls; the ~10 s default cut-off matches SIDER).
    seed:
        Seed for all randomness (ICA init, ghost sampling).
    """

    def __init__(
        self,
        data: np.ndarray,
        feature_names: list[str] | tuple[str, ...] | None = None,
        objective: str = "pca",
        standardize: bool = False,
        solver_options: SolverOptions | None = None,
        seed: int | None = 0,
    ) -> None:
        self.session = ExplorationSession(
            data,
            objective=objective,
            standardize=standardize,
            solver_options=solver_options,
            seed=seed,
        )
        # The session constructor validated the name against the registry;
        # names outside the PCA/ICA toggle pair land on the custom slot.
        self.state = UIState()
        try:
            self.state.objective = Objective(self.session.objective)
        except ValueError:
            self.state.custom_objective = self.session.objective
        self.feature_names = list(feature_names) if feature_names else None
        self._ghosts: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self) -> Frame:
        """Produce the current screen (fits the model if needed)."""
        view = self.session.current_view(objective=self.state.objective_name)
        if self._ghosts is None:
            self._ghosts = self.session.background_sample()
        selection = self.state.selection
        scatter = build_scatterplot(
            view,
            self.session.data,
            self._ghosts,
            selection=selection if selection.size else None,
            feature_names=self.feature_names,
        )
        pairplot = None
        stats = None
        if selection.size:
            pairplot = build_pairplot(
                self.session.data, selection, feature_names=self.feature_names
            )
            stats = selection_statistics(
                self.session.data, selection, feature_names=self.feature_names
            )
        return Frame(view=view, scatterplot=scatter, pairplot=pairplot, statistics=stats)

    # ------------------------------------------------------------------
    # Selection commands
    # ------------------------------------------------------------------

    def select_rectangle(
        self, x_range: tuple[float, float], y_range: tuple[float, float]
    ) -> np.ndarray:
        """Rectangle-select in the current view; returns the selected rows."""
        view = self.session.current_view(objective=self.state.objective_name)
        projected = view.project(self.session.data)
        rows = select_rectangle(projected, x_range, y_range)
        self.state.set_selection(rows, self.session.data.shape[0])
        return rows

    def select_ellipse(
        self, centre: tuple[float, float], radii: tuple[float, float]
    ) -> np.ndarray:
        """Ellipse-select in the current view; returns the selected rows."""
        view = self.session.current_view(objective=self.state.objective_name)
        projected = view.project(self.session.data)
        rows = select_ellipse(projected, centre, radii)
        self.state.set_selection(rows, self.session.data.shape[0])
        return rows

    def select_rows(self, rows) -> np.ndarray:
        """Directly select explicit row indices (e.g. a dataset class)."""
        self.state.set_selection(rows, self.session.data.shape[0])
        return self.state.selection

    def save_selection(self, name: str) -> None:
        """Save the current selection as a named grouping."""
        self.state.store.save(name, self.state.selection)
        self.state.action_log.append(f"save selection {name!r}")

    def load_selection(self, name: str) -> np.ndarray:
        """Restore a named grouping as the current selection."""
        rows = self.state.store.load(name)
        self.state.set_selection(rows, self.session.data.shape[0])
        return rows

    # ------------------------------------------------------------------
    # Constraint commands (the left-panel buttons)
    # ------------------------------------------------------------------

    def add_cluster_constraint(self, label: str = "") -> None:
        """Button: add a cluster constraint for the current selection."""
        if not self.state.selection.size:
            raise DataShapeError("no selection to constrain")
        self.session.apply(
            ClusterFeedback(
                rows=self.state.selection, label=label
            )
        )
        self.state.mark_dirty(PendingAction.REFIT)
        self.state.action_log.append("add cluster constraint")

    def add_2d_constraint(self, label: str = "") -> None:
        """Button: add a 2-D constraint for the current selection."""
        if not self.state.selection.size:
            raise DataShapeError("no selection to constrain")
        self.session.apply(
            ViewSelectionFeedback(
                rows=self.state.selection, label=label
            )
        )
        self.state.mark_dirty(PendingAction.REFIT)
        self.state.action_log.append("add 2-D constraint")

    def add_margin_constraints(self) -> None:
        """Declare column means/variances known."""
        self.session.apply(MarginFeedback())
        self.state.mark_dirty(PendingAction.REFIT)
        self.state.action_log.append("add margin constraints")

    def add_one_cluster_constraint(self) -> None:
        """Declare the overall covariance known."""
        self.session.apply(CovarianceFeedback())
        self.state.mark_dirty(PendingAction.REFIT)
        self.state.action_log.append("add 1-cluster constraint")

    def undo(self) -> str | None:
        """Button: retract the most recent feedback action.

        Returns the undone action's label (or None).  The view refreshes
        on the next :meth:`update_background` / :meth:`render`.
        """
        label = self.session.undo_last_feedback()
        if label is not None:
            self.state.mark_dirty(PendingAction.REFIT)
            self.state.action_log.append(f"undo {label!r}")
            self._ghosts = None
        return label

    def update_background(self) -> None:
        """Button: recompute the background distribution and projection.

        Expensive work happens only here (and inside :meth:`render` when a
        first fit is needed), never as a side effect of selecting points —
        mirroring SIDER's explicit-command design.
        """
        self.state.consume_pending()
        # Invalidate ghosts; the refit happens lazily in current_view().
        self._ghosts = None
        self.session.current_view(objective=self.state.objective_name)
        self._ghosts = self.session.background_sample()
        self.state.action_log.append("update background")

    def toggle_objective(self) -> str:
        """Switch between the PCA and ICA objectives."""
        objective = self.state.toggle_objective()
        self.session.objective = objective.value
        return objective.value

    def set_objective(self, name: str) -> str:
        """Select any registered objective by name (beyond the toggle pair)."""
        chosen = self.state.set_objective(name)
        self.session.objective = chosen
        return chosen
