"""UI state machine: what the SIDER front-end tracks between renders.

The state keeps the current objective (PCA/ICA), the current selection, the
saved groupings and the history of constraint actions — everything the user
can change without triggering a recomputation.  Time-consuming operations
(refitting the background, computing an ICA projection) happen only on
explicit commands, matching SIDER's design of keeping the interface
"responsive and predictable" (Sec. III).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataShapeError
from repro.projection import registry
from repro.ui.selection import SelectionStore, selection_rows


class Objective(enum.Enum):
    """The two objectives on the UI's quick toggle (PCA <-> ICA).

    Any other registered objective is reachable through
    :meth:`UIState.set_objective`, which stores it as a custom override.
    """

    PCA = "pca"
    ICA = "ica"


class PendingAction(enum.Enum):
    """Expensive actions that run only on explicit user command."""

    NONE = "none"
    REFIT = "refit"
    RECOMPUTE_VIEW = "recompute-view"


@dataclass
class UIState:
    """Mutable front-end state of the headless SIDER app.

    Attributes
    ----------
    objective:
        Current projection objective.
    selection:
        Currently selected row indices (empty by default).
    store:
        Named saved selections.
    pending:
        Which expensive recomputation the user's edits require next.
    action_log:
        Chronological log of user actions (for reproducibility and tests).
    """

    objective: Objective = Objective.PCA
    #: A registered objective outside the PCA/ICA toggle pair ("kurtosis",
    #: a user plugin, ...); overrides ``objective`` while set.
    custom_objective: str | None = None
    selection: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    store: SelectionStore = field(default_factory=SelectionStore)
    pending: PendingAction = PendingAction.NONE
    action_log: list[str] = field(default_factory=list)

    @property
    def objective_name(self) -> str:
        """The active objective's registry name (toggle pair or custom)."""
        return self.custom_objective or self.objective.value

    def set_objective(self, name: str) -> str:
        """Select any registered objective by name; returns it.

        Names on the toggle pair keep using the enum; anything else is
        stored as a custom override.  Unknown names raise
        :class:`~repro.projection.registry.UnknownObjectiveError`.
        """
        name = registry.get(name).name
        try:
            self.objective = Objective(name)
            self.custom_objective = None
        except ValueError:
            self.custom_objective = name
        self.pending = PendingAction.RECOMPUTE_VIEW
        self.action_log.append(f"objective -> {name}")
        return name

    def set_selection(self, rows: np.ndarray, n_rows: int) -> None:
        """Replace the selection (validated against the dataset size).

        Rows are checked by :func:`~repro.ui.selection.selection_rows`;
        an empty selection is always legal.
        """
        arr = selection_rows(rows)
        if arr.size and (arr[0] < 0 or arr[-1] >= n_rows):
            raise DataShapeError("selection out of range")
        self.selection = arr
        self.action_log.append(f"select {arr.size} points")

    def clear_selection(self) -> None:
        """Empty the selection."""
        self.selection = np.empty(0, dtype=np.intp)
        self.action_log.append("clear selection")

    def toggle_objective(self) -> Objective:
        """Switch PCA <-> ICA; flags the view for recomputation.

        Toggling leaves any custom objective: the toggle always lands on
        one of the pair.
        """
        self.objective = (
            Objective.ICA if self.objective is Objective.PCA else Objective.PCA
        )
        self.custom_objective = None
        self.pending = PendingAction.RECOMPUTE_VIEW
        self.action_log.append(f"objective -> {self.objective.value}")
        return self.objective

    def mark_dirty(self, action: PendingAction) -> None:
        """Record that an expensive recomputation is needed.

        REFIT supersedes RECOMPUTE_VIEW (a refit always implies a new
        view).
        """
        if action is PendingAction.REFIT or self.pending is PendingAction.NONE:
            self.pending = action

    def consume_pending(self) -> PendingAction:
        """Return and clear the pending action (called by the app loop)."""
        action, self.pending = self.pending, PendingAction.NONE
        return action
