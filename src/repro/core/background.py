"""`BackgroundModel`: the user-facing facade of the MaxEnt machinery.

This class owns a dataset, an evolving list of constraints, and the fitted
per-class Gaussian parameters.  It exposes exactly the operations the
SIDER loop needs:

* ``add_*_constraint`` — register knowledge (margin / cluster / 1-cluster /
  2-D constraints);
* ``fit`` — (re-)solve the MaxEnt problem;
* ``whiten`` — whitened data for projection pursuit;
* ``sample`` — ghost points for visualisation;
* ``row_mean`` / ``row_covariance`` — per-row dual parameters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import builders
from repro.core.constraint import Constraint
from repro.core.equivalence import EquivalenceClasses, build_equivalence_classes
from repro.core.parameters import ClassParameters
from repro.core.sampling import sample_background
from repro.core.solver import SolverOptions, SolverReport, solve_maxent
from repro.core.whitening import whiten
from repro.errors import DataShapeError, NotFittedError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.core.incremental import WarmStartState


class BackgroundModel:
    """Maximum-Entropy background distribution over an observed dataset.

    Parameters
    ----------
    data:
        Observed data matrix (n x d).  A defensive copy is stored.
    standardize:
        If True, columns are shifted/scaled to zero mean and unit variance
        before anything else.  The spherical prior (Eq. 1) is only a
        sensible initial belief for data on that scale; SIDER use cases that
        skip this (Fig. 9a) show an immediate scale mismatch as the first
        "insight".
    solver_options:
        Default options used by :meth:`fit`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import BackgroundModel
    >>> rng = np.random.default_rng(0)
    >>> data = rng.standard_normal((100, 3))
    >>> model = BackgroundModel(data)
    >>> model.fit()                          # no constraints: prior
    >>> np.allclose(model.whiten(), model.data)
    True
    """

    def __init__(
        self,
        data: np.ndarray,
        standardize: bool = False,
        solver_options: SolverOptions | None = None,
    ) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise DataShapeError(
                f"expected a non-empty 2-D data matrix, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DataShapeError("data contains non-finite values")
        arr = arr.copy()
        self._column_shift = np.zeros(arr.shape[1])
        self._column_scale = np.ones(arr.shape[1])
        if standardize:
            self._column_shift = arr.mean(axis=0)
            scale = arr.std(axis=0)
            scale[scale == 0.0] = 1.0
            self._column_scale = scale
            arr = (arr - self._column_shift) / self._column_scale
        self._data = arr
        self._constraints: list[Constraint] = []
        self.solver_options = solver_options or SolverOptions()
        self._params: ClassParameters | None = None
        self._classes: EquivalenceClasses | None = None
        self._report: SolverReport | None = None
        self._dirty = True
        # (params, classes, Y) of the last whiten(); see whiten().
        self._whitened: tuple | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The (possibly standardised) data matrix the model works on."""
        return self._data

    @property
    def n_rows(self) -> int:
        """Number of data rows n."""
        return int(self._data.shape[0])

    @property
    def dim(self) -> int:
        """Data dimensionality d."""
        return int(self._data.shape[1])

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The registered constraints, in insertion order."""
        return tuple(self._constraints)

    @property
    def n_constraints(self) -> int:
        """Number of registered primitive constraints."""
        return len(self._constraints)

    @property
    def is_fitted(self) -> bool:
        """True when parameters are in sync with the constraint set."""
        return self._params is not None and not self._dirty

    @property
    def last_report(self) -> SolverReport | None:
        """Diagnostics of the most recent :meth:`fit` call (or None)."""
        return self._report

    # ------------------------------------------------------------------
    # Constraint registration
    # ------------------------------------------------------------------

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        """Register pre-built primitive constraints."""
        for c in constraints:
            if c.dim != self.dim:
                raise DataShapeError(
                    f"constraint dimension {c.dim} != data dimension {self.dim}"
                )
            if int(c.rows[-1]) >= self.n_rows:
                raise DataShapeError(
                    f"constraint references row {int(c.rows[-1])}, "
                    f"but data has {self.n_rows} rows"
                )
            self._constraints.append(c)
        if constraints:
            self._dirty = True

    def remove_last_constraints(self, count: int) -> list[Constraint]:
        """Remove (and return) the ``count`` most recently added constraints.

        The undo primitive: feedback actions append constraint groups, so
        undoing one action means popping its group.  The model becomes
        dirty (refit required) whenever anything was removed.
        """
        if count < 0:
            raise DataShapeError("count must be non-negative")
        if count > len(self._constraints):
            raise DataShapeError(
                f"cannot remove {count} constraints; only "
                f"{len(self._constraints)} registered"
            )
        if count == 0:
            return []
        removed = self._constraints[-count:]
        del self._constraints[-count:]
        self._dirty = True
        return removed

    def add_margin_constraints(self) -> None:
        """Column means and variances: 2d constraints (see paper Sec. II-A)."""
        self.add_constraints(builders.margin_constraints(self._data))

    def add_cluster_constraint(
        self, rows: Sequence[int] | np.ndarray, label: str = "cluster"
    ) -> None:
        """Mean/covariance of a selected cluster along its SVD axes."""
        self.add_constraints(
            builders.cluster_constraint(self._data, rows, label=label)
        )

    def add_one_cluster_constraint(self) -> None:
        """Treat the full dataset as one cluster (overall covariance)."""
        self.add_constraints(builders.one_cluster_constraint(self._data))

    def add_projection_constraints(
        self,
        rows: Sequence[int] | np.ndarray,
        axes: np.ndarray,
        label: str = "2d",
    ) -> None:
        """Mean/variance of selected rows along the two current view axes."""
        self.add_constraints(
            builders.projection_constraints(self._data, rows, axes, label=label)
        )

    # ------------------------------------------------------------------
    # Fitting and derived quantities
    # ------------------------------------------------------------------

    def fit(self, options: SolverOptions | None = None) -> SolverReport:
        """(Re-)solve the MaxEnt problem for the current constraint set.

        Always re-solves from the prior: with exact coordinate steps the
        solver re-finds previous multipliers in a few sweeps, and a cold
        start keeps the state easy to reason about (and matches what the
        runtime experiment of Table II measures).
        """
        params, classes, report = solve_maxent(
            self._data, self._constraints, options=options or self.solver_options
        )
        self._params = params
        self._classes = classes
        self._report = report
        self._dirty = False
        return report

    def fit_warm(
        self,
        previous: "WarmStartState | None" = None,
        options: SolverOptions | None = None,
    ) -> tuple[SolverReport, "WarmStartState"]:
        """(Re-)solve, warm-starting from a previous solution when possible.

        The incremental path of :mod:`repro.core.incremental`: when
        ``previous`` was fitted for a prefix of the current constraint list
        (the append-only interactive pattern), the new solve is seeded from
        the previous optimum; otherwise a cold start happens silently.
        Returns ``(report, state)`` where ``state`` should be passed as
        ``previous`` to the next call.
        """
        from repro.core.incremental import incremental_solve

        params, classes, report, state = incremental_solve(
            self._data,
            self._constraints,
            previous=previous,
            options=options or self.solver_options,
        )
        self._params = params
        self._classes = classes
        self._report = report
        self._dirty = False
        return report, state

    def _require_fit(self) -> tuple[ClassParameters, EquivalenceClasses]:
        if self._params is None or self._classes is None:
            raise NotFittedError("call fit() before using the background model")
        if self._dirty:
            raise NotFittedError(
                "constraints changed since the last fit(); call fit() again"
            )
        return self._params, self._classes

    def whiten(self) -> np.ndarray:
        """Whitened data Y (Eq. 14) under the fitted model, read-only.

        Computed once per fit: a view and its row surprise share one
        matrix.  The memo is keyed on the identity of the installed
        parameter and class objects, which every fit replaces, and so do
        the solve cache and checkpoint restore when they install a fit.
        """
        params, classes = self._require_fit()
        memo = self._whitened
        if memo is None or memo[0] is not params or memo[1] is not classes:
            whitened = whiten(self._data, params, classes)
            whitened.flags.writeable = False
            memo = self._whitened = (params, classes, whitened)
        return memo[2]

    def sample(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """One background-distribution sample per data row (ghost points)."""
        params, classes = self._require_fit()
        return sample_background(params, classes, rng=rng)

    def row_mean(self, i: int) -> np.ndarray:
        """Dual mean ``m_i`` of row ``i`` under the fitted model."""
        params, classes = self._require_fit()
        return params.mean[classes.class_of_row[i]].copy()

    def row_covariance(self, i: int) -> np.ndarray:
        """Dual covariance ``Sigma_i`` of row ``i`` under the fitted model."""
        params, classes = self._require_fit()
        return params.sigma[classes.class_of_row[i]].copy()

    def means(self) -> np.ndarray:
        """All per-row means as an (n, d) array."""
        params, classes = self._require_fit()
        return params.mean[classes.class_of_row]

    def constraint_expectations(self) -> np.ndarray:
        """Model expectation of every registered constraint function.

        After a converged fit these match the observed values
        (:meth:`constraint_targets`) within solver tolerance — the defining
        property of the background distribution (Eq. 6).
        """
        params, classes = self._require_fit()
        values = np.empty(len(self._constraints))
        for t, c in enumerate(self._constraints):
            affected = classes.members[t]
            counts = classes.class_counts[affected].astype(np.float64)
            means, variances = params.projected_stats(affected, c.w)
            if c.kind.value == "lin":
                values[t] = float(np.dot(counts, means))
            else:
                delta = float(c.anchor_mean(self._data) @ c.w)
                values[t] = float(
                    np.dot(counts, variances + (means - delta) ** 2)
                )
        return values

    def constraint_targets(self) -> np.ndarray:
        """Observed value ``v̂_t`` of every registered constraint."""
        return np.array([c.observed_value(self._data) for c in self._constraints])

    def knowledge_nats(self) -> float:
        """Accumulated knowledge: KL(p || prior) of the fitted model in nats.

        The negated MaxEnt objective (Eq. 5).  Zero with no constraints,
        monotone non-decreasing as constraints are added (more constraints
        can only move the distribution further from the prior).
        """
        from repro.eval.information import background_kl_from_prior

        params, classes = self._require_fit()
        return background_kl_from_prior(params, classes)

    def row_surprise(self) -> np.ndarray:
        """Per-row negative log density under the fitted background.

        The principled version of the ghost-displacement visual: large
        values mark rows the current belief state considers unlikely.
        """
        from repro.eval.information import whitened_negative_log_density

        params, classes = self._require_fit()
        return whitened_negative_log_density(self.whiten(), params, classes)

    def equivalence_summary(self) -> dict:
        """Small diagnostic summary of the row partition (for logs/tests)."""
        if self._classes is None:
            classes = build_equivalence_classes(self.n_rows, self._constraints)
        else:
            classes = self._classes
        return {
            "n_rows": classes.n_rows,
            "n_classes": classes.n_classes,
            "largest_class": int(classes.class_counts.max()),
        }
