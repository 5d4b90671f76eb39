"""Objective registry: pluggable projection-pursuit vocabularies.

The paper's interaction loop is agnostic about *how* candidate views are
ranked — any projection-pursuit objective that produces directions and
scores them can drive the "most informative view" step.  This module makes
that openness first-class: an :class:`Objective` finds candidate direction
vectors on the whitened data and scores them, and a process-global registry
maps objective names to implementations so new objectives become drop-in
plugins visible everywhere an objective name is accepted (sessions, the
CLI, the service API, clients).

Built-in objectives:

``pca``      principal components of the whitened data ranked by the
             unit-deviation KL score (footnote 1 of the paper);
``ica``      FastICA directions ranked by signed log-cosh non-gaussianity
             (both the symmetric and deflation variants are run and the
             stronger basis wins);
``kurtosis`` deflationary kurtosis pursuit — fixed-point iteration on the
             kurtosis contrast, ranking by |excess kurtosis|;
``axis``     the axis-aligned "original attributes" baseline of the
             paper's Table I comparisons: canonical basis vectors ranked
             by the same log-cosh score ICA uses.

Registering a custom objective::

    from repro.projection import registry

    class RandomPursuit:
        name = "random"
        description = "best of 64 random directions"
        def find_directions(self, whitened, rng):
            ...
        def score(self, whitened, directions):
            ...

    registry.register(RandomPursuit())

After this, ``ExplorationSession(data, objective="random")``, the
``repro explore --objective random`` CLI, and ``POST /v1/sessions`` with
``{"objective": "random"}`` all work without touching core files.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro import perf
from repro.errors import ReproError
from repro.projection.fastica import fit_fastica
from repro.projection.pca import fit_pca
from repro.projection.scores import ica_scores, pca_scores


class UnknownObjectiveError(ReproError, ValueError):
    """The requested objective name is not in the registry.

    Subclasses :class:`ValueError` so callers that guarded objective names
    with ``except ValueError`` keep working unchanged.
    """


@runtime_checkable
class Objective(Protocol):
    """What a view objective must provide.

    Attributes
    ----------
    name:
        Registry key; also stamped on every :class:`Projection2D` the
        objective produces.
    description:
        One-line human-readable summary (shown by ``GET /v1/objectives``
        and ``repro objectives``).
    """

    name: str
    description: str

    def find_directions(
        self, whitened: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Candidate unit direction vectors, one per row ``(k, d)``.

        An objective whose search already scores its candidates may return
        ``(directions, scores)`` instead; the view builder then skips the
        separate :meth:`score` pass.
        """
        ...

    def score(self, whitened: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Score each direction; views rank by ``|score|`` descending."""
        ...


# ----------------------------------------------------------------------
# Built-in objectives
# ----------------------------------------------------------------------


class PCAObjective:
    """Principal components ranked by deviation of variance from 1."""

    name = "pca"
    description = (
        "principal components of the whitened data, ranked by the "
        "unit-deviation KL score (variance differences carry the signal)"
    )

    def find_directions(
        self, whitened: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return fit_pca(whitened, rank_by_unit_deviation=True).components

    def score(self, whitened: np.ndarray, directions: np.ndarray) -> np.ndarray:
        return pca_scores(whitened, directions)


class ICAObjective:
    """FastICA directions ranked by signed log-cosh non-gaussianity.

    Both FastICA variants are run and the basis with the stronger top-2
    |scores| wins — on cluster mixtures the deflation variant often finds
    strong discriminating directions the symmetric compromise misses.
    The symmetric variant searches ``restarts`` random initialisations as
    one stacked tensor iteration (batched multi-restart; this replaced
    the serial one-init-per-variant runs), so seed-unlucky symmetric
    fixed points no longer decide the view.

    Each run stops once its view stops improving by more than a fiftieth
    of the contrast's gaussian sampling SD (the plateau test of
    :mod:`repro.projection.fastica`), so directions with no structure
    left no longer keep a run iterating to its cap.  The winning variant
    is counted under ``projection.ica_wins_symmetric`` /
    ``projection.ica_wins_deflation`` (``REPRO_PERF=1``, ``/v1/stats``).
    """

    name = "ica"
    description = (
        "FastICA directions ranked by |log-cosh non-gaussianity| "
        "(finds clustered/multimodal structure at matched variances)"
    )

    def __init__(self, restarts: int = 3) -> None:
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        self.restarts = int(restarts)

    def find_directions(
        self, whitened: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        best: tuple[np.ndarray, np.ndarray] | None = None
        best_strength = -np.inf
        winner = ""
        for algorithm in ("symmetric", "deflation"):
            # Child generator per variant keeps the two runs independent
            # while remaining reproducible from the caller's generator.
            child = np.random.default_rng(rng.integers(0, 2**63))
            result = fit_fastica(
                whitened,
                rng=child,
                algorithm=algorithm,
                n_restarts=self.restarts if algorithm == "symmetric" else 1,
            )
            scores = ica_scores(whitened, result.components)
            strength = float(np.sum(np.sort(np.abs(scores))[::-1][:2]))
            if strength > best_strength:
                best_strength = strength
                best = (result.components, scores)
                winner = algorithm
        assert best is not None
        perf.add(f"projection.ica_wins_{winner}")
        # Scores come along: the search computed them to pick the winner,
        # so the view builder need not re-run the log-cosh pass.
        return best

    def score(self, whitened: np.ndarray, directions: np.ndarray) -> np.ndarray:
        return ica_scores(whitened, directions)


class KurtosisObjective:
    """Deflationary kurtosis pursuit.

    Classic fixed-point projection pursuit on the kurtosis contrast
    ``E[(w^T y)^4] - 3``: the update ``w <- E[y (w^T y)^3] - 3 w`` converges
    to extrema of excess kurtosis on whitened data, and deflation
    (Gram-Schmidt against already-found directions) yields an orthonormal
    basis.  Kurtosis is the moment-based cousin of the log-cosh score —
    cheaper and more aggressive on heavy tails, at the cost of outlier
    sensitivity.
    """

    name = "kurtosis"
    description = (
        "fixed-point kurtosis pursuit, ranked by |excess kurtosis| "
        "(moment-based; sharp on heavy tails and grouped structure)"
    )

    def __init__(self, max_iterations: int = 200, tolerance: float = 1e-8) -> None:
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)

    def find_directions(
        self, whitened: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        with perf.timer("kurtosis_pursuit"):
            return self._pursue(whitened, rng)

    def _pursue(
        self, whitened: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        y = np.asarray(whitened, dtype=np.float64)
        d = y.shape[1]
        basis = np.zeros((d, d))
        for i in range(d):
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            for _ in range(self.max_iterations):
                proj = y @ w
                w_new = (y * (proj**3)[:, None]).mean(axis=0) - 3.0 * w
                # Deflate: stay orthogonal to the directions already found.
                w_new -= basis[:i].T @ (basis[:i] @ w_new)
                norm = np.linalg.norm(w_new)
                if norm < 1e-12:
                    # Degenerate update (gaussian direction); restart.
                    w_new = rng.standard_normal(d)
                    w_new -= basis[:i].T @ (basis[:i] @ w_new)
                    norm = np.linalg.norm(w_new)
                    if norm < 1e-12:
                        break
                w_new /= norm
                converged = abs(abs(float(w_new @ w)) - 1.0) < self.tolerance
                w = w_new
                if converged:
                    break
            basis[i] = w
        return basis

    def score(self, whitened: np.ndarray, directions: np.ndarray) -> np.ndarray:
        proj = np.asarray(whitened, dtype=np.float64) @ np.atleast_2d(
            np.asarray(directions, dtype=np.float64)
        ).T
        centred = proj - proj.mean(axis=0, keepdims=True)
        std = centred.std(axis=0, ddof=1)
        std[std == 0.0] = 1.0
        u = centred / std
        return np.mean(u**4, axis=0) - 3.0


class AxisObjective:
    """Axis-aligned baseline: the original attributes as candidate views.

    The paper's Table I compares ICA directions against the original
    attributes; this objective is that comparison column as a first-class
    citizen.  Directions are the canonical basis vectors and scores are the
    same signed log-cosh non-gaussianity ICA uses, so the axis view answers
    "which *raw attributes* still look unexplained?".
    """

    name = "axis"
    description = (
        "axis-aligned 'original attributes' baseline (Table I): canonical "
        "basis vectors ranked by log-cosh non-gaussianity"
    )

    def find_directions(
        self, whitened: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.eye(np.asarray(whitened).shape[1])

    def score(self, whitened: np.ndarray, directions: np.ndarray) -> np.ndarray:
        return ica_scores(whitened, directions)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

_lock = threading.RLock()
_registry: dict[str, Objective] = {}


def register(objective: Objective, *, overwrite: bool = False) -> Objective:
    """Add an objective to the global registry; returns it for chaining.

    Raises :class:`ValueError` when the name is already taken (unless
    ``overwrite=True``) or the object does not satisfy the
    :class:`Objective` protocol.
    """
    name = getattr(objective, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError("objective must carry a non-empty string 'name'")
    for attr in ("find_directions", "score"):
        if not callable(getattr(objective, attr, None)):
            raise ValueError(f"objective {name!r} must define {attr}()")
    with _lock:
        if not overwrite and name in _registry:
            raise ValueError(
                f"objective {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        _registry[name] = objective
    return objective


def unregister(name: str) -> None:
    """Remove an objective (no-op if absent); built-ins can be re-added."""
    with _lock:
        _registry.pop(name, None)


def get(name: str | Objective) -> Objective:
    """Resolve an objective name (or pass an instance through).

    Raises
    ------
    UnknownObjectiveError
        When no objective with that name is registered.  This is a
        :class:`ValueError`, so pre-registry call sites keep their
        error-handling behaviour.
    """
    if not isinstance(name, str):
        if isinstance(name, Objective):
            return name
        raise UnknownObjectiveError(
            f"expected an objective name or instance, got {type(name).__name__}"
        )
    with _lock:
        objective = _registry.get(name)
    if objective is None:
        raise UnknownObjectiveError(
            f"unknown objective {name!r}; registered: {names()}"
        )
    perf.add("projection.objective_lookups")
    return objective


@contextmanager
def temporary(objective: Objective) -> Iterator[Objective]:
    """Register an objective for the duration of a ``with`` block.

    Shadows any same-named registration and restores it on exit — the
    scoped way to run an experiment with a reconfigured built-in (e.g.
    ``temporary(ICAObjective(restarts=8))``) without leaking global
    state.  The registry is process-global, so the override is visible
    to every thread inside the block; use it from experiment scripts and
    tests, not from concurrent servers.
    """
    name = getattr(objective, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError("objective must carry a non-empty string 'name'")
    with _lock:
        previous = _registry.get(name)
        _registry[name] = objective
    try:
        yield objective
    finally:
        with _lock:
            if previous is None:
                _registry.pop(name, None)
            else:
                _registry[name] = previous


def is_registered(name: str) -> bool:
    """True when ``get(name)`` would succeed."""
    with _lock:
        return name in _registry


def names() -> list[str]:
    """Registered objective names, sorted."""
    with _lock:
        return sorted(_registry)


def describe() -> list[dict]:
    """JSON-ready ``{"name", "description"}`` rows (``GET /v1/objectives``)."""
    with _lock:
        items = sorted(_registry.items())
    return [
        {
            "name": name,
            "description": str(getattr(obj, "description", "")),
        }
        for name, obj in items
    ]


def ensure_builtins(extra: Iterable[Objective] = ()) -> None:
    """(Re-)register the built-in objectives; idempotent."""
    with _lock:
        for objective in (
            PCAObjective(),
            ICAObjective(),
            KurtosisObjective(),
            AxisObjective(),
            *extra,
        ):
            _registry.setdefault(objective.name, objective)


ensure_builtins()
