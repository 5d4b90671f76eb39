"""Typed feedback vocabulary: user knowledge as first-class objects.

The paper's interaction channel is "the user tells the system what they
now know"; the reproduction previously exposed that channel as five
parallel imperative methods.  This module reifies each kind of knowledge
as a small frozen dataclass that can be constructed in user code, sent
over the wire (``to_dict`` / ``from_dict``), persisted in checkpoints,
and applied through the single
:meth:`~repro.core.session.ExplorationSession.apply` /
:meth:`~repro.core.session.ExplorationSession.apply_many` codepath.

Kinds
-----
``cluster``      :class:`ClusterFeedback` — "these points form a cluster"
``view``         :class:`ViewSelectionFeedback` — knowledge along the
                 current view axes only (the 2-D constraint)
``margins``      :class:`MarginFeedback` — per-attribute means/variances
                 are known
``covariance``   :class:`CovarianceFeedback` — the overall covariance is
                 known (the 1-cluster constraint)

New kinds are registered by adding a dataclass with a unique ``kind`` and
calling :func:`register_feedback`; :func:`feedback_from_dict` then
round-trips it like the built-ins.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterable, Sequence

from repro.errors import DataShapeError

__all__ = [
    "Feedback",
    "ClusterFeedback",
    "ViewSelectionFeedback",
    "MarginFeedback",
    "CovarianceFeedback",
    "feedback_from_dict",
    "feedback_to_dict",
    "feedback_batch_from_payload",
    "register_feedback",
    "feedback_kinds",
]


def _row_index(row: object) -> int:
    if isinstance(row, bool):
        raise TypeError("a boolean is not a row index")
    return operator.index(row)


def _as_rows(rows: Iterable[int]) -> tuple[int, ...]:
    """Normalise any integer iterable (list, ndarray, range) to a tuple.

    Only Python and NumPy integers are row indices.  ``int()`` would turn
    ``0.5``, ``"3"`` or ``True`` into some row the caller never named, so
    floats, strings and booleans are rejected instead.
    """
    try:
        return tuple(_row_index(r) for r in rows)
    except TypeError as exc:
        raise DataShapeError(f"rows must be an iterable of integers: {exc}") from exc


@dataclass(frozen=True)
class Feedback:
    """Base class: one unit of user knowledge, hashable and serialisable.

    Attributes
    ----------
    label:
        Optional human-readable name for the action; empty means "let the
        session pick one" (matching the legacy auto-labels, so undo stacks
        look identical either way).
    """

    #: Wire/registry identifier; every concrete subclass overrides this.
    kind: ClassVar[str] = ""

    label: str = ""

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :func:`feedback_from_dict`."""
        payload: dict = {"kind": type(self).kind}
        for f in fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload


@dataclass(frozen=True)
class ClusterFeedback(Feedback):
    """"These points form a cluster" — the paper's main feedback kind."""

    kind: ClassVar[str] = "cluster"

    rows: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _as_rows(self.rows))
        if not self.rows:
            raise DataShapeError("cluster feedback needs a non-empty row set")


@dataclass(frozen=True)
class ViewSelectionFeedback(Feedback):
    """Knowledge restricted to the current view axes (2-D constraint)."""

    kind: ClassVar[str] = "view"

    rows: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _as_rows(self.rows))
        if not self.rows:
            raise DataShapeError("view feedback needs a non-empty row set")


@dataclass(frozen=True)
class MarginFeedback(Feedback):
    """Per-attribute means and variances declared known."""

    kind: ClassVar[str] = "margins"


@dataclass(frozen=True)
class CovarianceFeedback(Feedback):
    """Overall covariance declared known (the 1-cluster constraint)."""

    kind: ClassVar[str] = "covariance"


_KINDS: dict[str, type[Feedback]] = {}

#: Wire-format synonyms accepted by :func:`feedback_from_dict` — legacy
#: clients say ``"2d"`` for view feedback and ``"1-cluster"`` for
#: covariance feedback.
_ALIASES: dict[str, str] = {
    "2d": "view",
    "1-cluster": "covariance",
    "one-cluster": "covariance",
}


def register_feedback(
    cls: type[Feedback], *, overwrite: bool = False
) -> type[Feedback]:
    """Add a feedback dataclass to the wire registry; returns it.

    Raises :class:`ValueError` when the kind is already taken (unless
    ``overwrite=True``) — silently replacing a built-in would reroute
    every wire payload and checkpoint restore through the impostor.
    """
    kind = getattr(cls, "kind", "")
    if not isinstance(kind, str) or not kind:
        raise ValueError("feedback class must define a non-empty 'kind'")
    if not overwrite and kind in _KINDS and _KINDS[kind] is not cls:
        raise ValueError(
            f"feedback kind {kind!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _KINDS[kind] = cls
    return cls


for _cls in (ClusterFeedback, ViewSelectionFeedback, MarginFeedback, CovarianceFeedback):
    register_feedback(_cls)


def feedback_kinds() -> list[str]:
    """Registered feedback kinds, sorted (aliases not included)."""
    return sorted(_KINDS)


def feedback_to_dict(feedback: Feedback) -> dict:
    """Functional spelling of :meth:`Feedback.to_dict`."""
    if not isinstance(feedback, Feedback):
        raise DataShapeError(
            f"expected a Feedback object, got {type(feedback).__name__}"
        )
    return feedback.to_dict()


def feedback_from_dict(payload: dict) -> Feedback:
    """Rebuild one feedback object from its ``to_dict`` form.

    Raises
    ------
    DataShapeError
        On a non-dict payload, an unknown ``kind``, or field values the
        kind's constructor rejects.
    """
    if not isinstance(payload, dict):
        raise DataShapeError(
            f"expected a feedback dict, got {type(payload).__name__}"
        )
    raw_kind = payload.get("kind")
    if not isinstance(raw_kind, str):
        raise DataShapeError("feedback payload must carry a string 'kind'")
    kind = _ALIASES.get(raw_kind, raw_kind)
    cls = _KINDS.get(kind)
    if cls is None:
        raise DataShapeError(
            f"unknown feedback kind {raw_kind!r}; known: {feedback_kinds()}"
        )
    kwargs = {}
    names = {f.name for f in fields(cls)}
    for key, value in payload.items():
        if key == "kind":
            continue
        if key not in names:
            raise DataShapeError(
                f"feedback kind {kind!r} has no field {key!r}"
            )
        kwargs[key] = value
    if "label" in kwargs and kwargs["label"] is not None:
        kwargs["label"] = str(kwargs["label"])
    try:
        return cls(**kwargs)
    except DataShapeError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataShapeError(f"malformed {kind!r} feedback: {exc}") from exc


def feedback_batch_from_payload(items: Sequence[dict] | object) -> list[Feedback]:
    """Parse a JSON list of feedback dicts, validating *before* applying.

    Used by the batch endpoint: the whole list is parsed up front so a
    malformed item rejects the request without mutating any session state.
    """
    if not isinstance(items, (list, tuple)) or not items:
        raise DataShapeError(
            "feedback batch must be a non-empty list of feedback objects"
        )
    return [feedback_from_dict(item) for item in items]
