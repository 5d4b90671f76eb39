"""Row equivalence classes: the n-independence trick of the paper.

Two rows affected by exactly the same set of constraints have identical
natural and dual parameters throughout the optimisation, so parameters only
need to be stored once per *equivalence class* of rows.  The number of
classes depends on how constraints overlap, not on n, which is why the
OPTIM phase of Table II is independent of the number of data points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.constraint import Constraint


@dataclass(frozen=True)
class EquivalenceClasses:
    """Partition of rows by constraint-membership pattern.

    Attributes
    ----------
    n_rows:
        Total number of data rows.
    class_of_row:
        Array of length n mapping each row to its class index.
    class_counts:
        Array of length C: number of rows in each class.
    members:
        For each constraint t, the array of class indices whose rows are all
        inside ``I_t`` (by construction a class is either fully inside or
        fully outside any constraint's row set).
    representative_rows:
        One row index per class (useful for whitening/sampling loops that
        need a concrete row of the class).
    """

    n_rows: int
    class_of_row: np.ndarray
    class_counts: np.ndarray
    members: tuple[np.ndarray, ...]
    representative_rows: np.ndarray

    @property
    def n_classes(self) -> int:
        """Number of distinct equivalence classes."""
        return int(self.class_counts.size)

    def count_in_constraint(self, t: int) -> int:
        """Number of rows involved in constraint ``t`` (i.e. ``|I_t|``)."""
        return int(np.sum(self.class_counts[self.members[t]]))

    @cached_property
    def scatter_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, offsets)`` grouping rows into contiguous class blocks.

        ``order`` sorts rows by class (stably); rows of class c occupy
        ``order[offsets[c]:offsets[c + 1]]``.  Computed once per partition
        (the partition is immutable) and reused by every grouped per-class
        kernel application — whitening and sampling call it on every
        view request.
        """
        order = np.argsort(self.class_of_row, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(self.class_counts)))
        return order, offsets


def build_equivalence_classes(
    n_rows: int, constraints: list[Constraint]
) -> EquivalenceClasses:
    """Group rows by which constraints involve them.

    The membership pattern of a row is the set of constraint indices whose
    row set contains it.  Rows sharing a pattern form one class.  The
    unconstrained rows (empty pattern) form a class of their own, which
    keeps the prior parameters ``(0, I)`` for the whole run.

    Fully vectorized: rows become columns of a ``(T, n)`` boolean
    membership mask, identical columns are collapsed with one
    ``np.unique`` call, and classes are renumbered by first row of
    occurrence — the exact numbering the original per-row Python loop
    produced, so fitted parameters and checkpoints stay index-compatible.
    """
    t_count = len(constraints)
    if t_count == 0 or n_rows == 0:
        # No constraints: every row shares the prior class (no rows at all
        # degenerates to zero classes, as the scan version produced).
        n_classes = 1 if n_rows > 0 else 0
        return EquivalenceClasses(
            n_rows=n_rows,
            class_of_row=np.zeros(n_rows, dtype=np.intp),
            class_counts=np.full(n_classes, n_rows, dtype=np.intp),
            members=tuple(
                np.arange(n_classes, dtype=np.intp) for _ in constraints
            ),
            representative_rows=np.zeros(n_classes, dtype=np.intp),
        )

    mask = np.zeros((t_count, n_rows), dtype=bool)
    for t, constraint in enumerate(constraints):
        mask[t, constraint.rows] = True

    # One signature per row: its mask column, bit-packed so each row
    # compares as a short byte string.  A 1-D void-dtype unique is an
    # order of magnitude faster than np.unique(..., axis=0) on the raw
    # boolean matrix (memcmp keys instead of the structured-sort path).
    packed = np.ascontiguousarray(np.packbits(mask, axis=0).T)
    signatures = packed.view(
        np.dtype((np.void, packed.shape[1]))
    ).ravel()
    _, first_row, inverse = np.unique(
        signatures, return_index=True, return_inverse=True
    )
    # np.unique numbers the distinct signatures in sort order; remap to
    # first-occurrence order to reproduce the scan-order numbering of the
    # per-row loop this replaced (checkpoint/warm-start compatibility).
    order = np.argsort(first_row, kind="stable")
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size, dtype=np.intp)

    class_of_row = rank[inverse.reshape(-1)]
    n_classes = order.size
    class_counts = np.bincount(class_of_row, minlength=n_classes).astype(np.intp)
    representatives = first_row[order].astype(np.intp)

    # For each constraint, the classes fully contained in its row set
    # (ascending, as before): read each class's membership off its
    # representative row.
    rep_mask = mask[:, representatives]  # (T, C)
    members = tuple(
        np.flatnonzero(rep_mask[t]).astype(np.intp) for t in range(t_count)
    )

    return EquivalenceClasses(
        n_rows=n_rows,
        class_of_row=class_of_row,
        class_counts=class_counts,
        members=members,
        representative_rows=representatives,
    )
