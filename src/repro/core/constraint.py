"""Constraint primitives for the MaxEnt background distribution.

A constraint (Sec. II-A of the paper) is a triplet ``(kind, rows, w)``:

* ``kind`` — linear or quadratic,
* ``rows`` — the subset ``I ⊆ [n]`` of data rows it involves,
* ``w``    — a projection vector in R^d.

The linear constraint function is ``f_lin(X, I, w) = Σ_{i∈I} wᵀ x_i`` and the
quadratic one is ``f_quad(X, I, w) = Σ_{i∈I} (wᵀ(x_i − m̂_I))²`` where
``m̂_I`` is the *observed* mean of the rows in ``I`` (Eqs. 2–4).  The MaxEnt
problem (Prob. 1) finds the distribution closest to the spherical Gaussian
prior that preserves the observed values of all constraint functions in
expectation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConstraintError


class ConstraintKind(enum.Enum):
    """Whether a constraint fixes a first or a second moment."""

    LINEAR = "lin"
    QUADRATIC = "quad"


@dataclass(frozen=True)
class Constraint:
    """One linear or quadratic MaxEnt constraint.

    Attributes
    ----------
    kind:
        :class:`ConstraintKind` — linear (first moment along ``w``) or
        quadratic (second central moment along ``w``).
    rows:
        Sorted array of row indices ``I`` the constraint involves.
    w:
        Projection vector (length d).  Not required to be unit norm, but the
        builders in :mod:`repro.core.builders` always produce unit vectors.
    label:
        Optional human-readable provenance, e.g. ``"cluster[2]/svd[0]"``.
    """

    kind: ConstraintKind
    rows: np.ndarray
    w: np.ndarray
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # A private copy, so the caller's array can change without changing
        # the constraint.  Builders pass sorted rows; one O(k) check then
        # validates them and only unsorted input pays for a sort.
        rows = np.array(self.rows, dtype=np.intp)
        if rows.ndim != 1 or rows.size == 0:
            raise ConstraintError("constraint row set must be a non-empty 1-D array")
        if not np.all(rows[1:] > rows[:-1]):
            rows.sort()
            if np.any(rows[1:] == rows[:-1]):
                raise ConstraintError("constraint row set contains duplicate indices")
        if rows[0] < 0:
            raise ConstraintError("constraint row indices must be non-negative")
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ConstraintError("constraint vector w must be a non-empty 1-D array")
        if not np.all(np.isfinite(w)):
            raise ConstraintError("constraint vector w contains non-finite values")
        if float(np.linalg.norm(w)) == 0.0:
            raise ConstraintError("constraint vector w must be non-zero")
        # dataclass(frozen=True) blocks normal assignment; store the
        # normalised copies via object.__setattr__ (standard frozen idiom).
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        """Dimensionality of the space the constraint vector lives in."""
        return int(self.w.size)

    @property
    def n_rows(self) -> int:
        """Number of data rows the constraint involves."""
        return int(self.rows.size)

    def observed_value(self, data: np.ndarray) -> float:
        """Evaluate the constraint function on observed data (``v̂_t``).

        Parameters
        ----------
        data:
            The full data matrix (n x d); rows outside ``self.rows`` are
            ignored.
        """
        sub = data[self.rows]
        proj = sub @ self.w
        if self.kind is ConstraintKind.LINEAR:
            return float(np.sum(proj))
        centre = float(np.mean(proj))
        return float(np.sum((proj - centre) ** 2))

    def anchor_mean(self, data: np.ndarray) -> np.ndarray:
        """The observed row-mean ``m̂_I`` used to centre quadratic terms.

        Defined by Eq. 4.  It is a *constant* computed from the observed
        data, not a random variable — making it random would couple rows and
        break the row-factorised form of the background distribution.
        """
        return np.mean(data[self.rows], axis=0)

    def describe(self) -> str:
        """One-line description for logs and UI panels."""
        head = self.label or f"{self.kind.value} constraint"
        return f"{head}: |I|={self.n_rows}, d={self.dim}"


def integer_rows(rows, error: type[Exception] = ConstraintError) -> np.ndarray:
    """``rows`` as a 1-D ``intp`` array of integer row indices.

    Casting would move a float, a numeric string or a boolean onto a row
    the caller never named, and wrap an index past ``intp``; those raise
    ``error`` instead.  The check runs in NumPy: the rows become one array
    whose dtype must be integral, and only its 0 and 1 entries are looked
    at one by one, because ``np.asarray([2, True])`` is an int64 array.
    An empty selection passes; bounds are the caller's to check.
    """
    arr = np.asarray(rows)
    # An integer past intp makes an object or a uint64 array.
    if arr.ndim != 1 or (
        arr.size
        and (arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.intp))
    ):
        raise error(
            "rows must be a 1-D sequence of integer row indices within "
            f"intp, got {arr.dtype} of shape {arr.shape}"
            + ("; pass np.flatnonzero(mask)" if arr.dtype == np.bool_ else "")
        )
    for i in np.flatnonzero((arr == 0) | (arr == 1)):
        if isinstance(rows[i], (bool, np.bool_)):
            raise error("rows must be integer row indices, not booleans")
    return arr.astype(np.intp, copy=False)
