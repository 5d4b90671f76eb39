"""Natural and dual Gaussian parameters per equivalence class.

The background distribution factorises over rows (Eq. 8):

    p(X | theta) = prod_i N(x_i | m_i, Sigma_i)

with natural parameters ``theta_i = (Sigma_i^-1 m_i, Sigma_i^-1)`` and dual
parameters ``mu_i = (m_i, Sigma_i)``.  Rows in the same equivalence class
share parameters, so only one copy per class is stored.

Both representations are kept in sync at every step: the natural side is
where constraint updates are additive, while expectations (and hence the
lambda equations) are evaluated on the dual side.  Keeping both avoids any
O(d^3) inversion in the hot loop — dual updates go through the Woodbury
rank-1 identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import DataShapeError
from repro.linalg import symmetric_eig_batched, woodbury_rank1_inverse_batched


@dataclass
class ClassParameters:
    """Parameter store for all equivalence classes.

    Attributes
    ----------
    theta1:
        (C, d) array — natural location parameters ``Sigma^-1 m`` per class.
    sigma:
        (C, d, d) array — dual covariance matrices per class.
    mean:
        (C, d) array — dual means per class (always ``sigma @ theta1``).
    versions:
        (C,) int64 array — per-class update counter, bumped whenever a
        constraint step touches a class.  Lets the solver cache projected
        stats per constraint and recompute them only for classes modified
        since the constraint's last visit.

    Notes
    -----
    ``Sigma^-1`` itself (the natural precision) is never materialised: every
    quadratic update touches it only through the Woodbury identity applied to
    ``sigma``, and ``theta1`` is enough to recover the mean afterwards.
    """

    theta1: np.ndarray
    sigma: np.ndarray
    mean: np.ndarray
    versions: np.ndarray | None = None
    _kernel_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.versions is None:
            self.versions = np.zeros(self.theta1.shape[0], dtype=np.int64)

    @classmethod
    def prior(cls, n_classes: int, dim: int) -> "ClassParameters":
        """Spherical standard-normal prior ``(m, Sigma) = (0, I)`` (Eq. 1)."""
        if n_classes <= 0 or dim <= 0:
            raise DataShapeError(
                f"need positive n_classes and dim, got {n_classes}, {dim}"
            )
        theta1 = np.zeros((n_classes, dim))
        sigma = np.broadcast_to(np.eye(dim), (n_classes, dim, dim)).copy()
        mean = np.zeros((n_classes, dim))
        return cls(theta1=theta1, sigma=sigma, mean=mean)

    @property
    def n_classes(self) -> int:
        """Number of equivalence classes covered."""
        return int(self.theta1.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality d of the data space."""
        return int(self.theta1.shape[1])

    def apply_linear_update(
        self, classes: np.ndarray, w: np.ndarray, lam: float
    ) -> None:
        """Linear-constraint update: ``theta1 += lam * w`` for the classes.

        The covariance is untouched; means are refreshed from the natural
        side (``m = Sigma theta1``).
        """
        self.theta1[classes] += lam * w
        # einsum over the small class subset only.
        self.mean[classes] = np.einsum(
            "cij,cj->ci", self.sigma[classes], self.theta1[classes]
        )
        self.versions[classes] += 1

    def apply_quadratic_update(
        self, classes: np.ndarray, w: np.ndarray, lam: float, delta: float
    ) -> None:
        """Quadratic-constraint update with multiplier change ``lam``.

        Natural side:  ``Sigma^-1 += lam w w^T`` and ``theta1 += lam*delta*w``
        where ``delta = w^T m̂_I`` (the observed anchor mean projection).
        Dual side: one batched Woodbury rank-1 over the whole selected class
        stack (O(C d^2), no Python-level per-class loop), then
        ``m = Sigma theta1``.
        """
        self.theta1[classes] += (lam * delta) * w
        self.sigma[classes] = woodbury_rank1_inverse_batched(
            self.sigma[classes], w, lam
        )
        self.mean[classes] = np.einsum(
            "cij,cj->ci", self.sigma[classes], self.theta1[classes]
        )
        self.versions[classes] += 1

    def projected_stats(
        self, classes: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-class ``(w^T m, w^T Sigma w)`` for the given classes.

        These scalars fully determine the expectation of any linear or
        quadratic constraint function along ``w``.  The quadratic form is
        evaluated as ``(Sigma w) · w`` — two BLAS products instead of a
        three-operand einsum contraction.
        """
        means = self.mean[classes] @ w
        variances = (self.sigma[classes] @ w) @ w
        # Numerical floors: variance can dip epsilon-negative after many
        # rank-1 updates.
        return means, np.maximum(variances, 0.0)

    def bump_versions(self, classes: np.ndarray) -> None:
        """Mark the given classes as modified (invalidates cached stats).

        Call this after writing to ``sigma``/``mean``/``theta1`` directly
        (outside the ``apply_*`` methods) so version-keyed caches — the
        solver's projected-stats cache and :meth:`cached_kernel` — see the
        change.
        """
        self.versions[classes] += 1

    def cached_kernel(self, name: str, compute: Callable[[], np.ndarray]):
        """Per-parameter-state memo for derived kernels (whitening roots).

        The eigendecomposition (:meth:`sigma_eig`), whitening transforms
        and sampling roots are pure functions of the sigma stack; views
        and ghost-point requests recompute them many times between fits.
        The result of ``compute()`` is cached under ``name`` together
        with a snapshot of :attr:`versions` and reused until any class's
        counter moves (i.e. until the next constraint update).  Mutating
        the arrays directly without :meth:`bump_versions` bypasses the
        invalidation — the documented contract of all version-keyed
        caching here.
        """
        entry = self._kernel_cache.get(name)
        if entry is not None and np.array_equal(entry[0], self.versions):
            return entry[1]
        value = compute()
        self._kernel_cache[name] = (self.versions.copy(), value)
        return value

    def sigma_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Memoised :func:`~repro.linalg.symmetric_eig_batched` of ``sigma``.

        The one eigendecomposition of a parameter state: the whitening
        transforms, the sampling roots and the log-determinants behind
        :mod:`repro.eval.information` all read it, so each fitted state
        is decomposed once.  Returns ``(values, vectors)`` of shapes
        ``(C, d)`` and ``(C, d, d)``; treat both as read-only.
        """
        return self.cached_kernel(
            "symmetric_eig", lambda: symmetric_eig_batched(self.sigma)
        )

    def copy(self) -> "ClassParameters":
        """Deep copy (used by tests and by solver snapshots)."""
        return ClassParameters(
            theta1=self.theta1.copy(),
            sigma=self.sigma.copy(),
            mean=self.mean.copy(),
            versions=self.versions.copy(),
        )

    def is_finite(self) -> bool:
        """True if every stored parameter is finite."""
        return bool(
            np.all(np.isfinite(self.theta1))
            and np.all(np.isfinite(self.sigma))
            and np.all(np.isfinite(self.mean))
        )
