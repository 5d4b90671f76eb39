"""Pre-vectorization reference implementations of the solver kernels.

These are the per-class / per-constraint Python loops the batched NumPy
kernels replaced, kept verbatim so that

* property tests can assert the vectorized kernels match them to
  ~machine precision across random shapes, singular covariances, and
  overlapping constraint sets, and
* the benchmark suites (``benchmarks/suites.py``) can measure the
  vectorized/loop speedup on the exact code that used to run in
  production (the numbers committed to ``benchmarks/baselines.json``
  and ``BENCH_core_solver.json``).

Nothing here is called by the production pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.constraint import Constraint, ConstraintKind
from repro.core.equivalence import EquivalenceClasses
from repro.core.parameters import ClassParameters
from repro.core.updates import _ASYMPTOTE_MARGIN, _DOMAIN_MARGIN
from repro.errors import RootFindError
from repro.linalg import (
    find_monotone_root,
    inverse_sqrt_psd,
    sqrt_psd,
    woodbury_rank1_inverse,
)


def reference_whitening_transforms(params: ClassParameters) -> np.ndarray:
    """Loop form of :func:`repro.core.whitening.whitening_transforms`."""
    c_count, d = params.n_classes, params.dim
    transforms = np.empty((c_count, d, d))
    for c in range(c_count):
        transforms[c] = inverse_sqrt_psd(params.sigma[c])
    return transforms


def reference_whiten(
    data: np.ndarray,
    params: ClassParameters,
    classes: EquivalenceClasses,
) -> np.ndarray:
    """Loop form of :func:`repro.core.whitening.whiten` (per-class
    ``flatnonzero`` gather, one matmul per class)."""
    data = np.asarray(data, dtype=np.float64)
    transforms = reference_whitening_transforms(params)
    out = np.empty_like(data)
    for c in range(params.n_classes):
        rows = np.flatnonzero(classes.class_of_row == c)
        if rows.size == 0:
            continue
        centred = data[rows] - params.mean[c]
        out[rows] = centred @ transforms[c].T
    return out


def reference_sample_background(
    params: ClassParameters,
    classes: EquivalenceClasses,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Loop form of :func:`repro.core.sampling.sample_background`.

    Draws the ``(n, d)`` noise block first, exactly like the vectorized
    version, so both produce identical output for the same seed.
    """
    rng = rng or np.random.default_rng()
    n, d = classes.n_rows, params.dim
    out = np.empty((n, d))
    noise = rng.standard_normal((n, d))
    for c in range(params.n_classes):
        rows = np.flatnonzero(classes.class_of_row == c)
        if rows.size == 0:
            continue
        root = sqrt_psd(params.sigma[c])
        out[rows] = params.mean[c] + noise[rows] @ root.T
    return out


def reference_projected_stats(
    params: ClassParameters, classes: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Loop-era einsum form of :meth:`ClassParameters.projected_stats`."""
    means = params.mean[classes] @ w
    variances = np.einsum(
        "ci,cij,cj->c",
        np.broadcast_to(w, (classes.size, w.size)),
        params.sigma[classes],
        np.broadcast_to(w, (classes.size, w.size)),
    )
    return means, np.maximum(variances, 0.0)


def reference_apply_quadratic_update(
    params: ClassParameters,
    classes: np.ndarray,
    w: np.ndarray,
    lam: float,
    delta: float,
) -> None:
    """Per-class Woodbury loop form of
    :meth:`ClassParameters.apply_quadratic_update` (mutates ``params``)."""
    params.theta1[classes] += (lam * delta) * w
    for c in classes:
        params.sigma[c] = woodbury_rank1_inverse(params.sigma[c], w, lam)
    params.mean[classes] = np.einsum(
        "cij,cj->ci", params.sigma[classes], params.theta1[classes]
    )
    params.bump_versions(classes)


def reference_init_targets(
    data: np.ndarray, constraints: list[Constraint]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-constraint INIT loop: T separate O(n·d) passes over the data.

    Returns ``(targets, anchor_projs)`` exactly as the solver's INIT
    phase used to compute them — ``constraint.observed_value`` plus the
    full ``anchor_mean`` vector projected onto ``w``.
    """
    targets = np.array([c.observed_value(data) for c in constraints])
    anchors = [
        c.anchor_mean(data) if c.kind is ConstraintKind.QUADRATIC else None
        for c in constraints
    ]
    anchor_projs = np.array(
        [
            float(anchors[t] @ constraints[t].w) if anchors[t] is not None else 0.0
            for t in range(len(constraints))
        ]
    )
    if not constraints:
        targets = targets.reshape(0)
        anchor_projs = anchor_projs.reshape(0)
    return targets, anchor_projs


def reference_linear_step(
    constraint: Constraint,
    target: float,
    params: ClassParameters,
    classes: EquivalenceClasses,
    t: int,
) -> float:
    """Loop-era linear coordinate step (reference stats, no cache)."""
    affected = classes.members[t]
    counts = classes.class_counts[affected].astype(np.float64)
    w = constraint.w
    means, variances = reference_projected_stats(params, affected, w)
    current = float(np.dot(counts, means))
    denom = float(np.dot(counts, variances))
    if denom <= 0.0:
        return 0.0
    lam = (target - current) / denom
    if lam != 0.0:
        params.theta1[affected] += lam * w
        params.mean[affected] = np.einsum(
            "cij,cj->ci", params.sigma[affected], params.theta1[affected]
        )
        params.bump_versions(affected)
    return lam


def reference_quadratic_step(
    constraint: Constraint,
    target: float,
    anchor_projection: float,
    params: ClassParameters,
    classes: EquivalenceClasses,
    t: int,
) -> float:
    """Loop-era quadratic coordinate step (per-class Woodbury updates)."""
    affected = classes.members[t]
    counts = classes.class_counts[affected].astype(np.float64)
    w = constraint.w
    means, variances = reference_projected_stats(params, affected, w)
    offsets_sq = (means - anchor_projection) ** 2

    s_max = float(np.max(variances))
    if s_max <= 0.0:
        return 0.0

    def expectation(lam: float) -> float:
        denom = 1.0 + lam * variances
        return float(np.dot(counts, variances / denom + offsets_sq / denom**2))

    zero_var = variances <= 0.0
    asymptote = float(np.dot(counts[zero_var], offsets_sq[zero_var]))
    if target <= asymptote + _ASYMPTOTE_MARGIN * max(asymptote, 1.0):
        lam = 1.0 / s_max
        reference_apply_quadratic_update(
            params, affected, w, lam, anchor_projection
        )
        return lam

    lower = -1.0 / s_max
    lower = lower * (1.0 - _DOMAIN_MARGIN) + _DOMAIN_MARGIN * 0.0
    if expectation(0.0) == target:
        return 0.0

    def phi(lam: float) -> float:
        return expectation(lam) - target

    try:
        lam = find_monotone_root(
            phi,
            lower=lower,
            upper=math.inf,
            start=0.0,
            initial_step=max(1.0 / s_max, 1e-6),
        )
    except RootFindError:
        return 0.0
    if lam != 0.0:
        reference_apply_quadratic_update(
            params, affected, w, lam, anchor_projection
        )
    return lam


def reference_optim_sweeps(
    data: np.ndarray,
    constraints: list[Constraint],
    classes: EquivalenceClasses,
    n_sweeps: int,
    targets: np.ndarray | None = None,
    anchor_projs: np.ndarray | None = None,
) -> ClassParameters:
    """The pre-vectorization OPTIM loop, run for exactly ``n_sweeps``.

    Replicates the old sweep structure byte for byte: fresh prior
    parameters, two diagonal extractions per sweep for the drift
    bookkeeping, loop steps with no stats caching.  Targets can be passed
    in precomputed so the bench times pure OPTIM (as the solver's
    ``optim_seconds`` does on the vectorized side).  The ``core_solver``
    benchmark suite times this against
    :func:`repro.core.solver.solve_maxent` driven for the same sweep
    count.
    """
    data = np.asarray(data, dtype=np.float64)
    params = ClassParameters.prior(classes.n_classes, data.shape[1])
    if targets is None or anchor_projs is None:
        targets, anchor_projs = reference_init_targets(data, constraints)
    for _ in range(n_sweeps):
        prev_means = params.mean.copy()
        prev_sigma_diag = np.sqrt(
            np.maximum(np.einsum("cii->ci", params.sigma), 0.0)
        )
        for t, constraint in enumerate(constraints):
            if constraint.kind is ConstraintKind.LINEAR:
                reference_linear_step(constraint, targets[t], params, classes, t)
            else:
                reference_quadratic_step(
                    constraint, targets[t], anchor_projs[t], params, classes, t
                )
        sigma_diag = np.sqrt(np.maximum(np.einsum("cii->ci", params.sigma), 0.0))
        # Drift values are computed (as the old loop did every sweep) but
        # never trigger an exit: the bench wants a fixed amount of work.
        float(np.max(np.abs(params.mean - prev_means), initial=0.0))
        float(np.max(np.abs(sigma_diag - prev_sigma_diag), initial=0.0))
    return params


def reference_build_equivalence_classes(
    n_rows: int, constraints: list[Constraint]
) -> EquivalenceClasses:
    """Pure-Python row-signature loop form of
    :func:`repro.core.equivalence.build_equivalence_classes`."""
    touching: list[list[int]] = [[] for _ in range(n_rows)]
    for t, constraint in enumerate(constraints):
        for row in constraint.rows:
            touching[int(row)].append(t)

    class_index_by_key: dict[tuple[int, ...], int] = {}
    class_of_row = np.empty(n_rows, dtype=np.intp)
    representatives: list[int] = []
    for row in range(n_rows):
        key = tuple(touching[row])
        idx = class_index_by_key.get(key)
        if idx is None:
            idx = len(class_index_by_key)
            class_index_by_key[key] = idx
            representatives.append(row)
        class_of_row[row] = idx

    n_classes = len(class_index_by_key)
    class_counts = np.bincount(class_of_row, minlength=n_classes).astype(np.intp)

    members_sets: list[set[int]] = [set() for _ in constraints]
    for key, idx in class_index_by_key.items():
        for t in key:
            members_sets[t].add(idx)
    members = tuple(np.array(sorted(s), dtype=np.intp) for s in members_sets)

    return EquivalenceClasses(
        n_rows=n_rows,
        class_of_row=class_of_row,
        class_counts=class_counts,
        members=members,
        representative_rows=np.array(representatives, dtype=np.intp),
    )
