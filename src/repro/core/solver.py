"""Coordinate-ascent solver for the constrained MaxEnt problem (Prob. 1).

The solver sweeps over the constraints, solving each multiplier exactly in
turn (Gauss–Seidel style), until the paper's convergence criteria are met or
a wall-clock cut-off fires.  Convexity of the MaxEnt problem guarantees
eventual convergence to the global optimum; adversarial overlapping
constraints can make convergence slow (Fig. 5), which is exactly why the
cut-off exists in SIDER.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import perf
from repro.core.constraint import Constraint, ConstraintKind
from repro.core.equivalence import EquivalenceClasses, build_equivalence_classes
from repro.core.parameters import ClassParameters
from repro.core.updates import linear_step, quadratic_step
from repro.errors import ConvergenceError, DataShapeError
from repro.resilience.deadline import check_deadline


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the optimisation loop.

    Attributes
    ----------
    lambda_tolerance:
        Converged when the maximal absolute multiplier change in a full
        sweep is at most this (paper: 1e-2).
    drift_tolerance_factor:
        Alternative criterion: converged when the maximal change of any
        class mean, or of the square root of any projected variance, is at
        most this factor times the standard deviation of the full data
        (paper: 1e-2).
    time_cutoff:
        Wall-clock budget in seconds; the sweep loop stops once exceeded
        even if not converged (SIDER default ~10 s).  ``None`` disables the
        cut-off (used by the convergence experiment of Fig. 5).
    max_sweeps:
        Hard upper bound on full sweeps, as a safety net against infinite
        loops when the cut-off is disabled.
    """

    lambda_tolerance: float = 1e-2
    drift_tolerance_factor: float = 1e-2
    time_cutoff: float | None = 10.0
    max_sweeps: int = 10_000


@dataclass
class SolverReport:
    """Outcome and diagnostics of one :func:`solve_maxent` call.

    Attributes
    ----------
    converged:
        Whether a convergence criterion was met (as opposed to the time
        cut-off or sweep cap firing).
    sweeps:
        Number of full sweeps performed.
    steps:
        Number of individual constraint updates performed.
    elapsed:
        Total wall-clock seconds of the solve — always exactly
        ``init_seconds + optim_seconds``.
    max_lambda_change:
        Largest absolute multiplier change in the final sweep.
    init_seconds:
        The paper's INIT phase: evaluating the observed constraint values
        and anchor-mean projections on the data — the only part of the
        solve that touches the data, one O(n·d·T) batched matmul.
    optim_seconds:
        The paper's OPTIM phase: the sweep loop proper, including its
        convergence checks (which are part of the iteration, not overhead
        counted elsewhere).  Cost depends on equivalence classes and d
        but not on n.
    trace:
        Optional per-step history filled by the ``on_step`` callback
        mechanism; empty unless a callback stored something.
    """

    converged: bool
    sweeps: int
    steps: int
    elapsed: float
    max_lambda_change: float
    init_seconds: float = 0.0
    optim_seconds: float = 0.0
    trace: list[dict] = field(default_factory=list)


def solve_maxent(
    data: np.ndarray,
    constraints: list[Constraint],
    options: SolverOptions | None = None,
    params: ClassParameters | None = None,
    classes: EquivalenceClasses | None = None,
    on_step: Callable[[int, int, float, ClassParameters], None] | None = None,
) -> tuple[ClassParameters, EquivalenceClasses, SolverReport]:
    """Fit the MaxEnt background distribution to the given constraints.

    Parameters
    ----------
    data:
        Observed data matrix (n x d); used only to evaluate the observed
        constraint values ``v̂_t`` and anchor means ``m̂_I``.
    constraints:
        The active constraint set ``C``.
    options:
        Solver options; defaults to :class:`SolverOptions()`.
    params, classes:
        Optional warm start.  Both must come from a previous solve over a
        *prefix-compatible* constraint list; when the constraint set changed
        the equivalence classes are rebuilt and parameters restart from the
        prior (the multipliers of previous constraints are re-found in a few
        sweeps, which in practice is as fast as an incremental warm start
        and much simpler to reason about).
    on_step:
        Optional callback invoked after every constraint update with
        ``(sweep, constraint_index, lambda_change, params)``.  Used by the
        convergence experiment to record (Sigma_1)_11 per iteration.

    Returns
    -------
    (params, classes, report)

    Raises
    ------
    ConvergenceError
        If parameters become non-finite (indicates a genuine numerical
        breakdown rather than slow convergence).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataShapeError(f"expected 2-D data, got shape {data.shape}")
    n, d = data.shape
    for c in constraints:
        if c.dim != d:
            raise DataShapeError(
                f"constraint vector dimension {c.dim} does not match data d={d}"
            )
        if c.rows[-1] >= n:
            raise DataShapeError(
                f"constraint references row {int(c.rows[-1])} but data has n={n}"
            )
    options = options or SolverOptions()

    if classes is None or params is None:
        classes = build_equivalence_classes(n, constraints)
        params = ClassParameters.prior(classes.n_classes, d)

    if not constraints:
        report = SolverReport(
            converged=True, sweeps=0, steps=0, elapsed=0.0, max_lambda_change=0.0
        )
        return params, classes, report

    # INIT phase: observed targets and anchor projections for the whole
    # constraint set in one shot (the only part of the solve that reads the
    # data; the sweep loop below never touches it again).
    init_start = time.perf_counter()
    with perf.timer("solver_init"):
        targets, anchor_projs = init_targets(data, constraints)
    init_seconds = time.perf_counter() - init_start

    # Scale for the drift criterion: std of the full data (paper Sec. II-A.2).
    data_scale = float(np.std(data))
    if data_scale == 0.0:
        data_scale = 1.0
    drift_tol = options.drift_tolerance_factor * data_scale

    start = time.perf_counter()
    steps = 0
    sweeps = 0
    max_change = np.inf
    converged = False

    # Per-constraint projected-stats cache: entry t holds the last
    # ``(means, variances, versions)`` computed for constraint t.  A sweep
    # recomputes stats only for constraints whose affected classes were
    # touched (version counter bumped) since the constraint's last visit —
    # converged constraints over quiet classes cost one version compare.
    stats_cache: list[tuple | None] = [None] * len(constraints)
    stats_hits = 0

    # The sigma diagonal is reused between the drift check of one sweep and
    # the reference point of the next, halving the per-sweep diagonal work.
    sigma_diag = np.sqrt(np.maximum(np.einsum("cii->ci", params.sigma), 0.0))

    with perf.timer("solver_optim"):
        while sweeps < options.max_sweeps:
            # Ambient per-request deadline (repro.resilience): a solve
            # running under an expired budget aborts between sweeps
            # instead of burning a worker thread; one thread-local read
            # when no deadline is set.
            check_deadline()
            sweeps += 1
            max_change = 0.0
            prev_means = params.mean.copy()
            prev_sigma_diag = sigma_diag
            for t, constraint in enumerate(constraints):
                affected = classes.members[t]
                cached = stats_cache[t]
                hit = cached is not None and np.array_equal(
                    params.versions[affected], cached[2]
                )
                if hit:
                    stats = (cached[0], cached[1])
                    stats_hits += 1
                else:
                    stats = params.projected_stats(affected, constraint.w)
                if constraint.kind is ConstraintKind.LINEAR:
                    lam = linear_step(
                        constraint, targets[t], params, classes, t, stats=stats
                    )
                else:
                    lam = quadratic_step(
                        constraint,
                        targets[t],
                        anchor_projs[t],
                        params,
                        classes,
                        t,
                        stats=stats,
                    )
                if lam != 0.0:
                    stats_cache[t] = None
                elif not hit:
                    stats_cache[t] = (
                        stats[0],
                        stats[1],
                        params.versions[affected].copy(),
                    )
                steps += 1
                max_change = max(max_change, abs(lam))
                if on_step is not None:
                    on_step(sweeps, t, lam, params)
            if not params.is_finite():
                raise ConvergenceError("non-finite parameters during optimisation")

            if max_change <= options.lambda_tolerance:
                converged = True
                break
            mean_drift = float(np.max(np.abs(params.mean - prev_means), initial=0.0))
            sigma_diag = np.sqrt(
                np.maximum(np.einsum("cii->ci", params.sigma), 0.0)
            )
            sd_drift = float(
                np.max(np.abs(sigma_diag - prev_sigma_diag), initial=0.0)
            )
            if max(mean_drift, sd_drift) <= drift_tol:
                converged = True
                break
            if (
                options.time_cutoff is not None
                and time.perf_counter() - start > options.time_cutoff
            ):
                break

    optim_seconds = time.perf_counter() - start
    perf.add("solver.solves")
    perf.add("solver.sweeps", sweeps)
    perf.add("solver.steps", steps)
    perf.add("solver.stats_cache_hits", stats_hits)
    perf.add("solver.seconds", init_seconds + optim_seconds)
    report = SolverReport(
        converged=converged,
        sweeps=sweeps,
        steps=steps,
        elapsed=init_seconds + optim_seconds,
        max_lambda_change=float(max_change),
        init_seconds=init_seconds,
        optim_seconds=optim_seconds,
    )
    return params, classes, report


def init_targets(
    data: np.ndarray, constraints: list[Constraint]
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot INIT: observed values and anchor projections, batched.

    Stacks all constraint vectors into ``W`` of shape (T, d) and computes
    every projection with a single BLAS matmul ``P = data @ W^T``, then
    reduces each constraint's (sorted) row segment with
    ``np.add.reduceat`` — sums for linear constraints, centred sums of
    squares for quadratic ones.  Replaces T Python-level O(n·d) passes
    (``observed_value`` + ``anchor_mean`` per constraint) with one O(n·d·T)
    kernel call plus O(Σ|I_t|) segment arithmetic.

    Returns
    -------
    (targets, anchor_projs):
        ``targets[t]`` is ``v̂_t`` (the observed constraint value) and
        ``anchor_projs[t]`` is ``w_t^T m̂_{I_t}`` for quadratic
        constraints, 0.0 for linear ones.
    """
    t_count = len(constraints)
    if t_count == 0:
        return np.zeros(0), np.zeros(0)
    w_stack = np.stack([c.w for c in constraints])           # (T, d)
    projections = data @ w_stack.T                           # (n, T)

    sizes = np.array([c.n_rows for c in constraints], dtype=np.intp)
    seg_ids = np.repeat(np.arange(t_count, dtype=np.intp), sizes)
    rows_concat = np.concatenate([c.rows for c in constraints])
    vals = projections[rows_concat, seg_ids]

    offsets = np.zeros(t_count, dtype=np.intp)
    np.cumsum(sizes[:-1], out=offsets[1:])
    sums = np.add.reduceat(vals, offsets)
    centres = sums / sizes
    centred = vals - centres[seg_ids]
    sq_sums = np.add.reduceat(centred * centred, offsets)

    is_quadratic = np.array(
        [c.kind is ConstraintKind.QUADRATIC for c in constraints]
    )
    targets = np.where(is_quadratic, sq_sums, sums)
    anchor_projs = np.where(is_quadratic, centres, 0.0)
    return targets, anchor_projs
