"""FastICA with the log-cosh contrast, implemented from scratch.

The paper uses FastICA (Hyvärinen 1999) with the log-cosh G function as the
default method to find non-Gaussian directions in the whitened data
(Sec. II-C).  This is a complete NumPy implementation of the symmetric
fixed-point algorithm:

1. centre the input and whiten it by PCA (standard FastICA preprocessing —
   note this is the *algorithm's own* whitening, independent of the
   background-model whitening that produced its input);
2. iterate the fixed-point update ``W <- E[g(WZ) Z^T] - diag(E[g'(WZ)]) W``
   with ``g = tanh`` (the derivative of log cosh);
3. symmetrically decorrelate ``W <- (W W^T)^{-1/2} W`` after every step.

Components are returned as unit vectors in the *input* coordinate space so
they can be used directly as projection axes.

**Stopping.**  A run stops on the first of three tests:

* *alignment* — every direction stopped rotating,
  ``|<w_new, w_old>| > 1 - tolerance``;
* *plateau* — the view it would produce stopped improving.  Every
  :data:`PLATEAU_EVERY` iterations the run measures its summed top-2
  ``|log-cosh contrast|`` (deflation: the current component's
  ``|contrast|``) from the projection the step forms anyway; once that
  has not risen by more than ``PLATEAU_GAIN * GAUSSIAN_LOGCOSH_SD /
  sqrt(n)`` over the last :data:`PLATEAU_WINDOW` iterations the run
  stops.  ``GAUSSIAN_LOGCOSH_SD / sqrt(n)`` is the sampling SD of the
  contrast of a gaussian direction, so a rise below that fraction of it
  cannot change which view is shown;
* the iteration *cap*.

The plateau test exists because the alignment test alone rarely fires on
background-whitened data: directions with no structure left have no fixed
point and keep rotating, and symmetric decorrelation carries that rotation
into the structured directions, so runs used to iterate to the cap chasing
noise.  :attr:`ICAResult.converged` is true when either of the first two
tests stopped the run, false when it hit the cap.

The symmetric variant is **batched**: ``n_restarts`` random initialisations
iterate as one stacked ``(R, k, k)`` tensor — one broadcast tanh/GEMM pass
and one batched-``eigh`` symmetric decorrelation per step instead of R
serial runs — and the restart with the strongest summed log-cosh contrast
wins.  Each restart's trajectory is arithmetically identical to the serial
loop preserved in :mod:`repro.projection.reference`, which the property
tests pin to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.errors import ConvergenceError, DataShapeError
from repro.linalg import inverse_sqrt_psd, inverse_sqrt_psd_batched

#: Eigenvalue threshold below which PCA-whitening drops a direction as
#: numerically degenerate (relative to the largest eigenvalue).
_RANK_TOL = 1e-10

_LOG2 = float(np.log(2.0))

#: Plateau stop: measure the contrast every ``PLATEAU_EVERY`` iterations,
#: and stop once it has not risen by more than ``PLATEAU_GAIN`` sampling
#: SDs over the last ``PLATEAU_WINDOW`` iterations.  Measuring on every
#: iteration adds a log-cosh pass per step, which made converging runs at
#: n = 20,000 slower; a shorter window or a larger gain cut views short on
#: the 100-d ``bnc`` data.
PLATEAU_EVERY = 5
PLATEAU_WINDOW = 20
PLATEAU_GAIN = 0.02

#: Up to this many rows the plateau test evaluates ``log(cosh(s))``
#: directly.  A source of unit sample variance has ``|s| <= sqrt(n - 1)``,
#: below cosh's overflow point (~710.5) for these n, and the direct form
#: costs about half the stable :func:`logcosh` (no abs/exp/log1p passes).
DIRECT_LOGCOSH_MAX_ROWS = 500_000

#: ``E[log cosh nu]`` for ``nu ~ N(0,1)`` ≈ 0.3746 — the gaussian reference
#: level of the log-cosh contrast and the ICA score.  Equal to adaptive
#: quadrature over [-12, 12] to the last bit (pinned by a test).
GAUSSIAN_LOGCOSH_MEAN = 0.374567207491438

#: ``SD[log cosh nu]`` for ``nu ~ N(0,1)``: the log-cosh contrast of a
#: gaussian direction estimated from n rows has sampling SD
#: ``GAUSSIAN_LOGCOSH_SD / sqrt(n)`` (0.0138 at n = 1,000).
GAUSSIAN_LOGCOSH_SD = 0.4356230585866242


def logcosh(x: np.ndarray) -> np.ndarray:
    """Elementwise ``log cosh x`` in the overflow-safe form.

    ``log cosh x = |x| + log1p(exp(-2|x|)) - log 2`` never exponentiates a
    positive argument, so it is exact for ``|x|`` far beyond the ~710
    cutoff where ``np.log(np.cosh(x))`` returns ``inf``.
    """
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2


def logcosh_contrast(wz: np.ndarray, axis: int = 0) -> np.ndarray:
    """``E[log cosh] - E[log cosh nu]`` along ``axis``, ``nu ~ N(0,1)``.

    The FastICA negentropy proxy: zero for gaussian projections, negative
    for super-gaussian ones, positive for sub-gaussian ones.  Multi-restart
    selection maximises the summed ``|contrast|`` across components.
    """
    return np.mean(logcosh(wz), axis=axis) - GAUSSIAN_LOGCOSH_MEAN


def _top2_strength(contrast: np.ndarray) -> np.ndarray:
    """Summed top-2 ``|contrast|`` along the last axis: what a view shows."""
    return np.sort(np.abs(contrast), axis=-1)[..., -2:].sum(axis=-1)


def _plateau_contrast(
    wz: np.ndarray, out: np.ndarray, ones: np.ndarray
) -> np.ndarray:
    """Log-cosh contrast of the columns of ``wz`` for the plateau test.

    ``ones @ log(cosh(wz)) / n``, the column means as one BLAS product
    (3-5x faster than ``np.add.reduce`` along rows), with ``out`` as
    scratch, since at large n fresh temporaries cost more than the math.
    """
    n = wz.shape[0]
    if n > DIRECT_LOGCOSH_MAX_ROWS:
        return logcosh_contrast(wz, axis=0)
    np.cosh(wz, out=out)
    np.log(out, out=out)
    return ones @ out / n - GAUSSIAN_LOGCOSH_MEAN


def _plateau_gain(n: int) -> float:
    """The rise, in contrast units, that keeps an ``n``-row run going."""
    return PLATEAU_GAIN * GAUSSIAN_LOGCOSH_SD / float(np.sqrt(n))


# A note on "fusing" the contrast and derivative passes: tanh and the
# stable log cosh share the factor ``e = exp(-2|x|)`` (``tanh x =
# sign(x) (1-e)/(1+e)``, ``log cosh x = |x| + log1p(e) - log 2``), so a
# kernel computing both from one exponential looks attractive.  Measured,
# it loses: in NumPy every elementwise op is its own memory traversal, so
# the sign/divide/log1p temporaries cost more than the second libm call
# they replace (~0.65x vs separate ``np.tanh`` + ``logcosh`` passes at
# bench sizes).  The hot paths therefore evaluate exactly the half they
# need — the iteration uses ``tanh``, the plateau test (every
# PLATEAU_EVERY steps) and restart selection use log cosh — each in a
# single pass over the projected sources.


@dataclass(frozen=True)
class ICAResult:
    """Outcome of a FastICA run.

    Attributes
    ----------
    components:
        (k, d) array of unit vectors in input coordinates; rows are
        independent-component directions (unordered — rank them with
        :func:`repro.projection.scores.ica_scores`).
    n_iterations:
        Fixed-point iterations performed (by the winning restart in
        multi-restart mode; summed over components in deflation mode).
    converged:
        Whether the alignment test or the plateau test (see the module
        docstring) stopped the run — for deflation, every component's
        run — before the iteration cap did.  Meeting a test on the final
        permitted iteration counts: a run whose last update at exactly
        ``max_iterations`` satisfies the alignment test reports
        ``converged=True``.
    n_restarts:
        How many random initialisations were searched.
    best_restart:
        Index of the winning initialisation (0 when ``n_restarts == 1``).
    contrast:
        Summed ``|log-cosh contrast|`` of the winning restart's sources
        (``None`` for the deflation variant, which has no restart search).
    """

    components: np.ndarray
    n_iterations: int
    converged: bool
    n_restarts: int = 1
    best_restart: int = 0
    contrast: float | None = None


def fit_fastica(
    data: np.ndarray,
    n_components: int | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-6,
    rng: np.random.Generator | None = None,
    algorithm: str = "symmetric",
    n_restarts: int = 1,
    seed: int | None = None,
) -> ICAResult:
    """Run FastICA with the log-cosh contrast.

    Parameters
    ----------
    data:
        Input matrix (n x d), e.g. the background-whitened data.
    n_components:
        Number of components to extract; defaults to the numerical rank of
        the data (at most d).
    max_iterations:
        Cap on fixed-point iterations (per component in deflation mode).
    tolerance:
        Alignment test: stop when every updated direction satisfies
        ``|<w_new, w_old>| > 1 - tolerance``.  The plateau test (module
        docstring) applies whatever the tolerance, so ``tolerance=0``
        leaves a run that only the plateau or the cap can stop.
    rng:
        Source of randomness for the initial unmixing matrix.  Pass a seeded
        generator for reproducible components.
    algorithm:
        ``"symmetric"`` — update all components jointly with symmetric
        decorrelation (Hyvärinen's parallel variant); ``"deflation"`` —
        extract components one at a time with Gram–Schmidt deflation.
        Deflation greedily locks onto the strongest non-Gaussian direction
        first, which matters when the data is a cluster mixture rather than
        a true linear ICA model: the symmetric variant can settle on a
        jointly-orthogonal compromise that splits a strong discriminating
        direction across components.
    n_restarts:
        Symmetric mode only: run this many random initialisations as one
        stacked tensor iteration and return the one with the strongest
        summed \\|log-cosh contrast\\|.  The fixed point the symmetric
        update reaches depends on where it starts; restarts turn that
        into a feature instead of seed-luck.
    seed:
        Convenience alternative to ``rng``: ``fit_fastica(x, seed=7)`` is
        ``fit_fastica(x, rng=np.random.default_rng(7))``.  Mutually
        exclusive with ``rng``.

    Returns
    -------
    ICAResult

    Raises
    ------
    DataShapeError
        On malformed input.
    ConvergenceError
        If the iteration produces non-finite values (signals degenerate
        input, e.g. all-constant data).
    """
    if algorithm not in ("symmetric", "deflation"):
        raise ValueError(
            f"unknown algorithm {algorithm!r}; use 'symmetric' or 'deflation'"
        )
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    if algorithm == "deflation" and n_restarts != 1:
        raise ValueError(
            "multi-restart search is a symmetric-mode feature; "
            "deflation extracts components greedily and takes no restarts"
        )
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise DataShapeError(
            f"FastICA needs a 2-D matrix with at least 2 rows, got {arr.shape}"
        )
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)

    with perf.timer("fastica"):
        # --- PCA whitening (the algorithm's own preprocessing) -----------
        with perf.timer("pca_whiten"):
            z, basis, scale, k = _pca_whiten(arr, n_components)

        # --- Fixed-point iteration ---------------------------------------
        best_restart = 0
        contrast: float | None = None
        if algorithm == "symmetric":
            inits = rng.standard_normal((n_restarts, k, k))
            with perf.timer("iterate"):
                w_all, its, conv = _symmetric_fastica_batched(
                    z, inits, max_iterations, tolerance
                )
            capped = n_restarts - int(np.count_nonzero(conv))
            with perf.timer("select"):
                # One flattened GEMM + one stable log-cosh traversal
                # scores every restart's final sources at once.
                wz_all = z @ w_all.reshape(n_restarts * k, k).T
                strengths = np.sum(
                    np.abs(
                        logcosh_contrast(wz_all, axis=0).reshape(
                            n_restarts, k
                        )
                    ),
                    axis=1,
                )
            best_restart = int(np.argmax(strengths))
            w = w_all[best_restart]
            iterations = int(its[best_restart])
            converged = bool(conv[best_restart])
            contrast = float(strengths[best_restart])
            perf.add("projection.fastica_iterations", int(its.sum()))
        else:
            with perf.timer("iterate"):
                w, iterations, converged = _deflation_fastica(
                    z, k, max_iterations, tolerance, rng
                )
            capped = int(not converged)
            perf.add("projection.fastica_iterations", iterations)
        perf.add("projection.fastica_runs")
        perf.add("projection.fastica_restarts", n_restarts)
        # Restarts (symmetric) or runs (deflation) that neither the
        # alignment nor the plateau test stopped before the cap.
        perf.add("projection.fastica_capped", capped)

        # --- Map unmixing rows back to input coordinates -----------------
        components = _components_from_unmixing(w, basis, scale)
    return ICAResult(
        components=components,
        n_iterations=iterations,
        converged=converged,
        n_restarts=n_restarts,
        best_restart=best_restart,
        contrast=contrast,
    )


def _pca_whiten(
    arr: np.ndarray, n_components: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Centre + PCA-whiten, dropping numerically degenerate directions.

    Returns ``(z, basis, scale, k)``: the (n, k) whitened matrix, the
    (d, k) top-variance eigenbasis, the per-direction scalings, and the
    retained dimensionality.
    """
    n = arr.shape[0]
    mean = arr.mean(axis=0)
    centred = arr - mean
    cov = (centred.T @ centred) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    top = float(eigvals[-1]) if eigvals.size else 0.0
    if top <= 0.0:
        raise ConvergenceError("FastICA input has zero variance")
    keep = eigvals > _RANK_TOL * top
    eigvals = eigvals[keep]
    eigvecs = eigvecs[:, keep]
    rank = int(eigvals.size)
    k = rank if n_components is None else min(n_components, rank)
    # Use the top-k variance directions for the whitening basis.
    order = np.argsort(eigvals)[::-1][:k]
    basis = eigvecs[:, order]                       # (d, k)
    scale = 1.0 / np.sqrt(eigvals[order])           # (k,)
    z = centred @ basis * scale                     # (n, k) whitened
    return z, basis, scale, k


def _components_from_unmixing(
    w: np.ndarray, basis: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Unmixing rows -> unit direction vectors in input coordinates.

    Source ``s_j = w_j^T z = w_j^T diag(scale) basis^T (x - mean)``, so the
    direction in input space is ``basis @ (scale * w_j)``.
    """
    components = (basis * scale) @ w.T              # (d, k)
    components = components.T                       # (k, d)
    norms = np.linalg.norm(components, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return components / norms


def _symmetric_fastica_batched(
    z: np.ndarray,
    inits: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R parallel-update FastICA runs as one stacked tensor iteration.

    ``inits`` is the ``(R, k, k)`` stack of raw initial matrices.  Every
    step performs one broadcast ``tanh``/GEMM pass and one batched-eigh
    symmetric decorrelation over all still-active restarts; a restart
    that meets the alignment or the plateau test is frozen at its current
    unmixing matrix (exactly where the serial loop stops), so each slice
    reproduces the serial trajectory of
    :func:`repro.projection.reference.reference_multi_restart_symmetric`.

    Returns stacked ``(w, iterations, converged)`` of shapes
    ``(R, k, k)``, ``(R,)``, ``(R,)``.
    """
    n, k = z.shape[0], inits.shape[-1]
    restarts = inits.shape[0]
    w = _symmetric_decorrelation_batched(inits)
    iterations = np.zeros(restarts, dtype=np.intp)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    # Plateau test state, aligned with ``active``: each restart's best
    # top-2 strength so far and the step that last raised it by more
    # than the gain.
    gain = _plateau_gain(n)
    ones = np.ones(n)
    best = np.full(restarts, -np.inf)
    best_step = np.zeros(restarts, dtype=np.intp)
    # Reusable (n, Ra*k) work buffers, reallocated only when restarts
    # converge out of the stack.  Fresh per-iteration temporaries of this
    # size would leave the allocator's small-buffer cache and pay an
    # mmap + page-zeroing round trip every step — measurably slower than
    # the arithmetic they hold at interactive sizes.
    wz = sq = np.empty((0, 0))
    for step in range(1, max_iterations + 1):
        ra = active.size
        if wz.shape[1] != ra * k:
            wz = np.empty((n, ra * k))
            sq = np.empty((n, ra * k))
        w_act = w[active]                                   # (Ra, k, k)
        # All restarts share z, so their source projections are one big
        # GEMM against the row-stacked unmixing matrices — (n, k) @
        # (k, Ra*k) — instead of Ra strided gufunc matmuls (which copy
        # the non-contiguous slices and lose to plain dgemm at large n).
        w_flat = w_act.reshape(ra * k, k)
        np.matmul(z, w_flat.T, out=wz)                      # (n, Ra*k)
        # The plateau test reads the contrast of the sources this step
        # already formed, before tanh overwrites them (sq is free until
        # then); only every PLATEAU_EVERY steps, as a per-step log-cosh
        # pass would double the elementwise cost of the loop.
        check = step % PLATEAU_EVERY == 0
        if check:
            strength = _top2_strength(
                _plateau_contrast(wz, sq, ones).reshape(ra, k)
            )
        g = np.tanh(wz, out=wz)
        np.multiply(g, g, out=sq)
        np.subtract(1.0, sq, out=sq)
        # np.mean's exact arithmetic (sum, then divide by the count)
        # without its Python-level overhead, a few µs a step at small n.
        g_prime_mean = np.add.reduce(sq, axis=0) / n        # (Ra*k,)
        w_new = (g.T @ z) / n - g_prime_mean[:, None] * w_flat
        w_new = _symmetric_decorrelation_batched(w_new.reshape(ra, k, k))
        if not np.isfinite(w_new).all():
            raise ConvergenceError("FastICA iteration produced non-finite values")
        # Alignment test: directions stopped rotating (sign-invariant).
        alignment = np.abs(np.einsum("rij,rij->ri", w_new, w_act))
        w[active] = w_new
        iterations[active] = step
        done = (alignment > 1.0 - tolerance).all(axis=1)
        if check:
            rose = strength > best + gain
            best[rose] = strength[rose]
            best_step[rose] = step
            done |= step - best_step >= PLATEAU_WINDOW
        if done.any():
            converged[active[done]] = True
            keep = ~done
            active, best, best_step = active[keep], best[keep], best_step[keep]
            if active.size == 0:
                break
    return w, iterations, converged


def _deflation_fastica(
    z: np.ndarray,
    k: int,
    max_iterations: int,
    tolerance: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, bool]:
    """One-at-a-time fixed-point updates with Gram–Schmidt deflation.

    Each component stops on its own alignment or plateau test; the
    plateau test tracks that component's ``|contrast|``.
    """
    n, dim = z.shape
    w = np.zeros((k, dim))
    total_iterations = 0
    all_converged = True
    gain = _plateau_gain(n)
    scratch, ones = np.empty(n), np.ones(n)
    for c in range(k):
        wc = rng.standard_normal(dim)
        wc /= np.linalg.norm(wc)
        component_converged = False
        best, best_step = -np.inf, 0
        for step in range(1, max_iterations + 1):
            total_iterations += 1
            wz = z @ wc
            check = step % PLATEAU_EVERY == 0
            if check:
                strength = abs(float(_plateau_contrast(wz, scratch, ones)))
            g = np.tanh(wz)
            # float(np.mean(...)) with np.mean's overhead taken out.
            g_prime_mean = float(np.add.reduce(1.0 - g**2)) / n
            w_new = (z.T @ g) / n - g_prime_mean * wc
            if c:
                # Project out the already-extracted components.
                w_new -= w[:c].T @ (w[:c] @ w_new)
            # np.linalg.norm's arithmetic, sqrt(w.w), minus its overhead.
            norm = math.sqrt(float(w_new.dot(w_new)))
            if not math.isfinite(norm):
                raise ConvergenceError(
                    "FastICA iteration produced non-finite values"
                )
            if norm == 0.0:
                break
            w_new /= norm
            done = abs(float(w_new @ wc)) > 1.0 - tolerance
            wc = w_new
            if check:
                if strength > best + gain:
                    best, best_step = strength, step
                done = done or step - best_step >= PLATEAU_WINDOW
            if done:
                component_converged = True
                break
        all_converged = all_converged and component_converged
        w[c] = wc
    return w, total_iterations, all_converged


def _symmetric_decorrelation(w: np.ndarray) -> np.ndarray:
    """Return ``(W W^T)^{-1/2} W`` — makes the rows of W orthonormal."""
    return inverse_sqrt_psd(w @ w.T) @ w


def _symmetric_decorrelation_batched(w: np.ndarray) -> np.ndarray:
    """Batched ``(W W^T)^{-1/2} W`` over an ``(R, k, k)`` stack.

    One stacked-``eigh`` inverse root replaces R scalar decompositions;
    each slice matches :func:`_symmetric_decorrelation` on that slice to
    machine precision (same clamping, same operation order).
    """
    gram = np.matmul(w, np.swapaxes(w, -1, -2))
    return np.matmul(inverse_sqrt_psd_batched(gram), w)
