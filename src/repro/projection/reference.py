"""Pre-vectorization reference implementations of the projection kernels.

These are the serial FastICA loops (and the naive log-cosh contrast) the
batched projection-pursuit kernels replaced, kept so that

* property tests can assert the batched kernels match them to 1e-10
  across random shapes, rank-deficient inputs, and zero-variance
  columns (the pyentropy estimator-parity discipline: every optimised
  estimator keeps its slow oracle), and
* the benchmark suites (``benchmarks/suites.py``) can measure the
  batched/serial speedup on the exact code that used to run in
  production (the numbers committed to ``benchmarks/baselines.json``
  and ``BENCH_projection.json``).

The serial loops apply the same stop tests as the batched kernel: the
alignment test, and the plateau test of :mod:`repro.projection.fastica`
(its constants are the contract, the arithmetic is restated here).
``plateau=False`` runs the alignment test alone, the rule production used
before the plateau test, so its views stay reproducible for comparison.

Nothing here is called by the production pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, DataShapeError
from repro.linalg import inverse_sqrt_psd
from repro.projection.fastica import (
    DIRECT_LOGCOSH_MAX_ROWS,
    GAUSSIAN_LOGCOSH_MEAN,
    GAUSSIAN_LOGCOSH_SD,
    PLATEAU_EVERY,
    PLATEAU_GAIN,
    PLATEAU_WINDOW,
    logcosh_contrast,
)
from repro.projection.registry import ICAObjective
from repro.projection.scores import ica_scores

#: Mirror of :data:`repro.projection.fastica._RANK_TOL` at preservation time.
_RANK_TOL = 1e-10


def reference_symmetric_decorrelation(w: np.ndarray) -> np.ndarray:
    """Loop-era ``(W W^T)^{-1/2} W`` — makes the rows of W orthonormal."""
    return inverse_sqrt_psd(w @ w.T) @ w


def reference_logcosh_mean(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Naive ``E[log cosh x]`` along ``axis`` — the loop-era contrast.

    ``np.log(np.cosh(x))`` overflows for ``|x| > ~710``; the production
    kernels use the stable ``|x| + log1p(exp(-2|x|)) - log 2`` form.
    Standardised projections never reach the overflow regime, which is
    why this was good enough before batching.
    """
    return np.mean(np.log(np.cosh(x)), axis=axis)


def _plateau_gain(n: int) -> float:
    """The contrast rise that keeps an ``n``-row run going."""
    return PLATEAU_GAIN * GAUSSIAN_LOGCOSH_SD / float(np.sqrt(n))


def _plateau_contrast(wz: np.ndarray) -> np.ndarray:
    """The contrast the plateau test reads: the naive form where safe."""
    n = wz.shape[0]
    if n > DIRECT_LOGCOSH_MAX_ROWS:
        return logcosh_contrast(wz, axis=0)
    return np.ones(n) @ np.log(np.cosh(wz)) / n - GAUSSIAN_LOGCOSH_MEAN


def _reference_symmetric_run(
    z: np.ndarray,
    w: np.ndarray,
    max_iterations: int,
    tolerance: float,
    plateau: bool,
) -> tuple[np.ndarray, int, bool]:
    """One serial symmetric run from the decorrelated start ``w``.

    One ``(k, k)`` unmixing matrix, one tanh/matmul pass per iteration,
    scalar decorrelation.  Every ``PLATEAU_EVERY`` iterations (when
    ``plateau``) the summed top-2 ``|contrast|`` of the current sources
    is compared with the best so far; ``PLATEAU_WINDOW`` iterations
    without a rise above the gain stop the run.
    """
    n = z.shape[0]
    gain = _plateau_gain(n)
    best, best_step = -np.inf, 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        wz = z @ w.T                                # (n, k) current sources
        check = plateau and iterations % PLATEAU_EVERY == 0
        if check:
            top = np.sort(np.abs(_plateau_contrast(wz)))[::-1][:2]
            strength = float(np.sum(top))
        g = np.tanh(wz)
        g_prime_mean = np.mean(1.0 - g**2, axis=0)  # (k,)
        w_new = (g.T @ z) / n - g_prime_mean[:, None] * w
        w_new = reference_symmetric_decorrelation(w_new)
        if not np.all(np.isfinite(w_new)):
            raise ConvergenceError("FastICA iteration produced non-finite values")
        # Alignment: directions stopped rotating (sign-invariant).
        alignment = np.abs(np.einsum("ij,ij->i", w_new, w))
        w = w_new
        done = bool(np.all(alignment > 1.0 - tolerance))
        if check:
            if strength > best + gain:
                best, best_step = strength, iterations
            if iterations - best_step >= PLATEAU_WINDOW:
                done = True
        if done:
            converged = True
            break
    return w, iterations, converged


def reference_symmetric_fastica(
    z: np.ndarray,
    k: int,
    max_iterations: int,
    tolerance: float,
    rng: np.random.Generator,
    plateau: bool = True,
) -> tuple[np.ndarray, int, bool]:
    """Serial parallel-update FastICA with symmetric decorrelation."""
    w = reference_symmetric_decorrelation(rng.standard_normal((k, k)))
    return _reference_symmetric_run(z, w, max_iterations, tolerance, plateau)


def reference_deflation_fastica(
    z: np.ndarray,
    k: int,
    max_iterations: int,
    tolerance: float,
    rng: np.random.Generator,
    plateau: bool = True,
) -> tuple[np.ndarray, int, bool]:
    """One-at-a-time fixed-point updates with Gram–Schmidt deflation.

    With ``plateau``, each component stops once its own ``|contrast|``
    has not risen by more than the gain for ``PLATEAU_WINDOW`` iterations.
    """
    n, dim = z.shape
    w = np.zeros((k, dim))
    total_iterations = 0
    all_converged = True
    gain = _plateau_gain(n)
    for c in range(k):
        wc = rng.standard_normal(dim)
        wc /= np.linalg.norm(wc)
        component_converged = False
        best, best_step = -np.inf, 0
        for step in range(1, max_iterations + 1):
            total_iterations += 1
            wz = z @ wc
            check = plateau and step % PLATEAU_EVERY == 0
            if check:
                strength = abs(float(_plateau_contrast(wz)))
            g = np.tanh(wz)
            w_new = (z.T @ g) / n - float(np.mean(1.0 - g**2)) * wc
            if c:
                # Project out the already-extracted components.
                w_new -= w[:c].T @ (w[:c] @ w_new)
            norm = float(np.linalg.norm(w_new))
            if not np.isfinite(norm):
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
                if step - best_step >= PLATEAU_WINDOW:
                    done = True
            if done:
                component_converged = True
                break
        all_converged = all_converged and component_converged
        w[c] = wc
    return w, total_iterations, all_converged


def _pca_whiten(
    arr: np.ndarray, n_components: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The loop-era PCA-whitening preamble of ``fit_fastica``, verbatim."""
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
    order = np.argsort(eigvals)[::-1][:k]
    basis = eigvecs[:, order]                       # (d, k)
    scale = 1.0 / np.sqrt(eigvals[order])           # (k,)
    z = centred @ basis * scale                     # (n, k) whitened
    return z, basis, scale, k


def _components_from_unmixing(
    w: np.ndarray, basis: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Map unmixing rows back to unit vectors in input coordinates."""
    components = (basis * scale) @ w.T              # (d, k)
    components = components.T                       # (k, d)
    norms = np.linalg.norm(components, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return components / norms


def reference_fit_fastica(
    data: np.ndarray,
    n_components: int | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-6,
    rng: np.random.Generator | None = None,
    algorithm: str = "symmetric",
    plateau: bool = True,
) -> tuple[np.ndarray, int, bool]:
    """The full pre-batching ``fit_fastica`` path.

    Returns ``(components, n_iterations, converged)`` — the fields of the
    production :class:`~repro.projection.fastica.ICAResult` — so parity
    tests and benchmarks run the identical preprocessing, iteration, and
    back-mapping the serial implementation shipped with.
    """
    if algorithm not in ("symmetric", "deflation"):
        raise ValueError(
            f"unknown algorithm {algorithm!r}; use 'symmetric' or 'deflation'"
        )
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise DataShapeError(
            f"FastICA needs a 2-D matrix with at least 2 rows, got {arr.shape}"
        )
    rng = rng or np.random.default_rng(0)
    z, basis, scale, k = _pca_whiten(arr, n_components)
    if algorithm == "symmetric":
        w, iterations, converged = reference_symmetric_fastica(
            z, k, max_iterations, tolerance, rng, plateau
        )
    else:
        w, iterations, converged = reference_deflation_fastica(
            z, k, max_iterations, tolerance, rng, plateau
        )
    return _components_from_unmixing(w, basis, scale), iterations, converged


def reference_multi_restart_symmetric(
    z: np.ndarray,
    inits: np.ndarray,
    max_iterations: int,
    tolerance: float,
    plateau: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Serial multi-restart symmetric FastICA: R independent loop runs.

    ``inits`` is the pre-drawn ``(R, k, k)`` stack of initial unmixing
    matrices (drawing them upfront is what lets the batched kernel
    consume the identical random numbers).  Returns the stacked results
    ``(w, iterations, converged, contrast)`` with shapes ``(R, k, k)``,
    ``(R,)``, ``(R,)``, ``(R,)``; the contrast is the summed
    ``|E[log cosh] - E[log cosh nu]|`` of each restart's final sources,
    evaluated with the same stable form the production kernel uses so
    that winner selection cannot diverge on ties.
    """
    restarts = inits.shape[0]
    w_all = np.empty_like(inits)
    iterations = np.zeros(restarts, dtype=np.intp)
    converged = np.zeros(restarts, dtype=bool)
    contrast = np.zeros(restarts)
    for r in range(restarts):
        w, iterations[r], converged[r] = _reference_symmetric_run(
            z,
            reference_symmetric_decorrelation(inits[r]),
            max_iterations,
            tolerance,
            plateau,
        )
        w_all[r] = w
        contrast[r] = float(np.sum(np.abs(logcosh_contrast(z @ w.T, axis=0))))
    return w_all, iterations, converged, contrast


def reference_ica_search(
    whitened: np.ndarray,
    rng: np.random.Generator,
    plateau: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Serial :meth:`repro.projection.registry.ICAObjective.find_directions`.

    Runs both variants from the same child generators, keeps the restart
    (of the default objective's count) with the strongest summed
    contrast, and returns the ``(components, scores)`` of the basis with
    the stronger top-2 ``|score|``.  With ``plateau=False`` this is the
    view the alignment test alone produced.
    """
    arr = np.asarray(whitened, dtype=np.float64)
    restarts = ICAObjective().restarts
    best: tuple[np.ndarray, np.ndarray] | None = None
    best_strength = -np.inf
    for algorithm in ("symmetric", "deflation"):
        child = np.random.default_rng(rng.integers(0, 2**63))
        if algorithm == "symmetric":
            z, basis, scale, k = _pca_whiten(arr, None)
            inits = child.standard_normal((restarts, k, k))
            w_all, _, _, contrast = reference_multi_restart_symmetric(
                z, inits, 500, 1e-6, plateau
            )
            w = w_all[int(np.argmax(contrast))]
            components = _components_from_unmixing(w, basis, scale)
        else:
            components, _, _ = reference_fit_fastica(
                arr, rng=child, algorithm="deflation", plateau=plateau
            )
        scores = ica_scores(arr, components)
        strength = float(np.sum(np.sort(np.abs(scores))[::-1][:2]))
        if strength > best_strength:
            best_strength = strength
            best = (components, scores)
    assert best is not None
    return best
