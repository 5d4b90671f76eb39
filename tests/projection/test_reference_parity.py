"""Property tests: batched projection kernels vs the preserved loops.

Mirrors the solver-core discipline of tests/core/test_vectorized_kernels:
every batched projection kernel is pinned against the serial loop
preserved in :mod:`repro.projection.reference` to 1e-10, and the FastICA
invariants (orthonormal decorrelation, permutation equivariance) hold
under hypothesis-driven shapes — including rank-deficient and
zero-variance-column inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.equivalence import EquivalenceClasses
from repro.core.grouping import apply_by_class
from repro.projection.fastica import (
    _pca_whiten,
    _symmetric_decorrelation,
    _symmetric_decorrelation_batched,
    _symmetric_fastica_batched,
    fit_fastica,
    logcosh,
    logcosh_contrast,
)
from repro.projection.reference import (
    reference_fit_fastica,
    reference_logcosh_mean,
    reference_multi_restart_symmetric,
    reference_symmetric_decorrelation,
)

_TOL = 1e-10

_FAST = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _ica_case(n, d, seed, clusters, duplicate, constant=None):
    """The ``(data, seed)`` case :func:`ica_input` builds from its draws."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    if clusters:
        # Non-gaussian cluster structure (the interesting regime).
        data[: n // 2, 0] += 4.0
    if duplicate:
        # Rank deficiency: one column duplicates another.
        data[:, -1] = data[:, 0]
    if constant is not None:
        # A zero-variance column (dropped by the rank tolerance).
        column, value = constant
        data[:, column] = value
    if not np.any(np.var(data, axis=0) > 0.0):
        data[:, 0] += rng.standard_normal(n)  # keep the input non-degenerate
    return data, seed


@st.composite
def ica_input(draw):
    """Random data, optionally rank-deficient / with zero-variance columns."""
    n = draw(st.integers(min_value=30, max_value=300))
    d = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    clusters = draw(st.booleans())
    duplicate = d >= 2 and draw(st.booleans())
    constant = None
    if draw(st.booleans()):
        value = draw(st.floats(min_value=-3.0, max_value=3.0))
        constant = (draw(st.integers(min_value=0, max_value=d - 1)), value)
    return _ica_case(n, d, seed, clusters, duplicate, constant)


@st.composite
def unmixing_stack(draw):
    """A random (R, k, k) stack of initial unmixing matrices."""
    r = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return np.random.default_rng(seed).standard_normal((r, k, k))


class TestSymmetricDecorrelation:
    @given(unmixing_stack())
    @_FAST
    def test_batched_matches_scalar_loop(self, stack):
        got = _symmetric_decorrelation_batched(stack)
        want = np.stack(
            [reference_symmetric_decorrelation(w) for w in stack]
        )
        np.testing.assert_allclose(got, want, atol=_TOL)

    @given(unmixing_stack())
    @_FAST
    def test_rows_orthonormal_after_decorrelation(self, stack):
        """The FastICA invariant: ||W W^T - I|| < 1e-8 after decorrelation.

        Skips stacks containing (near-)singular matrices — decorrelating
        a rank-deficient W cannot produce a full orthonormal basis (the
        clamped inverse root regularises instead of failing).
        """
        conds = [np.linalg.cond(w @ w.T) for w in stack]
        if max(conds) > 1e6:
            return
        decorrelated = _symmetric_decorrelation_batched(stack)
        k = stack.shape[-1]
        for w in decorrelated:
            gram = w @ w.T
            assert np.linalg.norm(gram - np.eye(k)) < 1e-8

    def test_scalar_helper_matches_reference(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            _symmetric_decorrelation(w),
            reference_symmetric_decorrelation(w),
            atol=0,
        )


class TestLogcoshKernels:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.5, max_value=50.0),
    )
    @_FAST
    def test_stable_logcosh_matches_naive_in_safe_range(self, seed, spread):
        x = np.random.default_rng(seed).uniform(-spread, spread, (40, 3))
        np.testing.assert_allclose(
            logcosh(x), np.log(np.cosh(x)), atol=1e-12, rtol=1e-12
        )

    def test_stable_logcosh_survives_overflow_range(self):
        x = np.array([-800.0, -50.0, 0.0, 50.0, 800.0])
        got = logcosh(x)
        assert np.all(np.isfinite(got))
        # Asymptotically log cosh x -> |x| - log 2.
        np.testing.assert_allclose(got[[0, -1]], 800.0 - np.log(2.0))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @_FAST
    def test_contrast_matches_naive_reference(self, seed):
        from repro.projection.scores import GAUSSIAN_LOGCOSH_MEAN

        wz = np.random.default_rng(seed).standard_normal((60, 4)) * 3.0
        np.testing.assert_allclose(
            logcosh_contrast(wz, axis=0),
            reference_logcosh_mean(wz) - GAUSSIAN_LOGCOSH_MEAN,
            atol=1e-12,
        )


class TestFastICAParity:
    @given(ica_input(), st.sampled_from(["symmetric", "deflation"]))
    @_FAST
    def test_single_run_matches_reference(self, case, algorithm):
        data, seed = case
        got = fit_fastica(
            data,
            rng=np.random.default_rng(seed),
            max_iterations=150,
            algorithm=algorithm,
        )
        want_c, want_it, want_conv = reference_fit_fastica(
            data,
            rng=np.random.default_rng(seed),
            max_iterations=150,
            algorithm=algorithm,
        )
        np.testing.assert_allclose(got.components, want_c, atol=_TOL)
        assert got.n_iterations == want_it
        assert got.converged == want_conv

    @given(ica_input(), st.integers(min_value=2, max_value=5))
    @_FAST
    def test_multi_restart_matches_serial_restarts(self, case, restarts):
        data, seed = case
        z, _, _, k = _pca_whiten(np.asarray(data, dtype=np.float64), None)
        inits = np.random.default_rng(seed).standard_normal((restarts, k, k))
        got_w, got_it, got_conv = _symmetric_fastica_batched(
            z, inits, 150, 1e-6
        )
        want_w, want_it, want_conv, want_contrast = (
            reference_multi_restart_symmetric(z, inits, 150, 1e-6)
        )
        np.testing.assert_allclose(got_w, want_w, atol=_TOL)
        np.testing.assert_array_equal(got_it, want_it)
        np.testing.assert_array_equal(got_conv, want_conv)
        # The production entry point picks a winner the serial selection
        # would accept: its restart's contrast ties the serial maximum.
        # (Index equality is ill-posed — on rank-deficient inputs every
        # restart converges to the same component and the contrasts tie
        # at floating-point noise, so batched and serial argmax may
        # break the tie differently.)
        result = fit_fastica(
            data,
            rng=np.random.default_rng(seed),
            max_iterations=150,
            n_restarts=restarts,
        )
        assert float(want_contrast[result.best_restart]) == pytest.approx(
            float(want_contrast.max()), abs=_TOL
        )
        assert result.contrast == pytest.approx(
            float(want_contrast[result.best_restart]), abs=_TOL
        )

    @given(ica_input())
    # Runs the plateau test stopped short of a fixed point, each reporting
    # converged=True, whose permuted run found a weaker direction.
    @example(case=_ica_case(70, 6, 321, False, True, (0, 5.536997275379584e-43)))
    @example(case=_ica_case(32, 6, 355, False, True))
    @example(case=_ica_case(30, 6, 92070, True, True))
    @_FAST
    def test_permutation_equivariance(self, case):
        """Row order carries no information: permuting the input rows
        leaves the strongly-determined directions unchanged.

        FastICA only sees the input through row-wise expectations; a
        permutation changes floating-point summation order, so the check
        is angular, not bitwise — and restricted to runs that reached a
        fixed point, and to directions with a clearly non-gaussian
        score.  On a flat contrast (near-gaussian residual dimensions)
        the 1e-16 start perturbation can steer the fixed-point iteration
        to a different, equally valid optimum, so weak directions carry
        no equivariance guarantee.
        """
        from repro.projection.scores import ica_scores

        data, seed = case
        rng = np.random.default_rng(seed)
        perm = rng.permutation(data.shape[0])
        a = fit_fastica(
            data, rng=np.random.default_rng(seed), max_iterations=400
        )
        b = fit_fastica(
            data[perm], rng=np.random.default_rng(seed), max_iterations=400
        )
        # `converged` also holds when the plateau test stopped a run,
        # which may be short of any fixed point.  The alignment-only
        # oracle stops at the same iteration exactly when the alignment
        # test stopped the production run.
        for rows, run in ((data, a), (data[perm], b)):
            _, iterations, aligned = reference_fit_fastica(
                rows,
                rng=np.random.default_rng(seed),
                max_iterations=400,
                plateau=False,
            )
            if not (aligned and iterations == run.n_iterations):
                return
        assert a.components.shape == b.components.shape
        scores_a = np.atleast_1d(ica_scores(data, a.components))
        ranked = np.sort(np.abs(scores_a))[::-1]
        top = int(np.argmax(np.abs(scores_a)))
        if ranked[0] < 0.02:
            return  # structure too weak to pin a direction
        if len(ranked) > 1 and ranked[0] - ranked[1] < 0.01:
            # Near-tied top scores: the summation-order perturbation can
            # legitimately swap which of the two optima wins, so the
            # "dominant direction" is not well defined for this input.
            return
        # Run B must recover run A's dominant direction (up to sign)
        # — or land on a *different* optimum of equal contrast. Even a
        # clearly dominant top score does not make the optimum unique:
        # hypothesis found a (246, 4) input whose landscape holds two
        # ~40-degrees-apart optima scoring within 0.6% of each other,
        # where the permutation legitimately steers the iteration to
        # the other one. The contrast *value* is permutation-equivariant
        # even where the argmax is not, so that is what a divergent
        # direction must justify itself against.
        cosines = np.abs(b.components @ a.components[top])
        if cosines.max() <= 0.999:
            scores_b = np.atleast_1d(ica_scores(data[perm], b.components))
            assert np.max(np.abs(scores_b)) == pytest.approx(
                ranked[0], rel=0.05, abs=0.005
            )


def _partition(class_of_row, c_count):
    """An :class:`EquivalenceClasses` over the given class labels."""
    return EquivalenceClasses(
        n_rows=class_of_row.size,
        class_of_row=class_of_row,
        class_counts=np.bincount(class_of_row, minlength=c_count),
        members=(),
        representative_rows=np.zeros(c_count, dtype=np.intp),
    )


def _per_row(values, classes, matrices):
    """Per-row oracle: gather each row's class matrix and apply it."""
    return np.einsum("nij,nj->ni", matrices[classes.class_of_row], values)


@st.composite
def partition_case(draw):
    """Random class partition + matrices for the grouped-apply kernel."""
    n = draw(st.integers(min_value=1, max_value=120))
    d = draw(st.integers(min_value=1, max_value=6))
    c_count = draw(st.integers(min_value=1, max_value=min(n, 12)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # Ragged: one dominant class plus scattered singletons.
        class_of_row = np.zeros(n, dtype=np.intp)
        extras = rng.choice(n, size=min(c_count - 1, n - 1), replace=False)
        class_of_row[extras] = rng.integers(1, c_count, extras.size)
    else:
        class_of_row = rng.integers(0, c_count, n)
    values = rng.standard_normal((n, d))
    matrices = rng.standard_normal((c_count, d, d))
    return values, _partition(class_of_row, c_count), matrices


class TestApplyByClass:
    @given(partition_case())
    @_FAST
    def test_matches_per_row_oracle(self, case):
        values, classes, matrices = case
        got = apply_by_class(values, classes, matrices)
        np.testing.assert_allclose(
            got, _per_row(values, classes, matrices), atol=_TOL
        )

    def test_empty_classes_are_skipped(self):
        rng = np.random.default_rng(0)
        class_of_row = np.array([0, 0, 2, 2, 2], dtype=np.intp)  # class 1 empty
        classes = _partition(class_of_row, 3)
        values = rng.standard_normal((5, 3))
        matrices = rng.standard_normal((3, 3, 3))
        np.testing.assert_allclose(
            apply_by_class(values, classes, matrices),
            _per_row(values, classes, matrices),
            atol=_TOL,
        )

    @pytest.mark.parametrize(
        "n, c_count", [(0, 1), (0, 3), (9, 1)], ids=["n0", "n0-c3", "c1"]
    )
    def test_no_rows_and_one_class(self, n, c_count):
        rng = np.random.default_rng(n + c_count)
        classes = _partition(rng.integers(0, c_count, n), c_count)
        values = rng.standard_normal((n, 4))
        matrices = rng.standard_normal((c_count, 4, 4))
        got = apply_by_class(values, classes, matrices)
        assert got.shape == (n, 4)
        np.testing.assert_allclose(
            got, _per_row(values, classes, matrices), atol=_TOL
        )
