"""Property tests: batched kernels vs the pre-vectorization loops.

Every vectorized kernel of the solver core is checked against the
preserved loop implementation in :mod:`repro.core.reference` to 1e-10
(most agree to machine epsilon; the looser bound absorbs summation-order
differences in the one-shot INIT reductions).  Hypothesis drives random
shapes, overlapping constraint layouts, and singular/pinned covariances.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constraint import Constraint, ConstraintKind
from repro.core.equivalence import build_equivalence_classes
from repro.core.parameters import ClassParameters
from repro.core.reference import (
    reference_apply_quadratic_update,
    reference_build_equivalence_classes,
    reference_init_targets,
    reference_optim_sweeps,
    reference_projected_stats,
    reference_sample_background,
    reference_whiten,
    reference_whitening_transforms,
)
from repro.core.sampling import sample_background
from repro.core.solver import SolverOptions, init_targets, solve_maxent
from repro.core.whitening import whiten, whitening_transforms
from repro.linalg import woodbury_rank1_inverse, woodbury_rank1_inverse_batched

_TOL = 1e-10

_FAST = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def covariance_stack(draw):
    """A (C, d, d) stack of PSD matrices, some exactly singular (pinned)."""
    c_count = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    sigma = np.empty((c_count, d, d))
    for c in range(c_count):
        rank = draw(st.integers(min_value=1, max_value=d))
        a = rng.standard_normal((d, rank))
        sigma[c] = a @ a.T  # rank-deficient when rank < d
    return sigma


@st.composite
def constraint_layout(draw):
    """Random data plus overlapping linear/quadratic constraints."""
    n = draw(st.integers(min_value=4, max_value=60))
    d = draw(st.integers(min_value=2, max_value=6))
    t_count = draw(st.integers(min_value=0, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    constraints = []
    for t in range(t_count):
        size = draw(st.integers(min_value=1, max_value=n))
        rows = np.sort(rng.choice(n, size=size, replace=False))
        kind = (
            ConstraintKind.QUADRATIC
            if draw(st.booleans())
            else ConstraintKind.LINEAR
        )
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        constraints.append(Constraint(kind, rows, w, label=f"c{t}"))
    return data, constraints


def _params_for(sigma: np.ndarray, seed: int = 0) -> ClassParameters:
    """ClassParameters carrying the given sigma stack and random means."""
    c_count, d = sigma.shape[0], sigma.shape[1]
    rng = np.random.default_rng(seed)
    params = ClassParameters.prior(c_count, d)
    params.sigma[:] = sigma
    params.theta1[:] = rng.standard_normal((c_count, d))
    params.mean[:] = np.einsum("cij,cj->ci", params.sigma, params.theta1)
    params.bump_versions(np.arange(c_count))
    return params


class TestBatchedWhitening:
    @given(covariance_stack())
    @_FAST
    def test_transforms_match_loop(self, sigma):
        params = _params_for(sigma)
        got = whitening_transforms(params)
        want = reference_whitening_transforms(params)
        np.testing.assert_allclose(got, want, atol=_TOL)

    @given(covariance_stack(), st.integers(min_value=0, max_value=2**31 - 1))
    @_FAST
    def test_whiten_matches_loop(self, sigma, seed):
        params = _params_for(sigma)
        rng = np.random.default_rng(seed)
        n = rng.integers(sigma.shape[0], 50)
        data = rng.standard_normal((int(n), sigma.shape[1]))
        # Arbitrary class assignment covering every class index.
        classes = build_equivalence_classes(int(n), [])
        class_of_row = rng.integers(0, sigma.shape[0], int(n))
        classes = type(classes)(
            n_rows=int(n),
            class_of_row=class_of_row,
            class_counts=np.bincount(class_of_row, minlength=sigma.shape[0]),
            members=(),
            representative_rows=np.zeros(sigma.shape[0], dtype=np.intp),
        )
        got = whiten(data, params, classes)
        want = reference_whiten(data, params, classes)
        np.testing.assert_allclose(got, want, atol=_TOL)


class TestBatchedSampling:
    @given(covariance_stack(), st.integers(min_value=0, max_value=2**31 - 1))
    @_FAST
    def test_sample_matches_loop_for_same_seed(self, sigma, seed):
        params = _params_for(sigma)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(sigma.shape[0], 50))
        class_of_row = rng.integers(0, sigma.shape[0], n)
        classes = build_equivalence_classes(n, [])
        classes = type(classes)(
            n_rows=n,
            class_of_row=class_of_row,
            class_counts=np.bincount(class_of_row, minlength=sigma.shape[0]),
            members=(),
            representative_rows=np.zeros(sigma.shape[0], dtype=np.intp),
        )
        got = sample_background(
            params, classes, rng=np.random.default_rng(seed + 1)
        )
        want = reference_sample_background(
            params, classes, rng=np.random.default_rng(seed + 1)
        )
        np.testing.assert_allclose(got, want, atol=_TOL)


class TestBatchedWoodbury:
    @given(
        covariance_stack(),
        st.floats(min_value=0.0, max_value=5.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @_FAST
    def test_batched_matches_scalar_loop(self, sigma, lam, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(sigma.shape[1])
        w /= np.linalg.norm(w)
        got = woodbury_rank1_inverse_batched(sigma, w, lam)
        want = np.stack(
            [woodbury_rank1_inverse(sigma[c], w, lam) for c in range(len(sigma))]
        )
        np.testing.assert_allclose(got, want, atol=_TOL)

    @given(covariance_stack(), st.integers(min_value=0, max_value=2**31 - 1))
    @_FAST
    def test_quadratic_update_matches_loop(self, sigma, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(sigma.shape[1])
        w /= np.linalg.norm(w)
        lam = float(rng.uniform(0.0, 2.0))
        delta = float(rng.standard_normal())
        subset = np.flatnonzero(rng.random(sigma.shape[0]) < 0.7)
        if subset.size == 0:
            subset = np.array([0])

        vec = _params_for(sigma, seed=seed)
        ref = vec.copy()
        vec.apply_quadratic_update(subset, w, lam, delta)
        reference_apply_quadratic_update(ref, subset, w, lam, delta)
        np.testing.assert_allclose(vec.sigma, ref.sigma, atol=_TOL)
        np.testing.assert_allclose(vec.mean, ref.mean, atol=_TOL)
        np.testing.assert_allclose(vec.theta1, ref.theta1, atol=_TOL)

    @given(covariance_stack())
    @_FAST
    def test_projected_stats_match_loop_einsum(self, sigma):
        params = _params_for(sigma)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(sigma.shape[1])
        w /= np.linalg.norm(w)
        subset = np.arange(sigma.shape[0])
        got_m, got_v = params.projected_stats(subset, w)
        want_m, want_v = reference_projected_stats(params, subset, w)
        np.testing.assert_allclose(got_m, want_m, atol=_TOL)
        np.testing.assert_allclose(got_v, want_v, atol=_TOL)


class TestOneShotInit:
    @given(constraint_layout())
    @_FAST
    def test_targets_and_anchors_match_per_constraint_passes(self, layout):
        data, constraints = layout
        got_t, got_a = init_targets(data, constraints)
        want_t, want_a = reference_init_targets(data, constraints)
        np.testing.assert_allclose(got_t, want_t, atol=_TOL, rtol=1e-10)
        np.testing.assert_allclose(got_a, want_a, atol=_TOL, rtol=1e-10)


class TestVectorizedEquivalence:
    @given(constraint_layout())
    @_FAST
    def test_identical_partition_and_numbering(self, layout):
        data, constraints = layout
        n = data.shape[0]
        got = build_equivalence_classes(n, constraints)
        want = reference_build_equivalence_classes(n, constraints)
        assert got.n_rows == want.n_rows
        np.testing.assert_array_equal(got.class_of_row, want.class_of_row)
        np.testing.assert_array_equal(got.class_counts, want.class_counts)
        np.testing.assert_array_equal(
            got.representative_rows, want.representative_rows
        )
        assert len(got.members) == len(want.members)
        for g, w in zip(got.members, want.members):
            np.testing.assert_array_equal(g, w)

    def test_many_constraints_cross_byte_boundaries(self):
        # >8 and >16 constraints exercise multi-byte packed signatures.
        rng = np.random.default_rng(0)
        n = 200
        constraints = []
        for t in range(19):
            rows = np.sort(rng.choice(n, size=rng.integers(1, n), replace=False))
            w = rng.standard_normal(3)
            constraints.append(
                Constraint(ConstraintKind.LINEAR, rows, w / np.linalg.norm(w))
            )
        got = build_equivalence_classes(n, constraints)
        want = reference_build_equivalence_classes(n, constraints)
        np.testing.assert_array_equal(got.class_of_row, want.class_of_row)
        for g, w in zip(got.members, want.members):
            np.testing.assert_array_equal(g, w)


class TestSolverEndToEnd:
    @given(constraint_layout())
    @_FAST
    def test_fixed_sweeps_match_reference_loop(self, layout):
        """Full OPTIM parity: N forced sweeps, loop vs vectorized."""
        data, constraints = layout
        if not constraints:
            return
        n = data.shape[0]
        classes = build_equivalence_classes(n, constraints)
        sweeps = 3
        forced = SolverOptions(
            lambda_tolerance=-1.0,
            drift_tolerance_factor=-1.0,
            time_cutoff=None,
            max_sweeps=sweeps,
        )
        fresh = ClassParameters.prior(classes.n_classes, data.shape[1])
        got, _, report = solve_maxent(
            data, constraints, options=forced, params=fresh, classes=classes
        )
        assert report.sweeps == sweeps
        want = reference_optim_sweeps(data, constraints, classes, sweeps)
        np.testing.assert_allclose(got.sigma, want.sigma, atol=1e-8)
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-8)

    def test_report_elapsed_is_init_plus_optim(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((50, 3))
        rows = np.arange(20)
        w = np.array([1.0, 0.0, 0.0])
        constraints = [
            Constraint(ConstraintKind.LINEAR, rows, w),
            Constraint(ConstraintKind.QUADRATIC, rows, w),
        ]
        _, _, report = solve_maxent(data, constraints)
        assert report.elapsed == pytest.approx(
            report.init_seconds + report.optim_seconds
        )
        assert report.init_seconds >= 0.0
        assert report.optim_seconds >= 0.0


class TestKernelCache:
    def test_cache_invalidated_by_updates(self):
        params = ClassParameters.prior(2, 3)
        t1 = whitening_transforms(params)
        assert whitening_transforms(params) is t1  # memo hit
        params.apply_quadratic_update(
            np.array([0]), np.array([1.0, 0.0, 0.0]), 0.5, 0.0
        )
        t2 = whitening_transforms(params)
        assert t2 is not t1
        np.testing.assert_allclose(
            t2, reference_whitening_transforms(params), atol=_TOL
        )

    def test_direct_mutation_with_bump_is_seen(self):
        params = ClassParameters.prior(1, 2)
        _ = whitening_transforms(params)
        params.sigma[0] = np.diag([4.0, 1.0])
        params.bump_versions(np.array([0]))
        got = whitening_transforms(params)
        np.testing.assert_allclose(
            got, reference_whitening_transforms(params), atol=_TOL
        )

    def test_one_eigendecomposition_per_state(self, monkeypatch):
        """Whitening, sampling, knowledge and surprise share one eigh."""
        import repro.core.parameters as parameters
        from repro.core.background import BackgroundModel

        calls = []
        real = parameters.symmetric_eig_batched
        monkeypatch.setattr(
            parameters,
            "symmetric_eig_batched",
            lambda sigma: calls.append(1) or real(sigma),
        )
        rng = np.random.default_rng(0)
        model = BackgroundModel(rng.standard_normal((60, 3)))
        model.add_cluster_constraint(np.arange(20))
        model.fit()
        model.knowledge_nats()
        model.whiten()
        model.sample(rng=np.random.default_rng(1))
        model.row_surprise()
        assert len(calls) == 1
        params, _ = model._require_fit()
        assert params.sigma_eig() is params.sigma_eig()
        params.apply_quadratic_update(
            np.array([0]), np.array([1.0, 0.0, 0.0]), 0.5, 0.0
        )
        params.sigma_eig()
        assert len(calls) == 2

    def test_copy_does_not_share_cache(self):
        params = ClassParameters.prior(1, 2)
        t1 = whitening_transforms(params)
        clone = params.copy()
        assert whitening_transforms(clone) is not t1
