"""Tests for the information-theoretic diagnostics."""

import numpy as np
import pytest

from repro.core.background import BackgroundModel
from repro.core.equivalence import build_equivalence_classes
from repro.core.parameters import ClassParameters
from repro.datasets import DATASETS
from repro.errors import DataShapeError
from repro.eval.information import (
    background_kl_from_prior,
    knowledge_gain,
    row_negative_log_density,
)
from repro.linalg import symmetric_eig


class TestBackgroundKl:
    def test_prior_is_zero(self):
        classes = build_equivalence_classes(50, [])
        params = ClassParameters.prior(1, 3)
        assert background_kl_from_prior(params, classes) == pytest.approx(0.0)

    def test_mean_shift_closed_form(self):
        # KL(N(m, I) || N(0, I)) = |m|^2 / 2 per row.
        classes = build_equivalence_classes(10, [])
        params = ClassParameters.prior(1, 2)
        params.mean[0] = np.array([3.0, 4.0])
        got = background_kl_from_prior(params, classes)
        assert got == pytest.approx(10 * 0.5 * 25.0)

    def test_variance_change_closed_form(self):
        # KL(N(0, s I) || N(0, I)) = d/2 (s - log s - 1) per row.
        classes = build_equivalence_classes(4, [])
        params = ClassParameters.prior(1, 3)
        s = 0.2
        params.sigma[0] = s * np.eye(3)
        got = background_kl_from_prior(params, classes)
        want = 4 * 0.5 * 3 * (s - np.log(s) - 1.0)
        assert got == pytest.approx(want)

    def test_singular_covariance_finite(self):
        classes = build_equivalence_classes(2, [])
        params = ClassParameters.prior(1, 2)
        params.sigma[0] = np.diag([1.0, 0.0])
        got = background_kl_from_prior(params, classes)
        assert np.isfinite(got)
        assert got > 5.0  # pinning a direction is a lot of knowledge

    def test_monotone_in_constraints(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.fit()
        k0 = model.knowledge_nats()
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.fit()
        k1 = model.knowledge_nats()
        model.add_cluster_constraint(np.flatnonzero(labels == 1))
        model.fit()
        k2 = model.knowledge_nats()
        assert k0 == pytest.approx(0.0, abs=1e-9)
        assert k0 < k1 < k2


class TestRowSurprise:
    def test_prior_surprise_is_gaussian_loglik(self, rng):
        data = rng.standard_normal((100, 3))
        classes = build_equivalence_classes(100, [])
        params = ClassParameters.prior(1, 3)
        got = row_negative_log_density(data, params, classes)
        want = 0.5 * (
            np.einsum("ij,ij->i", data, data) + 3 * np.log(2 * np.pi)
        )
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_extreme_rows_more_surprising(self, rng):
        data = rng.standard_normal((50, 2))
        data[0] = [8.0, 8.0]
        classes = build_equivalence_classes(50, [])
        params = ClassParameters.prior(1, 2)
        surprise = row_negative_log_density(data, params, classes)
        assert np.argmax(surprise) == 0

    def test_model_facade(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.fit()
        surprise = model.row_surprise()
        assert surprise.shape == (100,)
        assert np.all(np.isfinite(surprise))

    def test_conforming_rows_less_surprising_after_constraint(
        self, two_cluster_data
    ):
        # Marking cluster 1 should drop its rows' surprise (they were far
        # from the prior) while the untouched cluster-0 rows keep theirs.
        data, labels = two_cluster_data
        rows1 = np.flatnonzero(labels == 1)
        model = BackgroundModel(data)
        model.fit()
        before = model.row_surprise()
        model.add_cluster_constraint(rows1)
        model.fit()
        after = model.row_surprise()
        assert after[rows1].mean() < before[rows1].mean()

    def test_shape_mismatch_rejected(self, rng):
        classes = build_equivalence_classes(10, [])
        params = ClassParameters.prior(1, 3)
        with pytest.raises(DataShapeError):
            row_negative_log_density(rng.standard_normal((10, 4)), params, classes)


class TestScalarLogdetParity:
    """Knowledge and surprise equal the scalar-``eigh`` formula exactly.

    The log-determinants come from the parameter state's one batched
    eigendecomposition; the formula below decomposes class by class
    with the scalar helper, as the oracle.
    """

    @staticmethod
    def _scalar_logdets(params):
        out = np.empty(params.n_classes)
        for c in range(params.n_classes):
            vals, _ = symmetric_eig(params.sigma[c])
            out[c] = float(np.sum(np.log(np.maximum(vals, 1e-12))))
        return out

    @pytest.mark.parametrize("standardize", [True, False], ids=["std", "raw"])
    @pytest.mark.parametrize("name", ["x5", "cytometry"])
    def test_knowledge_and_surprise_match_scalar_formula(self, name, standardize):
        bundle = DATASETS[name]()
        model = BackgroundModel(bundle.data, standardize=standardize)
        model.add_margin_constraints()
        for label in np.unique(bundle.labels)[:2]:
            model.add_cluster_constraint(np.flatnonzero(bundle.labels == label))
        model.fit()
        params, classes = model._require_fit()
        assert classes.n_classes >= 2
        d = params.dim
        logdets = self._scalar_logdets(params)

        traces = np.einsum("cii->c", params.sigma)
        mean_sq = np.einsum("ci,ci->c", params.mean, params.mean)
        per_class = 0.5 * (traces + mean_sq - d - logdets)
        counts = classes.class_counts.astype(np.float64)
        assert model.knowledge_nats() == float(np.dot(counts, per_class))

        whitened = model.whiten()
        maha_sq = np.einsum("ij,ij->i", whitened, whitened)
        surprise = 0.5 * (
            maha_sq + logdets[classes.class_of_row] + d * np.log(2.0 * np.pi)
        )
        assert np.array_equal(model.row_surprise(), surprise)


class TestKnowledgeGain:
    def test_positive_difference(self):
        assert knowledge_gain(2.0, 5.0) == 3.0

    def test_clamped_at_zero(self):
        assert knowledge_gain(5.0, 4.999) == 0.0
