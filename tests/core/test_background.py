"""Tests for the BackgroundModel facade."""

import numpy as np
import pytest

from repro.core.background import BackgroundModel
from repro.errors import DataShapeError, NotFittedError


class TestConstruction:
    def test_rejects_empty_data(self):
        with pytest.raises(DataShapeError):
            BackgroundModel(np.empty((0, 3)))

    def test_rejects_nan_data(self):
        data = np.ones((5, 2))
        data[0, 0] = np.nan
        with pytest.raises(DataShapeError):
            BackgroundModel(data)

    def test_defensive_copy(self, gaussian_data):
        model = BackgroundModel(gaussian_data)
        gaussian_data[0, 0] = 999.0
        assert model.data[0, 0] != 999.0

    def test_standardize_centres_and_scales(self, rng):
        data = rng.standard_normal((300, 3)) * np.array([10.0, 1.0, 0.1]) + 5.0
        model = BackgroundModel(data, standardize=True)
        np.testing.assert_allclose(model.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(model.data.std(axis=0), 1.0, atol=1e-10)

    def test_standardize_constant_column_safe(self, rng):
        data = rng.standard_normal((50, 2))
        data[:, 1] = 7.0
        model = BackgroundModel(data, standardize=True)
        assert np.all(np.isfinite(model.data))


class TestFitLifecycle:
    def test_not_fitted_raises(self, gaussian_data):
        model = BackgroundModel(gaussian_data)
        with pytest.raises(NotFittedError):
            model.whiten()

    def test_dirty_after_new_constraint(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.fit()
        assert model.is_fitted
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        assert not model.is_fitted
        with pytest.raises(NotFittedError):
            model.whiten()

    def test_fit_clears_dirty(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.fit()
        assert model.is_fitted
        assert model.last_report is not None

    def test_constraint_dimension_checked_at_registration(self, gaussian_data):
        from repro.core.constraint import Constraint, ConstraintKind

        model = BackgroundModel(gaussian_data)
        bad = Constraint(ConstraintKind.LINEAR, np.array([0]), np.ones(9))
        with pytest.raises(DataShapeError):
            model.add_constraints([bad])

    def test_constraint_rows_checked_at_registration(self, gaussian_data):
        from repro.core.constraint import Constraint, ConstraintKind

        model = BackgroundModel(gaussian_data)
        bad = Constraint(ConstraintKind.LINEAR, np.array([10**6]), np.ones(4))
        with pytest.raises(DataShapeError):
            model.add_constraints([bad])


class TestDerivedQuantities:
    def test_whitening_identity_without_constraints(self, gaussian_data):
        model = BackgroundModel(gaussian_data)
        model.fit()
        np.testing.assert_allclose(model.whiten(), model.data, atol=1e-10)

    def test_expectations_match_targets_after_fit(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.add_cluster_constraint(np.flatnonzero(labels == 1))
        model.fit()
        np.testing.assert_allclose(
            model.constraint_expectations(),
            model.constraint_targets(),
            rtol=1e-6,
            atol=1e-8,
        )

    def test_whitened_cluster_data_is_standard(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.add_cluster_constraint(np.flatnonzero(labels == 1))
        model.fit()
        whitened = model.whiten()
        np.testing.assert_allclose(whitened.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(whitened.var(axis=0), 1.0, atol=0.1)

    def test_sample_matches_model_moments(self, two_cluster_data):
        data, labels = two_cluster_data
        rows0 = np.flatnonzero(labels == 0)
        model = BackgroundModel(data)
        model.add_cluster_constraint(rows0)
        model.fit()
        rng = np.random.default_rng(7)
        samples = np.stack([model.sample(rng=rng) for _ in range(200)])
        sample_mean = samples[:, rows0, :].mean(axis=(0, 1))
        np.testing.assert_allclose(sample_mean, data[rows0].mean(axis=0), atol=0.05)

    def test_row_accessors(self, two_cluster_data):
        data, labels = two_cluster_data
        rows0 = np.flatnonzero(labels == 0)
        model = BackgroundModel(data)
        model.add_cluster_constraint(rows0)
        model.fit()
        i = int(rows0[0])
        np.testing.assert_allclose(model.row_mean(i), data[rows0].mean(axis=0), atol=1e-6)
        assert model.row_covariance(i).shape == (3, 3)
        means = model.means()
        assert means.shape == data.shape
        np.testing.assert_allclose(means[i], model.row_mean(i))

    def test_equivalence_summary(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.fit()
        summary = model.equivalence_summary()
        assert summary["n_rows"] == 100
        assert summary["n_classes"] == 2


class TestWhitenMemo:
    """One whitened matrix per installed fit, shared by view and surprise."""

    def _fitted(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.fit()
        return model

    def test_whiten_is_computed_once_per_fit(self, two_cluster_data, monkeypatch):
        import repro.core.background as background

        calls = []
        real = background.whiten
        monkeypatch.setattr(
            background, "whiten", lambda *a: calls.append(1) or real(*a)
        )
        model = self._fitted(two_cluster_data)
        first = model.whiten()
        model.row_surprise()
        assert model.whiten() is first
        assert len(calls) == 1
        model.fit()  # a new fit installs new parameter objects
        assert model.whiten() is not first
        assert len(calls) == 2

    def test_whitened_matrix_is_read_only(self, two_cluster_data):
        whitened = self._fitted(two_cluster_data).whiten()
        assert not whitened.flags.writeable
        with pytest.raises(ValueError):
            whitened[0, 0] = 1.0

    def test_row_surprise_matches_a_fresh_computation(self, two_cluster_data):
        from repro.eval.information import row_negative_log_density

        model = self._fitted(two_cluster_data)
        model.whiten()  # the memo row_surprise reuses
        params, classes = model._require_fit()
        fresh = row_negative_log_density(model.data, params, classes)
        assert np.array_equal(model.row_surprise(), fresh)

    def test_restored_parameters_are_whitened_afresh(self, two_cluster_data):
        from repro.core.whitening import whiten
        from repro.service.cache import SolveCache

        model = self._fitted(two_cluster_data)
        cache = SolveCache()
        key = cache.key_for(model)
        cache.store(model, key)
        before = model.whiten()
        # A fit installed from the solve cache into an already-whitened
        # model must not be served the old whitened matrix.
        assert cache.fetch(model, key)
        after = model.whiten()
        assert after is not before
        params, classes = model._require_fit()
        assert np.array_equal(after, whiten(model.data, params, classes))
