"""The FastICA plateau stop: a run ends once its view stops improving.

Pins the contract of the stop rule in :mod:`repro.projection.fastica`:

* the gaussian log-cosh constants it is built on equal their quadrature;
* noise-only input stops well before the iteration cap, counted in
  iterations, and capped runs show in the perf counters;
* batched and serial (:mod:`repro.projection.reference`) runs agree under
  the rule, on the stable log-cosh branch above
  ``DIRECT_LOGCOSH_MAX_ROWS`` too;
* the views it shows on seeded ``x5`` benchmark rounds are no weaker than
  the ones the alignment test alone produced, in units of the contrast's
  gaussian sampling SD.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.projection import fastica, reference, registry, scores
from repro.projection.fastica import (
    GAUSSIAN_LOGCOSH_MEAN,
    GAUSSIAN_LOGCOSH_SD,
    PLATEAU_EVERY,
    PLATEAU_WINDOW,
    fit_fastica,
)
from repro.projection.reference import reference_ica_search


@pytest.fixture
def perf_on():
    perf.enable()
    perf.reset()
    try:
        yield
    finally:
        perf.disable()
        perf.reset()


def _top2(values: np.ndarray) -> float:
    return float(np.sum(np.sort(np.abs(values))[::-1][:2]))


class TestGaussianConstants:
    def test_literals_match_quadrature(self):
        from scipy.integrate import quad

        def pdf(x):
            return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

        mean, _ = quad(lambda x: np.log(np.cosh(x)) * pdf(x), -12.0, 12.0)
        var, _ = quad(
            lambda x: (np.log(np.cosh(x)) - mean) ** 2 * pdf(x), -12.0, 12.0
        )
        assert GAUSSIAN_LOGCOSH_MEAN == pytest.approx(mean, abs=1e-12)
        assert GAUSSIAN_LOGCOSH_SD == pytest.approx(np.sqrt(var), abs=1e-12)

    def test_reexported_from_scores_and_package(self):
        import repro.projection as projection

        for module in (scores, projection):
            assert module.GAUSSIAN_LOGCOSH_MEAN == GAUSSIAN_LOGCOSH_MEAN
            assert module.GAUSSIAN_LOGCOSH_SD == GAUSSIAN_LOGCOSH_SD


class TestNoiseStopsEarly:
    """Pure gaussian input has no structure: the view stops improving at
    once.  The alignment test alone ran most of these to the cap."""

    @pytest.mark.parametrize("seed", range(5))
    def test_both_variants_stop_well_before_the_cap(self, seed, perf_on):
        data = np.random.default_rng(seed).standard_normal((2000, 5))
        symmetric = fit_fastica(data, seed=seed, n_restarts=3)
        deflation = fit_fastica(data, seed=seed, algorithm="deflation")
        assert symmetric.converged and deflation.converged
        # Cap: 500 per restart, 500 per deflation component.
        assert symmetric.n_iterations <= 100
        assert deflation.n_iterations <= 5 * 50
        counters = perf.snapshot()["counters"]
        assert counters["projection.fastica_capped"] == 0
        # Every restart stopped early too, not only the winner.
        assert counters["projection.fastica_iterations"] <= 3 * 100 + 5 * 50

    def test_plateau_stops_a_run_the_alignment_test_cannot(self):
        # tolerance=0 switches the alignment test off: only the plateau
        # test or the cap can end the run.
        data = np.random.default_rng(0).standard_normal((1000, 4))
        for algorithm in ("symmetric", "deflation"):
            result = fit_fastica(
                data, seed=0, tolerance=0.0, algorithm=algorithm
            )
            assert result.converged
            assert result.n_iterations % PLATEAU_EVERY == 0
            assert result.n_iterations >= PLATEAU_EVERY + PLATEAU_WINDOW

    def test_capped_runs_are_counted(self, perf_on):
        data = np.random.default_rng(0).standard_normal((300, 3))
        fit_fastica(data, seed=0, tolerance=0.0, max_iterations=3, n_restarts=4)
        assert perf.snapshot()["counters"]["projection.fastica_capped"] == 4
        fit_fastica(
            data, seed=0, tolerance=0.0, max_iterations=3, algorithm="deflation"
        )
        assert perf.snapshot()["counters"]["projection.fastica_capped"] == 5


class TestWinningVariantCounter:
    def test_one_win_per_search(self, perf_on):
        rng = np.random.default_rng(3)
        data = np.vstack(
            [rng.standard_normal((150, 3)), rng.standard_normal((100, 3)) + 3]
        )
        objective = registry.get("ica")
        for seed in range(3):
            objective.find_directions(data, np.random.default_rng(seed))
        counters = perf.snapshot()["counters"]
        wins = counters.get("projection.ica_wins_symmetric", 0) + counters.get(
            "projection.ica_wins_deflation", 0
        )
        assert wins == 3
        assert counters["projection.fastica_runs"] == 6


_FAST = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestSearchParity:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @_FAST
    def test_objective_matches_serial_search(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(80, 400))
        data = rng.standard_normal((n, 4))
        data[: n // 3, 0] += 3.0
        got_dirs, got_scores = registry.ICAObjective().find_directions(
            data, np.random.default_rng(seed)
        )
        want_dirs, want_scores = reference_ica_search(
            data, np.random.default_rng(seed)
        )
        np.testing.assert_allclose(got_dirs, want_dirs, atol=1e-10)
        np.testing.assert_allclose(got_scores, want_scores, atol=1e-10)


class TestStableContrastBranch:
    """Above ``DIRECT_LOGCOSH_MAX_ROWS`` rows the plateau test reads the
    overflow-safe log-cosh form.  No workload is that large, so the
    threshold is lowered here, in both modules (the serial reference
    imports it by value)."""

    @pytest.fixture
    def stable_branch(self, monkeypatch):
        monkeypatch.setattr(fastica, "DIRECT_LOGCOSH_MAX_ROWS", 10)
        monkeypatch.setattr(reference, "DIRECT_LOGCOSH_MAX_ROWS", 10)

    def test_contrast_matches_direct_form(self, stable_branch):
        wz = np.random.default_rng(0).standard_normal((500, 6)) * 3.0
        direct = np.mean(np.log(np.cosh(wz)), axis=0) - GAUSSIAN_LOGCOSH_MEAN
        # The direct form writes its scratch buffer; the stable one never
        # touches it, which shows the branch was taken.
        scratch = np.full_like(wz, np.nan)
        got = fastica._plateau_contrast(wz, scratch, np.ones(500))
        assert np.isnan(scratch).all()
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            reference._plateau_contrast(wz), direct, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_matches_serial(self, stable_branch, seed):
        # tolerance=0 leaves the plateau test, and so this branch, to end
        # every run the cap does not.
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((300, 4))
        data[:150, 0] += 3.0
        z, _, _, k = fastica._pca_whiten(data, None)
        inits = rng.standard_normal((3, k, k))
        got_w, got_it, got_conv = fastica._symmetric_fastica_batched(
            z, inits, 150, 0.0
        )
        want_w, want_it, want_conv, _ = (
            reference.reference_multi_restart_symmetric(z, inits, 150, 0.0)
        )
        np.testing.assert_allclose(got_w, want_w, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(got_it, want_it)
        np.testing.assert_array_equal(got_conv, want_conv)
        assert got_conv.all()

        got = fit_fastica(
            data, seed=seed, tolerance=0.0, algorithm="deflation",
            max_iterations=150,
        )
        want_c, want_it, want_conv = reference.reference_fit_fastica(
            data, rng=np.random.default_rng(seed), tolerance=0.0,
            algorithm="deflation", max_iterations=150,
        )
        np.testing.assert_allclose(got.components, want_c, rtol=0, atol=1e-10)
        assert (got.n_iterations, got.converged) == (want_it, want_conv)
        assert got.converged


def _x5_rounds(count: int):
    """Seeded benchmark-style rounds: standardized ``x5`` after a 200-row
    mark of class B or C, as the ``ica-1k-sharded`` workload sends."""
    from repro.core.background import BackgroundModel
    from repro.datasets import x5

    bundle = x5(seed=0)
    for index in range(count):
        rng = np.random.default_rng([2024, index])
        members = np.flatnonzero(bundle.labels == "BC"[index % 2])
        rows = np.sort(rng.choice(members, size=200, replace=False))
        model = BackgroundModel(bundle.data, standardize=True)
        model.add_cluster_constraint(rows, label="mark")
        model.fit()
        yield model.whiten(), rng


def test_views_hold_against_the_alignment_only_rule():
    """On 12 seeded rounds no view loses more than half a sampling SD of
    top-2 |score| against the old rule, and the median loses nothing
    measurable.  The old rule runs from the serial reference; nothing on
    the serving path calls it."""
    deltas = []
    for whitened, rng in _x5_rounds(12):
        seed = int(rng.integers(0, 2**31))
        _, new = registry.ICAObjective().find_directions(
            whitened, np.random.default_rng(seed)
        )
        _, old = reference_ica_search(
            whitened, np.random.default_rng(seed), plateau=False
        )
        sigma = GAUSSIAN_LOGCOSH_SD / np.sqrt(whitened.shape[0])
        deltas.append((_top2(new) - _top2(old)) / sigma)
    assert min(deltas) >= -0.5, deltas
    assert np.median(deltas) >= -0.05, deltas
