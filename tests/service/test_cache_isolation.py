"""Regression tests for the cache isolation contract and the L2 tier.

The bug being pinned down: fetched solves used to hand every session the
*same* ``EquivalenceClasses`` object, so one session's in-place edit (or
even just its ``scatter_plan`` memo) leaked into every other session that
hit the same cache entry.  The fix freezes the partition on store
(read-only array copies) and gives every fetch a fresh instance over
those arrays; these tests fail loudly if either half regresses.
"""

import sqlite3

import numpy as np
import pytest

from repro.core.background import BackgroundModel
from repro.service.cache import (
    L2SolveCache,
    SolveCache,
    classes_view,
    freeze_classes,
)


def _constrained_model(data, labels, which=0):
    model = BackgroundModel(data)
    model.add_cluster_constraint(np.flatnonzero(labels == which))
    return model


@pytest.fixture
def stored(two_cluster_data):
    """A cache holding one solve, plus the key and a model factory."""
    data, labels = two_cluster_data
    cache = SolveCache()
    model = _constrained_model(data, labels)
    key = cache.key_for(model)
    model.fit()
    cache.store(model, key)
    return cache, key, lambda: _constrained_model(data, labels)


class TestFrozenClasses:
    def test_fetched_partition_arrays_are_read_only(self, stored):
        cache, key, make_model = stored
        fetched = make_model()
        assert cache.fetch(fetched, key)
        classes = fetched._classes
        with pytest.raises(ValueError, match="read-only"):
            classes.class_of_row[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            classes.class_counts[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            classes.members[0][0] = 99
        with pytest.raises(ValueError, match="read-only"):
            classes.representative_rows[0] = 99

    def test_each_fetch_gets_its_own_instance(self, stored):
        cache, key, make_model = stored
        first, second = make_model(), make_model()
        assert cache.fetch(first, key)
        assert cache.fetch(second, key)
        assert first._classes is not second._classes
        # The underlying read-only arrays ARE shared — that is the point
        # of freezing them.
        assert first._classes.class_of_row is second._classes.class_of_row

    def test_scatter_plan_memo_is_not_shared_between_fetches(self, stored):
        cache, key, make_model = stored
        first, second = make_model(), make_model()
        assert cache.fetch(first, key)
        assert cache.fetch(second, key)
        plan = first._classes.scatter_plan  # materialise the memo
        assert plan is first._classes.scatter_plan  # memoised per instance
        assert "scatter_plan" not in vars(second._classes)
        assert second._classes.scatter_plan is not plan

    def test_fetched_solve_is_numerically_identical(self, stored):
        cache, key, make_model = stored
        data_model = make_model()
        data_model.fit()
        fetched = make_model()
        assert cache.fetch(fetched, key)
        orig, hit = data_model._params, fetched._params
        np.testing.assert_array_equal(orig.theta1, hit.theta1)
        np.testing.assert_array_equal(orig.sigma, hit.sigma)
        np.testing.assert_array_equal(orig.mean, hit.mean)

    def test_freeze_then_view_round_trip(self, two_cluster_data):
        data, labels = two_cluster_data
        model = _constrained_model(data, labels)
        model.fit()
        classes = model._classes
        frozen = freeze_classes(classes)
        assert not frozen.class_of_row.flags.writeable
        # Freezing copies: the live partition stays writable.
        assert classes.class_of_row.flags.writeable
        view = classes_view(frozen)
        assert view is not frozen
        assert view.class_of_row is frozen.class_of_row
        np.testing.assert_array_equal(
            view.class_of_row, classes.class_of_row
        )


class TestL2Tier:
    def test_cross_cache_round_trip_is_bit_exact(
        self, two_cluster_data, tmp_path
    ):
        data, labels = two_cluster_data
        l2_path = tmp_path / "solve-cache.db"
        writer = SolveCache(l2=L2SolveCache(l2_path))
        model = _constrained_model(data, labels)
        key = writer.key_for(model)
        report = model.fit()
        writer.store(model, key)

        # A different process would open its own handles on the same
        # file; a second SolveCache with an empty L1 models that.
        reader = SolveCache(l2=L2SolveCache(l2_path))
        twin = _constrained_model(data, labels)
        assert reader.fetch(twin, key)
        np.testing.assert_array_equal(
            model._params.theta1, twin._params.theta1
        )
        np.testing.assert_array_equal(
            model._params.sigma, twin._params.sigma
        )
        np.testing.assert_array_equal(model._params.mean, twin._params.mean)
        np.testing.assert_array_equal(
            model._classes.class_of_row, twin._classes.class_of_row
        )
        assert twin.last_report.converged == report.converged
        assert twin.last_report.sweeps == report.sweeps
        assert twin.last_report.elapsed == report.elapsed
        stats = reader.stats()
        assert stats["l2"]["hits"] == 1
        assert stats["hits"] == 1

    def test_l2_hit_is_promoted_into_l1(self, two_cluster_data, tmp_path):
        data, labels = two_cluster_data
        l2 = L2SolveCache(tmp_path / "solve-cache.db")
        writer = SolveCache(l2=l2)
        model = _constrained_model(data, labels)
        key = writer.key_for(model)
        model.fit()
        writer.store(model, key)

        reader = SolveCache(l2=L2SolveCache(tmp_path / "solve-cache.db"))
        assert len(reader) == 0
        assert reader.fetch(_constrained_model(data, labels), key)
        assert len(reader) == 1  # promoted
        # Second fetch is an L1 hit: the L2 counters do not move.
        assert reader.fetch(_constrained_model(data, labels), key)
        assert reader.stats()["l2"]["hits"] == 1

    def test_fetched_l2_partition_is_read_only(
        self, two_cluster_data, tmp_path
    ):
        data, labels = two_cluster_data
        l2_path = tmp_path / "solve-cache.db"
        writer = SolveCache(l2=L2SolveCache(l2_path))
        model = _constrained_model(data, labels)
        key = writer.key_for(model)
        model.fit()
        writer.store(model, key)

        reader = SolveCache(l2=L2SolveCache(l2_path))
        twin = _constrained_model(data, labels)
        assert reader.fetch(twin, key)
        with pytest.raises(ValueError, match="read-only"):
            twin._classes.class_of_row[0] = 99

    def test_corrupt_row_degrades_to_miss_and_heals(
        self, two_cluster_data, tmp_path
    ):
        data, labels = two_cluster_data
        l2 = L2SolveCache(tmp_path / "solve-cache.db")
        cache = SolveCache(l2=l2)
        model = _constrained_model(data, labels)
        key = cache.key_for(model)
        model.fit()
        cache.store(model, key)
        assert key in l2

        conn = sqlite3.connect(tmp_path / "solve-cache.db")
        conn.execute(
            "UPDATE solves SET arrays = ? WHERE key = ?",
            (b"not an npz archive", key),
        )
        conn.commit()
        conn.close()

        assert l2.get(key) is None  # corrupt row is a miss, not an error
        assert key not in l2  # and it was dropped so a store can heal it
        fresh = SolveCache(l2=L2SolveCache(tmp_path / "solve-cache.db"))
        assert not fresh.fetch(_constrained_model(data, labels), key)

    def test_eviction_keeps_the_newest_entries(
        self, two_cluster_data, tmp_path
    ):
        data, labels = two_cluster_data
        l2 = L2SolveCache(tmp_path / "solve-cache.db", max_entries=3)
        cache = SolveCache(l2=l2)
        model = _constrained_model(data, labels)
        model.fit()
        keys = [f"synthetic-key-{i}" for i in range(5)]
        for key in keys:
            cache.store(model, key)
        assert len(l2) == 3
        assert keys[-1] in l2
        assert keys[0] not in l2

    def test_trim_walks_the_store_time_index(self, tmp_path):
        """The trim reads the created_at index, not every row's blob."""
        from repro.service.cache import _TRIM_SQL

        l2 = L2SolveCache(tmp_path / "solve-cache.db", max_entries=3)
        plan = " | ".join(
            row[-1]
            for row in l2._conn().execute(
                f"EXPLAIN QUERY PLAN {_TRIM_SQL}", (l2.max_entries,)
            )
        )
        assert "solves_created_at" in plan, plan
        assert "TEMP B-TREE" not in plan, plan

    def test_l2_errors_never_break_the_fit_path(
        self, two_cluster_data, tmp_path, monkeypatch
    ):
        data, labels = two_cluster_data
        l2 = L2SolveCache(tmp_path / "solve-cache.db")
        cache = SolveCache(l2=l2)

        def broken_conn():
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(l2, "_conn", broken_conn)
        model = _constrained_model(data, labels)
        report, hit = cache.fit(model)
        assert not hit
        assert model.is_fitted
        # The solve was still cached in L1 despite the dead L2.
        twin = _constrained_model(data, labels)
        _report, hit = cache.fit(twin)
        assert hit
