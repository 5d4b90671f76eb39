"""Shared fixtures for the durable-store test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.store.sqlite import SQLiteStore


@pytest.fixture(params=["sqlite"])
def durable_store(tmp_path):
    """The durable backend (the ``[sqlite]`` id names it in test ids)."""
    store = SQLiteStore(tmp_path / "sessions.db")
    yield store
    store.close()


@pytest.fixture
def reopen():
    """Build a *fresh* store instance over the same on-disk state.

    Simulates a new process attaching after a crash: nothing survives
    from the old instance's memory, only what was durably written.
    """

    def _reopen(store):
        return SQLiteStore(store.path)

    return _reopen


@pytest.fixture
def small_data(rng) -> np.ndarray:
    """A tiny dataset that keeps replay-heavy tests fast."""
    a = rng.normal([0.0, 0.0, 0.0], 0.3, (30, 3))
    b = rng.normal([3.0, 3.0, 0.0], 0.3, (20, 3))
    return np.vstack([a, b])
