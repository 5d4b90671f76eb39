"""Shared fixtures for the test suite."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def two_cluster_data(rng) -> tuple[np.ndarray, np.ndarray]:
    """A small 3-D dataset with two well-separated clusters.

    Returns (data, labels); cluster 0 has 60 points, cluster 1 has 40.
    """
    a = rng.normal([0.0, 0.0, 0.0], 0.2, (60, 3))
    b = rng.normal([3.0, 3.0, 0.0], 0.2, (40, 3))
    data = np.vstack([a, b])
    labels = np.array([0] * 60 + [1] * 40)
    return data, labels


@pytest.fixture
def gaussian_data(rng) -> np.ndarray:
    """Plain standard-normal data (already 'explained' by the prior)."""
    return rng.standard_normal((200, 4))


@pytest.fixture
def short_tmp() -> Path:
    """A fresh, empty directory with a short path, removed afterwards.

    For TMPDIRs that hold fleet runtime directories: a worker's Unix
    socket path must fit in ~107 bytes, which ``tmp_path`` can exceed.
    """
    path = Path(tempfile.mkdtemp(prefix="t-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)
