"""Datasets: the paper's synthetic data and surrogates for its real data.

:data:`DATASETS` is the registry the service serves and the CLI names:
five datasets, each built by a zero-argument constructor.
"""

from typing import Callable

from repro.datasets.base import DatasetBundle
from repro.datasets.bnc import GENRES, bnc_surrogate
from repro.datasets.cytometry import CHANNELS, POPULATIONS, cytometry_surrogate
from repro.datasets.downsample import downsample, lift_selection
from repro.datasets.paper import (
    adversarial_constraints_case_a,
    adversarial_constraints_case_b,
    adversarial_three_points,
    three_d_clusters,
    x5,
)
from repro.datasets.runtime import runtime_constraints, runtime_dataset
from repro.datasets.segmentation import CLASSES, segmentation_surrogate
from repro.datasets.synthetic import gaussian_clusters, random_centroid_clusters

#: Dataset registry: name -> zero-argument constructor.
DATASETS: dict[str, Callable[[], DatasetBundle]] = {
    "three-d": lambda: three_d_clusters(seed=0),
    "x5": lambda: x5(seed=0),
    "bnc": lambda: bnc_surrogate(seed=0),
    "segmentation": lambda: segmentation_surrogate(seed=0),
    "cytometry": lambda: cytometry_surrogate(seed=0),
}

__all__ = [
    "DATASETS",
    "DatasetBundle",
    "gaussian_clusters",
    "random_centroid_clusters",
    "three_d_clusters",
    "x5",
    "adversarial_three_points",
    "adversarial_constraints_case_a",
    "adversarial_constraints_case_b",
    "runtime_dataset",
    "runtime_constraints",
    "bnc_surrogate",
    "GENRES",
    "segmentation_surrogate",
    "CLASSES",
    "cytometry_surrogate",
    "CHANNELS",
    "POPULATIONS",
    "downsample",
    "lift_selection",
]
