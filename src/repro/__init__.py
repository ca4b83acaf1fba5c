"""Hyper-M: clustering wavelets for fast data dissemination in P2P MANETs.

A from-scratch reproduction of Lupu, Li, Ooi, Shi — *Clustering wavelets to
speed-up data dissemination in structured P2P MANETs*, ICDE 2007.

Public API highlights
---------------------
* :mod:`repro.wavelets` — averaging-Haar and orthonormal DWT engines.
* :mod:`repro.clustering` — k-means and cluster-sphere summaries.
* :mod:`repro.geometry` — hypersphere intersection volumes, ε-inversion.
* :mod:`repro.overlay` — a full CAN overlay on the :mod:`repro.net` fabric.
* :mod:`repro.core` — the Hyper-M network: publish, range and k-NN search.
* :mod:`repro.datasets` — the paper's synthetic workloads.
* :mod:`repro.evaluation` — experiment runners for every figure.
"""

__version__ = "1.0.0"

from repro.core import (
    CentralizedIndex,
    HyperMConfig,
    HyperMNetwork,
    HyperMPeer,
)
from repro.exceptions import (
    ClusteringError,
    ConvergenceError,
    DimensionalityError,
    EmptyNetworkError,
    OverlayError,
    QueryError,
    ReproError,
    RoutingError,
    ValidationError,
)

__all__ = [
    "__version__",
    "HyperMNetwork",
    "HyperMConfig",
    "HyperMPeer",
    "CentralizedIndex",
    "ReproError",
    "ValidationError",
    "DimensionalityError",
    "OverlayError",
    "RoutingError",
    "EmptyNetworkError",
    "ClusteringError",
    "ConvergenceError",
    "QueryError",
]
