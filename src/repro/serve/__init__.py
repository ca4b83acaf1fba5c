"""The concurrent query-serving tier.

An asyncio front door over :class:`repro.core.network.HyperMNetwork`:
admission control with explicit shedding, batch coalescing into stacked
per-level intersection passes, a generation-keyed candidate cache,
k-NN top-k early termination, and an open-loop load generator. See
``docs/serving.md``.
"""

from repro.serve.batch import StoreSource
from repro.serve.cache import CandidateCache, candidate_key
from repro.serve.engine import (
    KnnRequest,
    RangeRequest,
    ServeConfig,
    ServeEngine,
    ServeResponse,
)
from repro.serve.loadgen import LoadReport, run_open_loop

__all__ = [
    "CandidateCache",
    "KnnRequest",
    "LoadReport",
    "RangeRequest",
    "ServeConfig",
    "ServeEngine",
    "ServeResponse",
    "StoreSource",
    "candidate_key",
    "run_open_loop",
]
