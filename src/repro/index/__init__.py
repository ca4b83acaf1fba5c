"""The columnar level-store engine.

One :class:`LevelStore` per overlay level holds every published entry in
contiguous columnar arrays; overlay nodes hold :class:`NodeMembership`
row-index sets into the shared store, and range queries return
:class:`CandidateSet` handles that the Eq. 1 scoring layer consumes
without re-stacking. See ``docs/architecture.md`` for the design.
"""

from repro.index.store import (
    CandidateSet,
    CellDirectory,
    ColumnBlock,
    Hits,
    LevelStore,
    NodeMembership,
)

__all__ = [
    "CandidateSet",
    "CellDirectory",
    "ColumnBlock",
    "Hits",
    "LevelStore",
    "NodeMembership",
]
