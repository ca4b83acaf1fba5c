"""Row-level reads of a ``LevelStore`` (test helpers).

Nodes hold row indices into their overlay's shared ``LevelStore`` and
queries return ``CandidateSet`` row snapshots; there are no entry
objects to iterate. Tests that ask "which payloads does this node hold",
or that feed the scalar oracle its entry objects, go through here.
"""

from __future__ import annotations

from repro.overlay.base import StoredEntry


def held_values(overlay, node_id: int) -> list:
    """Payloads of the rows ``node_id`` holds, in row order."""
    store = overlay.level_store
    return [
        store.value_of(row) for row in overlay.node(node_id).membership.rows()
    ]


def scalar_entries(candidates) -> list[StoredEntry]:
    """The candidate rows as entry objects, for ``level_scores_scalar``."""
    store = candidates.store
    return [
        StoredEntry(
            key=store.key_of(row),
            radius=store.radius_of(row),
            value=store.value_of(row),
        )
        for row in candidates.rows
    ]
