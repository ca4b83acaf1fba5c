"""Store-backed node storage: the bridge between nodes and the level store.

An overlay node owns no entry objects. It holds a
:class:`repro.index.NodeMembership` — a set of row indices into the
overlay's shared :class:`repro.index.LevelStore` — and this mixin provides
the row-level storage surface every overlay node class shares
(``add_row`` / ``absorb_rows`` / ``load``). Reads go to the membership
itself (``rows_matching`` / ``intersecting_rows``), and whatever else a
caller wants of a held entry it reads from the store by row
(``key_of`` / ``radius_of`` / ``value_of`` / ``items_of``).

Nodes constructed inside an overlay are attached to the overlay's shared
store via :meth:`attach_store`; a node holds nothing before that.
"""

from __future__ import annotations

from repro.exceptions import OverlayError
from repro.index import LevelStore, NodeMembership


class StoreBackedNode:
    """Mixin giving an overlay node membership-based storage."""

    def _init_storage(self) -> None:
        self._level_store: LevelStore | None = None
        self.membership: NodeMembership | None = None

    # -- wiring ----------------------------------------------------------------

    def attach_store(self, store: LevelStore) -> None:
        """Join a shared level store (called by the overlay on join)."""
        if self.membership is not None and len(self.membership):
            raise OverlayError(
                "cannot attach a store to a node already holding entries"
            )
        self._level_store = store
        self.membership = store.new_membership()

    @property
    def level_store(self) -> LevelStore | None:
        """The backing store, or None before attachment."""
        return self._level_store

    # -- row surface (overlay protocols) ---------------------------------------

    def add_row(self, row: int) -> bool:
        """Hold one store row; False when already held."""
        return self.membership.add(row)

    def absorb_rows(self, rows) -> int:
        """Hold every row in ``rows`` not yet held; returns how many were new.

        Replica-safe by construction: membership is a set of rows, so a
        row absorbed twice (the old shared-``StoredEntry`` dedup problem)
        is held once.
        """
        return self.membership.add_many(rows)

    @property
    def load(self) -> int:
        """Number of held entries."""
        return 0 if self.membership is None else len(self.membership)
