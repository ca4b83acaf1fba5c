"""Store-backed in-place maintenance shared by every overlay backend.

The delta publish pipeline needs three operations from an overlay —
patch live entries in place, retract dead ones, extend a grown sphere's
replica set (the maintenance part of :class:`repro.overlay.base.Overlay`).
Because all
backends store entries as shared :class:`repro.index.LevelStore` rows
with per-node memberships, the first two are backend-independent: find
the holders of the touched rows, send each one batched scalar
``PUBLISH_DELTA`` traffic, and mutate the store once. Only
``extend_replication`` depends on the backend's geometry (zone
adjacency for CAN, Morton interval covers for ring/BATON, region
intersection for VBI, XOR cell owners for Kademlia), so it stays
abstract here.

Message sizing matches the original CAN implementation this logic was
hoisted from: one ``PUBLISH_DELTA`` per holder, ``HEADER_BYTES`` plus
three scalars per patched sphere (entry id, new radius, new item count)
or one scalar per retracted entry id.
"""

from __future__ import annotations

from repro import runtime
from repro.net.messages import BYTES_PER_SCALAR, HEADER_BYTES, MessageKind
from repro.overlay.base import Overlay


class StoreMaintenancePlane(Overlay):
    """An :class:`Overlay` with maintenance over shared-store row memberships.

    Base for overlays exposing ``self._nodes`` (``{id: node}`` with
    ``.membership`` row sets), ``self.node(id)``, ``self.level_store``,
    and ``self.fabric``. Of the maintenance operations, subclasses
    implement only :meth:`~repro.overlay.base.Overlay.extend_replication`.
    """

    def patch_entries(
        self, origin: int, patches: list
    ) -> tuple[int, int]:
        """Update published entries in place from node ``origin``.

        ``patches`` is a list of ``(entry_id, radius, value)`` triples for
        *live* entries whose keys are unchanged (the delta pipeline only
        patches spheres whose centroid stayed put). Every node holding any
        patched row receives **one** batched ``PUBLISH_DELTA`` message
        carrying scalar fields only — entry id, new radius, new item
        count per sphere — so a patch costs a fraction of the key-vector
        traffic a tombstone + re-insert round would. Rows whose radius
        grew are then propagated to newly overlapped nodes via
        :meth:`extend_replication`.

        Returns ``(patch_hops, replica_hops)``.
        """
        if not patches:
            return (0, 0)
        with runtime.current.flight.operation("patch", origin=origin):
            store = self.level_store
            rows = [store.row_of(entry_id) for entry_id, __, __ in patches]
            row_set = set(rows)
            holders_by_row: dict[int, list[int]] = {row: [] for row in row_set}
            holder_counts: dict[int, int] = {}
            for node_id in self._nodes:
                membership = self.node(node_id).membership
                held = [row for row in row_set if row in membership]
                if not held:
                    continue
                holder_counts[node_id] = len(held)
                for row in held:
                    holders_by_row[row].append(node_id)
            patch_hops = 0
            for holder_id, count in holder_counts.items():
                if holder_id == origin:
                    continue  # patching a locally held row is free
                size = HEADER_BYTES + 3 * BYTES_PER_SCALAR * count
                self.fabric.transmit(
                    origin, holder_id, MessageKind.PUBLISH_DELTA, size
                )
                patch_hops += 1
            grown: list[int] = []
            for (entry_id, radius, value), row in zip(
                patches, rows, strict=True
            ):
                if float(radius) > store.radius_of(row):
                    grown.append(row)
                store.update_entry(entry_id, radius=radius, value=value)
            replica_hops = 0
            if grown:
                for row in grown:
                    added = self.extend_replication(
                        row, holders_by_row[row] or [origin]
                    )
                    replica_hops += len(added)
            self.fabric.finish_operation(
                MessageKind.PUBLISH_DELTA, patch_hops + replica_hops
            )
        return (patch_hops, replica_hops)

    def retract_entries(self, origin: int, entry_ids: list) -> int:
        """Remove published entries from node ``origin``; returns hops.

        The delta pipeline's removal plane: every node holding any doomed
        row gets one batched ``PUBLISH_DELTA`` message listing the entry
        ids to drop (scalar payload only), then the entries are removed
        everywhere through the store's tombstone machinery and the store
        compacts if past threshold.
        """
        if not entry_ids:
            return 0
        with runtime.current.flight.operation("retract", origin=origin):
            store = self.level_store
            rows = {
                store.row_of(entry_id)
                for entry_id in entry_ids
                if store.has_entry(entry_id)
            }
            hops = 0
            for node_id in self._nodes:
                membership = self.node(node_id).membership
                count = sum(1 for row in rows if row in membership)
                if count == 0 or node_id == origin:
                    continue
                size = HEADER_BYTES + BYTES_PER_SCALAR * count
                self.fabric.transmit(
                    origin, node_id, MessageKind.PUBLISH_DELTA, size
                )
                hops += 1
            for entry_id in entry_ids:
                store.remove_entry(entry_id)
            store.maybe_compact()
            self.fabric.finish_operation(MessageKind.PUBLISH_DELTA, hops)
        return hops
