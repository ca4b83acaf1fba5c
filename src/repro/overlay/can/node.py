"""A CAN member node: its zone(s), neighbour table, and local store.

A node normally owns exactly one zone. After a departure where no
mergeable zone pair exists (a "pinwheel" partition), the CAN protocol has
the takeover node *temporarily handle both zones*; such multi-zone nodes
heal on the next join, which hands a whole zone to the newcomer instead
of splitting.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OverlayError
from repro.overlay.can.zone import Zone
from repro.overlay.storage import StoreBackedNode


class CANNode(StoreBackedNode):
    """One CAN participant.

    Attributes
    ----------
    zones:
        The regions of key space this node owns (usually exactly one).
    neighbors:
        Mapping ``node_id -> tuple[Zone, ...]`` — snapshot of each
        neighbour's zone set, used for greedy routing and flooding.
    membership:
        Row indices (into the overlay's shared level store) of the entries
        this node holds: everything whose key falls in (or whose sphere
        overlaps) its zones.
    """

    def __init__(self, node_id: int, zone: Zone):
        self.node_id = node_id
        self.zones: list[Zone] = [zone]
        self.neighbors: dict[int, tuple[Zone, ...]] = {}
        self._init_storage()

    # -- zone geometry (over all owned zones) --------------------------------

    @property
    def zone(self) -> Zone:
        """The node's zone, when it owns exactly one (the normal state)."""
        if len(self.zones) != 1:
            raise OverlayError(
                f"node {self.node_id} owns {len(self.zones)} zones; "
                "use .zones"
            )
        return self.zones[0]

    @property
    def volume(self) -> float:
        """Total key-space volume owned."""
        return sum(zone.volume for zone in self.zones)

    def contains(self, point: np.ndarray) -> bool:
        """True when any owned zone contains ``point``."""
        return any(zone.contains(point) for zone in self.zones)

    def intersects_sphere(self, center: np.ndarray, radius: float) -> bool:
        """True when any owned zone meets the Euclidean ball."""
        return any(
            zone.intersects_sphere(center, radius) for zone in self.zones
        )

    # -- neighbour maintenance ----------------------------------------------

    def set_zones(self, zones: list[Zone]) -> None:
        """Adopt a new zone set (after a split, merge, or takeover)."""
        if not zones:
            raise OverlayError("a CAN node must own at least one zone")
        self.zones = list(zones)

    def set_zone(self, zone: Zone) -> None:
        """Adopt a single zone."""
        self.set_zones([zone])

    def add_neighbor(self, node_id: int, zones) -> None:
        """Record (or refresh) a neighbour's zone-set snapshot."""
        if isinstance(zones, Zone):
            zones = (zones,)
        self.neighbors[node_id] = tuple(zones)

    def remove_neighbor(self, node_id: int) -> None:
        """Forget a neighbour."""
        self.neighbors.pop(node_id, None)

    def is_neighbor_of(self, other: "CANNode") -> bool:
        """CAN neighbour relation over zone sets: any abutting zone pair."""
        return any(
            a.is_neighbor(b) for a in self.zones for b in other.zones
        )

    # -- storage --------------------------------------------------------------
    # Inherited from StoreBackedNode: membership rows into the overlay's
    # shared level store.
