"""CAN overlay: zones, greedy routing and the zone flood.

The Content-Addressable Network [Ratnasamy et al., SIGCOMM 2001] partitions
a ``[0,1]^m`` torus into zones, one per node. New nodes join by splitting
the zone owning a random point; routing greedily forwards to the neighbour
whose zone is closest (torus metric) to the target. Inserts, sphere
replication and hand-overs are the store-backed base's
(:mod:`repro.overlay.maintenance`); CAN supplies the geometry.
"""

from repro.overlay.can.bulk import (
    BulkPublishReport,
    GridPlan,
    build_grid_can,
    bulk_publish,
    grid_shape,
)
from repro.overlay.can.network import CANNetwork
from repro.overlay.can.node import CANNode
from repro.overlay.can.zone import Zone

__all__ = [
    "BulkPublishReport",
    "CANNetwork",
    "CANNode",
    "GridPlan",
    "Zone",
    "build_grid_can",
    "bulk_publish",
    "grid_shape",
]
