"""Structured P2P overlays.

:mod:`repro.overlay.can` is a full CAN implementation [Ratnasamy et al.,
SIGCOMM 2001] — the overlay the paper evaluates on: a ``[0,1]^m`` torus key
space partitioned into zones, greedy routing over neighbour tables, zone
replication for non-zero-sized (sphere) objects (paper Figure 6), and the
departure protocol (zone merge / sibling-pair handoff / temporary
multi-zone takeover).

The paper's two other named substrates back its overlay-independence
claim:

* :mod:`repro.overlay.baton` — BATON [Jagadish, Ooi, Vu, VLDB 2005], the
  balanced tree overlay, indexing multi-dimensional keys through the
  Z-order helpers of :mod:`repro.overlay.morton`;
* :mod:`repro.overlay.vbi` — the VBI-tree [ICDE 2006]: a distributed
  KD-tree with virtual internal nodes that partitions the
  multi-dimensional space directly.

In-place delta publication is part of the :class:`Overlay` contract;
load adaptation (:mod:`repro.overlay.adapt`) runs on CAN's zones only.
:mod:`repro.overlay.registry` maps CLI names to backends.
"""

from repro.overlay.base import (
    InsertReceipt,
    Overlay,
    RangeReceipt,
    StoredEntry,
)
from repro.overlay.baton import BatonNetwork
from repro.overlay.can import CANNetwork, Zone
from repro.overlay.registry import (
    OVERLAYS,
    overlay_names,
    resolve_overlay,
)
from repro.overlay.vbi import VBITree

__all__ = [
    "Overlay",
    "StoredEntry",
    "InsertReceipt",
    "RangeReceipt",
    "CANNetwork",
    "Zone",
    "BatonNetwork",
    "VBITree",
    "OVERLAYS",
    "overlay_names",
    "resolve_overlay",
]
