"""Zone and peer load accounting: who pays for dissemination, and how unevenly.

Two halves:

* :class:`LoadLedger` — an always-on per-fabric-node traffic ledger the
  :class:`repro.net.network.Network` charges on every transmit (messages
  and bytes in/out, retransmits, duplicates, drops) plus query-hit marks
  from the overlay flood path. Dict bumps only — the same cost class as
  the energy ledger that already runs on every hop.
* :func:`build_loadmap` — fuses the ledger with overlay geometry
  (zones, store rows held), the :class:`~repro.net.energy.EnergyLedger`,
  and the level stores' generation counters into one generation-tagged
  snapshot: per-zone and per-peer rows, top-k hotspot rankings, and
  Gini / max-over-mean skew statistics. This is the signal ROADMAP's
  load-aware replication and GeoP2P-style zone rebalancing consume.

The ledger is deliberately dependency-free (it knows nothing about CAN
or Hyper-M); ``build_loadmap`` reads a
:class:`repro.core.network.HyperMNetwork` through its attributes only
and imports nothing from ``repro.core``, so there is no import cycle
between ``repro.obs`` and ``repro.core``.
"""

from __future__ import annotations

from repro.utils.stats import gini


class NodeLoad:
    """Traffic counters for one fabric node."""

    __slots__ = (
        "msgs_in", "msgs_out", "bytes_in", "bytes_out",
        "retransmits", "duplicates", "drops", "query_hits",
    )

    def __init__(self) -> None:
        self.msgs_in = 0
        self.msgs_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.retransmits = 0
        self.duplicates = 0
        self.drops = 0
        self.query_hits = 0

    @property
    def bytes_total(self) -> int:
        """Bytes moved through this node's radio in either direction."""
        return self.bytes_in + self.bytes_out

    def to_record(self) -> dict:
        """JSON-safe flat counters."""
        return {
            "msgs_in": self.msgs_in,
            "msgs_out": self.msgs_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
            "drops": self.drops,
            "query_hits": self.query_hits,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NodeLoad(in={self.msgs_in}, out={self.msgs_out}, "
            f"bytes={self.bytes_total})"
        )


class LoadLedger:
    """Per-node traffic ledger, charged by the fabric on every transmit."""

    __slots__ = ("per_node",)

    def __init__(self) -> None:
        self.per_node: dict[int, NodeLoad] = {}

    def _slot(self, node_id: int) -> NodeLoad:
        slot = self.per_node.get(node_id)
        if slot is None:
            slot = NodeLoad()
            self.per_node[node_id] = slot
        return slot

    def charge(
        self,
        source: int,
        destination: int,
        size_bytes: int,
        *,
        retransmits: int = 0,
        duplicates: int = 0,
        dropped: bool = False,
    ) -> None:
        """Account one transmit: the primary frame plus tagged extras.

        Retransmits and duplicates burn radio on both endpoints (their
        bytes are included in the in/out totals) but are also counted in
        their own buckets so hotspot reports can separate useful traffic
        from fault-induced overhead. A dropped frame still costs the
        sender its transmission; the receiver never gets it.
        """
        frames = 1 + retransmits + duplicates
        src = self._slot(source)
        src.msgs_out += frames
        src.bytes_out += size_bytes * frames
        src.retransmits += retransmits
        src.duplicates += duplicates
        dst = self._slot(destination)
        if dropped:
            src.drops += 1
            dst.drops += 1
        else:
            dst.msgs_in += frames
            dst.bytes_in += size_bytes * frames
        dst.retransmits += retransmits
        dst.duplicates += duplicates

    def charge_bulk(self, sent, received, size_bytes: int) -> None:
        """Account many equal-sized delivered frames at once.

        The bulk-construction counterpart of :meth:`charge`: ``sent`` /
        ``received`` are each ``(ids, counts)`` — every distinct endpoint
        and its frame count, collapsed once by the fabric for every
        ledger — and per-node totals land in the same counters: O(nodes),
        not O(frames). Bulk traffic is clean by construction — no
        retransmits, duplicates, or drops.
        """
        for node_id, count in zip(*sent):
            slot = self._slot(node_id)
            slot.msgs_out += count
            slot.bytes_out += size_bytes * count
        for node_id, count in zip(*received):
            slot = self._slot(node_id)
            slot.msgs_in += count
            slot.bytes_in += size_bytes * count

    def note_query_hit(self, node_id: int, n: int = 1) -> None:
        """Mark ``node_id`` as visited by a range-query flood."""
        self._slot(node_id).query_hits += n

    def node_load(self, node_id: int) -> NodeLoad:
        """Counters for ``node_id`` (zeroed when never touched)."""
        return self.per_node.get(node_id) or NodeLoad()

    def snapshot(self) -> dict:
        """Ledger-wide totals (per-node detail lives in the loadmap)."""
        return {
            "nodes": len(self.per_node),
            "msgs": sum(s.msgs_out for s in self.per_node.values()),
            "bytes": sum(s.bytes_out for s in self.per_node.values()),
            "retransmits": sum(
                s.retransmits for s in self.per_node.values()
            ),
            "duplicates": sum(
                s.duplicates for s in self.per_node.values()
            ),
            "drops": sum(s.drops for s in self.per_node.values()),
            "query_hits": sum(
                s.query_hits for s in self.per_node.values()
            ),
        }


def _skew(values: list[float]) -> dict:
    """Gini + max-over-mean for one load dimension."""
    n = len(values)
    mean = sum(values) / n if n else 0.0
    peak = max(values) if values else 0.0
    return {
        "gini": gini(values),
        "max": peak,
        "mean": mean,
        "max_over_mean": (peak / mean) if mean > 0 else 0.0,
    }


def build_loadmap(network, *, top_k: int = 10) -> dict:
    """One generation-tagged load snapshot of a Hyper-M network.

    Parameters
    ----------
    network:
        A :class:`repro.core.network.HyperMNetwork`: its ``overlays``,
        shared ``fabric``, ``peers`` and peer-to-overlay-node table.
    top_k:
        Hotspot ranking depth.

    Returns a plain dict (see ``docs/observability.md`` for the schema)::

        {"generations": {level: store_generation},
         "zones":  [{level, node, peer, zones, volume, store_rows,
                     msgs_in, ..., energy}, ...],
         "peers":  [{peer, online, nodes, store_rows, msgs_in, ...,
                     energy}, ...],
         "sphere_heat": {level: {total, spheres,
                                 "top": top-k [{entry_id, heat, peer}]}},
         "hotspots": {"zones": top-k by bytes, "peers": top-k},
         "skew": {"zone_bytes": {gini, max, mean, max_over_mean},
                  "zone_rows": ..., "peer_bytes": ..., "peer_energy": ...}}

    Zone rows are per (level, overlay-node); peer rows aggregate each
    peer's nodes across every level. Both are sorted by their ids so two
    snapshots of the same state diff cleanly.

    On zoneless overlays (ring, BATON, VBI, Kademlia — anything with
    ``zone_geometry`` False) the ``zones`` section, its hotspot ranking
    and its skew statistics are simply empty; peer rows and peer skew
    are always present, computed from the same per-node ledger records.
    """
    fabric = network.fabric
    ledger = fabric.load
    energy = fabric.energy

    node_peer: dict[int, int] = {
        node_id: peer_id
        for (level, peer_id), node_id in network._overlay_node.items()
    }

    zone_rows: list[dict] = []
    peer_rows: dict[int, dict] = {}
    generations: dict[str, int] = {}
    sphere_heat: dict[str, dict] = {}
    for level, overlay in network.overlays.items():
        store = overlay.level_store
        generations[str(level)] = int(store.generation)
        heat = store.sphere_heat()
        top = sorted(
            heat.items(), key=lambda pair: (-pair[1], pair[0])
        )[:top_k]
        publishers = store.column_block(
            [store.row_of(entry_id) for entry_id, __ in top]
        ).peer_ids.tolist()
        sphere_heat[str(level)] = {
            "total": int(sum(heat.values())),
            "spheres": len(heat),
            "top": [
                {"entry_id": entry_id, "heat": count, "peer": peer}
                for (entry_id, count), peer in zip(
                    top, publishers, strict=True
                )
            ],
        }
        # Zone rows only exist where the overlay partitions the key space
        # into geometric zones (CAN); zoneless substrates (ring arcs,
        # tree ranges, XOR buckets) contribute no zone rows rather than
        # fabricated zero-volume ones. Per-peer aggregation below always
        # runs from the same per-node records, so peer rows and their
        # skew statistics stay complete on every backend.
        has_zones = overlay.zone_geometry
        for node_id in sorted(overlay.node_ids):
            node = overlay.node(node_id)
            row = {
                "level": str(level),
                "node": node_id,
                "peer": node_peer.get(node_id),
                "zones": len(node.zones) if has_zones else 0,
                "volume": float(node.volume) if has_zones else 0.0,
                "store_rows": node.load,
                "energy": energy.node_energy(node_id),
                **ledger.node_load(node_id).to_record(),
            }
            if has_zones:
                zone_rows.append(row)
            peer_id = row["peer"]
            if peer_id is None:
                continue
            slot = peer_rows.setdefault(peer_id, {
                "peer": peer_id,
                "online": network.peers[peer_id].online,
                "nodes": 0, "store_rows": 0, "energy": 0.0,
                "msgs_in": 0, "msgs_out": 0,
                "bytes_in": 0, "bytes_out": 0,
                "retransmits": 0, "duplicates": 0, "drops": 0,
                "query_hits": 0,
            })
            slot["nodes"] += 1
            slot["store_rows"] += row["store_rows"]
            slot["energy"] += row["energy"]
            for key in (
                "msgs_in", "msgs_out", "bytes_in", "bytes_out",
                "retransmits", "duplicates", "drops", "query_hits",
            ):
                slot[key] += row[key]

    peers = [peer_rows[pid] for pid in sorted(peer_rows)]

    def bytes_total(row: dict) -> int:
        return row["bytes_in"] + row["bytes_out"]

    hot_zones = sorted(
        zone_rows, key=lambda r: (-bytes_total(r), r["node"])
    )[:top_k]
    hot_peers = sorted(
        peers, key=lambda r: (-bytes_total(r), r["peer"])
    )[:top_k]
    return {
        "generations": generations,
        "zones": zone_rows,
        "peers": peers,
        "sphere_heat": sphere_heat,
        "hotspots": {
            "zones": [
                {
                    "level": r["level"], "node": r["node"],
                    "peer": r["peer"], "bytes": bytes_total(r),
                    "store_rows": r["store_rows"],
                    "query_hits": r["query_hits"],
                }
                for r in hot_zones
            ],
            "peers": [
                {
                    "peer": r["peer"], "bytes": bytes_total(r),
                    "store_rows": r["store_rows"],
                    "energy": r["energy"],
                }
                for r in hot_peers
            ],
        },
        "skew": {
            "zone_bytes": _skew([float(bytes_total(r)) for r in zone_rows]),
            "zone_rows": _skew([float(r["store_rows"]) for r in zone_rows]),
            "peer_bytes": _skew([float(bytes_total(r)) for r in peers]),
            "peer_energy": _skew([float(r["energy"]) for r in peers]),
        },
    }
