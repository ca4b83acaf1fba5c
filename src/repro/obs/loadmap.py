"""Zone and peer load accounting: who pays for dissemination, and how unevenly.

:func:`build_loadmap` is a *reader* of the fabric's frame ledger
(:mod:`repro.net.metrics` — the per-node counter columns the fabric
writes once per frame, read as :class:`NodeLoad` records through
``fabric.load``, priced by ``fabric.energy``). It fuses those with
overlay geometry (zones, store rows held) and the level stores'
generation counters into one generation-tagged snapshot: per-zone and
per-peer rows, top-k hotspot rankings, and Gini / max-over-mean skew
statistics. This is the signal ROADMAP's load-aware replication and
GeoP2P-style zone rebalancing consume.

``build_loadmap`` reads a :class:`repro.core.network.HyperMNetwork`
through its attributes only and imports nothing from ``repro.core``, so
there is no import cycle between ``repro.obs`` and ``repro.core``.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.utils.stats import gini


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
        Hotspot ranking depth, >= 0.

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

    On zoneless overlays (BATON, VBI — anything with
    ``zone_geometry`` False) the ``zones`` section, its hotspot ranking
    and its skew statistics are simply empty; peer rows and peer skew
    are always present, computed from the same per-node ledger records.
    """
    if top_k < 0:
        raise ValidationError(f"top_k must be >= 0, got {top_k}")
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
        # into geometric zones (CAN); zoneless substrates (tree ranges)
        # contribute no zone rows rather than fabricated zero-volume ones.
        # Per-peer aggregation below always runs from the same per-node
        # records, so peer rows and their skew statistics stay complete
        # on every backend.
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
