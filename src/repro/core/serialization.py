"""Persist and restore peer summaries and level-store snapshots (JSON).

Building a summary — the wavelet decomposition plus one k-means run per
subspace — is the only computationally heavy step on a mobile device. The
paper's scenarios recur (the same commuters meet every morning; the same
attendees return after the coffee break), so a peer that persists its
summaries can rejoin a fresh overlay and publish *immediately*, skipping
step *i1*/*i2* entirely.

:func:`level_store_to_dict` / :func:`level_store_from_dict` snapshot one
level's columnar :class:`repro.index.LevelStore`. The stable entry ids are
part of the format: replication is multi-membership of one row, and the
network's dedup accounting is keyed by entry id, so a restored store must
present the same ids (``LevelStore.restore``) — not freshly minted ones —
for cross-snapshot references to stay valid.

The format is plain JSON (no pickle: summaries may be exchanged between
untrusted devices).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.clustering.spheres import ClusterSphere
from repro.clustering.summaries import PeerSummary
from repro.core.results import ClusterRecord
from repro.exceptions import ValidationError
from repro.index import LevelStore
from repro.wavelets.multiresolution import Level

#: Format tag written into every file; bump on incompatible changes.
FORMAT_VERSION = 1

#: Format tag for level-store snapshots; bump on incompatible changes.
STORE_FORMAT_VERSION = 1


def _level_to_token(level: Level) -> str:
    return str(level)


def _level_from_token(token: str) -> Level:
    if token == "A":
        return Level.approximation()
    if token.startswith("D") and token[1:].isdigit():
        return Level.detail(int(token[1:]))
    raise ValidationError(f"unknown level token {token!r}")


def summary_to_dict(summary: PeerSummary) -> dict:
    """Convert a :class:`PeerSummary` into a JSON-safe dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "dimensionality": summary.dimensionality,
        "levels": [_level_to_token(level) for level in summary.levels],
        "spheres": {
            _level_to_token(level): [
                {
                    "centroid": sphere.centroid.tolist(),
                    "radius": sphere.radius,
                    "items": sphere.items,
                }
                for sphere in spheres
            ]
            for level, spheres in summary.spheres.items()
        },
        "labels": {
            _level_to_token(level): labels.tolist()
            for level, labels in summary.labels.items()
        },
    }


def summary_from_dict(payload: dict) -> PeerSummary:
    """Rebuild a :class:`PeerSummary` from :func:`summary_to_dict` output."""
    if not isinstance(payload, dict):
        raise ValidationError("summary payload must be a dict")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported summary format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        levels = tuple(
            _level_from_token(token) for token in payload["levels"]
        )
        spheres = {
            _level_from_token(token): [
                ClusterSphere(
                    centroid=np.asarray(record["centroid"], dtype=np.float64),
                    radius=float(record["radius"]),
                    items=int(record["items"]),
                )
                for record in records
            ]
            for token, records in payload["spheres"].items()
        }
        labels = {
            _level_from_token(token): np.asarray(values, dtype=np.int64)
            for token, values in payload["labels"].items()
        }
        summary = PeerSummary(
            dimensionality=int(payload["dimensionality"]),
            levels=levels,
            spheres=spheres,
            labels=labels,
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed summary payload: {exc}") from exc
    _validate_summary(summary)
    return summary


def _validate_summary(summary: PeerSummary) -> None:
    """Consistency checks on a deserialised summary."""
    for level in summary.levels:
        if level not in summary.spheres:
            raise ValidationError(f"summary missing spheres for {level}")
        for sphere in summary.spheres[level]:
            if sphere.dimensionality != level.dimensionality:
                raise ValidationError(
                    f"sphere dimensionality {sphere.dimensionality} does "
                    f"not match level {level}"
                )


def _record_to_dict(value: object) -> dict:
    if isinstance(value, ClusterRecord):
        return {
            "kind": "cluster",
            "peer_id": value.peer_id,
            "items": value.items,
            "level_name": value.level_name,
        }
    raise ValidationError(
        f"cannot serialise entry value of type {type(value).__name__}; "
        "level-store snapshots carry ClusterRecord payloads"
    )


def _record_from_dict(payload: dict) -> ClusterRecord:
    if payload.get("kind") != "cluster":
        raise ValidationError(
            f"unknown entry value kind {payload.get('kind')!r}"
        )
    return ClusterRecord(
        peer_id=int(payload["peer_id"]),
        items=int(payload["items"]),
        level_name=str(payload["level_name"]),
    )


def level_store_to_dict(store: LevelStore) -> dict:
    """Snapshot one level's live entries as a JSON-safe dictionary.

    Tombstoned rows are dropped (a snapshot is implicitly compacted);
    live rows keep their stable entry ids so references keyed by entry id
    (replication dedup, charge accounting) survive the round trip.
    """
    entries = []
    for row in store.live_rows():
        entries.append(
            {
                "entry_id": store.entry_id_of(int(row)),
                "key": store.key_of(int(row)).tolist(),
                "radius": store.radius_of(int(row)),
                "value": _record_to_dict(store.value_of(int(row))),
            }
        )
    return {
        "store_format_version": STORE_FORMAT_VERSION,
        "dimensionality": store.dimensionality,
        "next_entry_id": store.next_entry_id,
        "entries": entries,
    }


def level_store_from_dict(payload: dict) -> LevelStore:
    """Rebuild a :class:`LevelStore` from :func:`level_store_to_dict` output.

    Entry ids are restored verbatim via :meth:`LevelStore.restore`, and the
    id allocator resumes past the snapshot's high-water mark so new entries
    can never collide with restored ones. Restored rows start with no
    memberships; overlay reconstruction re-attaches holders.
    """
    if not isinstance(payload, dict):
        raise ValidationError("level-store payload must be a dict")
    version = payload.get("store_format_version")
    if version != STORE_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported level-store format version {version!r} "
            f"(expected {STORE_FORMAT_VERSION})"
        )
    try:
        store = LevelStore(int(payload["dimensionality"]))
        for record in payload["entries"]:
            store.restore(
                record["entry_id"],
                np.asarray(record["key"], dtype=np.float64),
                float(record["radius"]),
                _record_from_dict(record["value"]),
            )
        floor = int(payload.get("next_entry_id", 0))
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"malformed level-store payload: {exc}"
        ) from exc
    store.reserve_ids_through(floor)
    return store


def save_level_store(store: LevelStore, path) -> None:
    """Write a level-store snapshot to ``path`` as JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(level_store_to_dict(store)))


def load_level_store(path) -> LevelStore:
    """Read a snapshot previously written by :func:`save_level_store`."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return level_store_from_dict(payload)


def save_summary(summary: PeerSummary, path) -> None:
    """Write a summary to ``path`` as JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(summary_to_dict(summary)))


def load_summary(path) -> PeerSummary:
    """Read a summary previously written by :func:`save_summary`."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return summary_from_dict(payload)
