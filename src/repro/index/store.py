"""Columnar, generation-versioned storage for one overlay level's entries.

The seed implementation kept a Python ``list[StoredEntry]`` per node:
every index-phase range query walked the visited nodes' lists calling
``entry.intersects`` once per entry, and the scoring layer re-stacked the
surviving list into arrays behind an ``id()``-keyed cache. This module
replaces that layout with one shared, versioned store per overlay level:

* **Columns** — keys ``(n, d)``, radii, item counts, peer ids, squared key
  norms, and stable monotonically-assigned entry ids live in contiguous
  NumPy arrays that grow geometrically. The columnar block *is* the store;
  scoring gathers the candidate rows directly instead of re-stacking
  Python objects.
* **Membership** — a node no longer owns entry objects. It owns a
  :class:`NodeMembership`: a set of row indices into the shared store.
  Replication is multi-membership of one row, and the store refcounts
  memberships per row, so an entry dies (is tombstoned) exactly when the
  last node holding it lets go — the behaviour per-node lists gave for
  free, without duplicating the data. A bulk-built overlay may hold
  rows for nodes it has not built yet (:meth:`LevelStore.defer_rows`);
  such holdings are refcounted like memberships until they land.
* **Tombstones + compaction** — deletion marks rows dead; when the dead
  fraction passes a threshold, :meth:`LevelStore.maybe_compact` rewrites
  the columns densely and remaps every registered membership in place.
* **Generations** — every mutation bumps :attr:`LevelStore.generation`.
  A :class:`CandidateSet` (store ref + row indices + generation) snapshot
  can therefore *detect* staleness instead of assuming liveness — the
  property the old ``id()``-keyed stack cache silently lacked.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

from repro.exceptions import StaleCandidateError, ValidationError
from repro.geometry.batch import spheres_intersect_batch
from repro.utils.validation import check_count

#: Initial column capacity (rows) of an empty store.
_INITIAL_CAPACITY = 64

#: Entry ids a store can map (8 B per id in the span: at most 1 GiB).
_MAX_ENTRY_IDS = 1 << 27

#: Width of the exact re-resolution band around sphere boundaries (see
#: :meth:`CellDirectory.hits`); module-level so the scan kernel, the
#: serve tier's stacked :meth:`LevelStore.intersection_masks` and the
#: peer-side prefilter (:meth:`repro.core.peer.HyperMPeer.range_search`)
#: share it.
_BOUNDARY_BAND = 1e-5

#: Compaction triggers when tombstones exceed this fraction of used rows…
_COMPACT_FRACTION = 0.25

#: …and at least this many rows are dead (tiny stores never bother).
_COMPACT_MIN_TOMBSTONES = 64

#: Columns shorter than this get no cell grid: one pass over the rows as
#: they lie costs less than picking cells, gathering and scattering
#: (measured break-even: 4–8k rows at d = 1…4 with ~0.1-wide queries).
_DIRECTORY_MIN_ROWS = 4096

#: Rows per :class:`CellDirectory` grid cell the cell count aims for.
_DIRECTORY_CELL_ROWS = 16

#: The store columns a :class:`CellDirectory` keeps, in its argument order.
_DIRECTORY_COLUMNS = ("_keys", "_key_sq", "_radii", "_live", "_items",
                      "_peer_ids")


@dataclass(frozen=True)
class ColumnBlock:
    """A raw scoring block: ``radii``, ``items``, ``peer_ids``, ``keys``
    and ``key_sq`` of some gathered rows.

    The free-standing twin of :meth:`CandidateSet.columns`:
    :func:`repro.core.scoring.level_scores` scores it exactly as it
    scores a candidate set — same arrays, same kernel.
    """

    radii: np.ndarray
    items: np.ndarray
    peer_ids: np.ndarray
    keys: np.ndarray
    key_sq: np.ndarray

    def __len__(self) -> int:
        return int(self.radii.shape[0])

    def columns(self):
        """``(keys, radii, items, peer_ids, key_sq)`` — scoring order."""
        return self.keys, self.radii, self.items, self.peer_ids, self.key_sq


class Hits(NamedTuple):
    """One query's scan of a :class:`CellDirectory`, in scan order.

    ``positions`` index the directory's read-only columns, ``dists`` are
    those rows' centre distances (one per hit) and ``scanned`` counts the
    rows the scan looked at.
    """

    directory: "CellDirectory"
    positions: np.ndarray
    dists: np.ndarray
    scanned: int


class CellDirectory:
    """Scan columns in grid-cell order, so a query scans only nearby rows.

    Paper §4 needs only the stored spheres whose centre lies within
    ``r + ρ`` of the query key. The directory buckets the rows of one
    consistent set of ``keys / key_sq / radii / live / items /
    peer_ids`` columns on a uniform power-of-two grid over the unit key
    cube (cells per axis dealt round-robin from axis 0, about
    :data:`_DIRECTORY_CELL_ROWS` rows a cell; keys outside the cube land
    in the face cells), keeps cell-ordered copies of the columns, the
    permutation ``rows`` back to the caller's row order and a CSR
    ``offsets`` table over the row-major cell codes. :meth:`hits` then
    runs the one scan kernel over the cells meeting the query ball's
    bounding box.

    Constructed directly it is the one-cell *identity* directory over
    the given arrays — no copies, ``rows`` is ``None``, every query
    scans every row; :meth:`build` copies the columns and grids them
    from :data:`_DIRECTORY_MIN_ROWS` rows up. Either way it is a
    snapshot the owner rebuilds when the columns change, never patches:
    every array it holds is a read-only view, so what a :class:`Hits`
    points into cannot move under it.
    """

    __slots__ = ("keys", "key_sq", "radii", "live", "items", "peer_ids",
                 "rows", "shape", "offsets", "reach")

    def __init__(self, keys: np.ndarray, key_sq: np.ndarray,
                 radii: np.ndarray, live: np.ndarray, items: np.ndarray,
                 peer_ids: np.ndarray):
        (self.keys, self.key_sq, self.radii, self.live, self.items,
         self.peer_ids) = map(_frozen, (keys, key_sq, radii, live, items,
                                        peer_ids))
        self.rows: np.ndarray | None = None
        #: Cells per gridded axis (the leading ``len(shape)`` axes).
        self.shape: tuple[int, ...] = ()
        self.offsets = _frozen(np.array([0, keys.shape[0]], dtype=np.int64))
        #: How far past the query radius a stored centre can still hit.
        self.reach = 0.0

    @classmethod
    def build(cls, keys: np.ndarray, key_sq: np.ndarray, radii: np.ndarray,
              live: np.ndarray, items: np.ndarray,
              peer_ids: np.ndarray) -> "CellDirectory":
        """Copies of the columns; gridded from the row floor up."""
        columns = (keys, key_sq, radii, live, items, peer_ids)
        n, d = keys.shape
        if n < _DIRECTORY_MIN_ROWS:
            return cls(*(np.array(column) for column in columns))
        bits = (n // _DIRECTORY_CELL_ROWS).bit_length() - 1
        base, extra = divmod(bits, d)
        shape = tuple(
            2 ** (base + (axis < extra)) for axis in range(min(d, bits))
        )
        cells = _cell_coords(keys[:, : len(shape)], shape)
        codes = cells[:, 0]
        for axis in range(1, len(shape)):
            codes = codes * shape[axis] + cells[:, axis]
        # Stable, so a cell's rows stay in ascending row order.
        order = np.argsort(codes, kind="stable")
        directory = cls(*(column[order] for column in columns))
        directory.rows = _frozen(order)
        directory.shape = shape
        offsets = np.zeros(2 ** bits + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes, minlength=2 ** bits), out=offsets[1:])
        directory.offsets = _frozen(offsets)
        directory.reach = _BOUNDARY_BAND + float(
            radii.max(where=live, initial=0.0)
        )
        return directory

    @property
    def n_cells(self) -> int:
        """Grid cells (1 for the identity directory)."""
        return int(self.offsets.size) - 1

    def _meeting(self, center: np.ndarray, radius: float):
        """Positions of the rows in cells meeting the query ball's box.

        The cells meeting ``center ± (radius + reach)`` are one
        contiguous run of cell codes per combination of the leading
        axes: a slice when that is a single run, else the runs'
        positions concatenated.
        """
        shape = self.shape
        k = len(shape)
        everything = slice(0, int(self.offsets[-1]))
        if k == 0:
            return everything
        reach = radius + self.reach
        lo = _cell_coords(center[:k] - reach, shape).tolist()
        hi = _cell_coords(center[:k] + reach, shape).tolist()
        # A trailing axis the box spans whole only lengthens the runs
        # of the axis before it.
        fold = 1
        while k and lo[k - 1] == 0 and hi[k - 1] == shape[k - 1] - 1:
            k -= 1
            fold *= shape[k]
        if k == 0:
            return everything
        heads = np.zeros(1, dtype=np.int64)
        for axis in range(k - 1):
            heads = (
                heads[:, None] * shape[axis]
                + np.arange(lo[axis], hi[axis] + 1)
            ).ravel()
        heads *= shape[k - 1] * fold
        begin = self.offsets[heads + lo[k - 1] * fold]
        end = self.offsets[heads + (hi[k - 1] + 1) * fold]
        if begin.size == 1:
            return slice(int(begin[0]), int(end[0]))
        lengths = end - begin
        stops = np.cumsum(lengths)
        return np.repeat(begin - (stops - lengths), lengths) + np.arange(
            stops[-1]
        )

    def _scan(self, center: np.ndarray, radius: float):
        """The one scan kernel: ``(sel, hit, dist)`` over the rows ``sel``
        in cells meeting the query ball's box.

        The level store, the shard workers and the gathered-rows filter
        all land here, through :meth:`hits` or :meth:`mask`. One BLAS
        pass ``k·k − 2k·c + c·c`` over the selected rows; distances
        within :data:`_BOUNDARY_BAND` of a sphere boundary are recomputed
        exactly, because the expansion loses ~sqrt(eps·d) absolute
        accuracy to cancellation (an exact-match point lookup gives
        ~1e-8 instead of 0), far coarser than the 1e-12
        ``INTERSECTION_SLACK``; so ``hit`` matches the scalar
        ``StoredEntry.intersects`` oracle. Tombstones never hit.
        """
        center = np.asarray(center, dtype=np.float64)
        radius = float(radius)
        sel = self._meeting(center, radius)
        keys = _pick(self.keys, sel)
        radii = _pick(self.radii, sel)
        # One column: a product per row is the gemv's value (at most a
        # zero's sign apart, which the subtraction drops).
        dots = keys[:, 0] * center[0] if keys.shape[1] == 1 else keys @ center
        d2 = _pick(self.key_sq, sel) - 2.0 * dots
        d2 += float(center @ center)
        np.maximum(d2, 0.0, out=d2)
        dist = np.sqrt(d2, out=d2)
        near = np.abs(dist - (radii + radius)) <= _BOUNDARY_BAND
        if near.any():
            diff = keys[near] - center
            dist[near] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        hit = spheres_intersect_batch(radii, radius, dist)
        hit &= _pick(self.live, sel)
        return sel, hit, dist

    def hits(self, center: np.ndarray, radius: float) -> Hits:
        """The rows whose spheres meet the query ball, in scan order."""
        sel, hit, dist = self._scan(center, radius)
        found = np.flatnonzero(hit)
        positions = (
            found + sel.start if isinstance(sel, slice) else sel.take(found)
        )
        return Hits(self, positions, dist[found], hit.size)

    def mask(self, center: np.ndarray, radius: float) -> tuple[np.ndarray, int]:
        """The dense form of :meth:`hits`: ``(bool per caller row, rows
        scanned)``."""
        sel, hit, __ = self._scan(center, radius)
        out = np.zeros(self.live.shape[0], dtype=bool)
        out[sel if self.rows is None else _pick(self.rows, sel)] = hit
        return out, hit.size


def _frozen(column: np.ndarray) -> np.ndarray:
    """A read-only view of ``column`` (the caller's array stays writable)."""
    view = column.view()
    view.flags.writeable = False
    return view


def _pick(column: np.ndarray, sel) -> np.ndarray:
    """``column[sel]``: a view for a slice, ``take`` for positions (several
    times faster than fancy-indexing the rows of a 2-D column)."""
    if isinstance(sel, slice):
        return column[sel]
    return column.take(sel, axis=0)


def _bulk_column(values, n: int, dtype, name: str) -> np.ndarray:
    """One per-row column of a bulk batch: a scalar or exactly ``n`` values."""
    column = np.asarray(values, dtype=dtype)
    if column.ndim and column.shape != (n,):
        raise ValidationError(
            f"{name} has shape {column.shape}; expected a scalar or ({n},)"
        )
    return np.broadcast_to(column, (n,))


def _cell_coords(points: np.ndarray, shape: tuple) -> np.ndarray:
    """Grid cell per axis of ``points``, clamped to the face cells.

    Monotone in every coordinate, which is what makes the box test in
    :meth:`CellDirectory._meeting` conservative. ``fmax``/``fmin``
    (not ``clip``) so a NaN coordinate picks cell 0 instead of an
    undefined integer — its distance is NaN and never intersects.
    """
    shape = np.asarray(shape, dtype=np.float64)
    cells = np.floor(points * shape)
    return np.fmin(np.fmax(cells, 0.0), shape - 1.0).astype(np.int64)


class NodeMembership:
    """The set of store rows one overlay node holds.

    Mutations keep the store's per-row reference counts in step: adding a
    row increments, discarding decrements, and the row is tombstoned by
    the store when its last membership lets go. Row arrays returned by
    :meth:`rows` are sorted ascending — row order is insertion order
    (compaction preserves it), so iteration is deterministic.
    """

    __slots__ = ("_store", "_rows", "_cache", "__weakref__")

    def __init__(self, store: "LevelStore"):
        self._store = store
        self._rows: set[int] = set()
        self._cache: np.ndarray | None = None
        store._register(self)

    @property
    def store(self) -> "LevelStore":
        """The backing level store."""
        return self._store

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: int) -> bool:
        return int(row) in self._rows

    def held_of(self, rows: set[int]) -> set[int]:
        """Those of ``rows`` this membership holds (one set intersection)."""
        return self._rows & rows

    def rows(self) -> np.ndarray:
        """Member rows as a sorted ``int64`` array (cached until mutated)."""
        if self._cache is None:
            self._cache = np.fromiter(
                sorted(self._rows), dtype=np.int64, count=len(self._rows)
            )
        return self._cache

    def add(self, row: int) -> bool:
        """Add one row; returns False (and does nothing) if already held."""
        row = int(row)
        if row in self._rows:
            return False
        self._rows.add(row)
        self._cache = None
        self._store._incref(row)
        return True

    def add_many(self, rows) -> int:
        """Add each row not yet held; returns how many were new."""
        added = 0
        for row in rows:
            if self.add(row):
                added += 1
        return added

    def discard(self, row: int) -> bool:
        """Drop one row; returns False if it was not held."""
        row = int(row)
        if row not in self._rows:
            return False
        self._rows.discard(row)
        self._cache = None
        self._store._decref(row)
        return True

    def discard_many(self, rows) -> int:
        """Drop each held row in ``rows``; returns how many were held."""
        dropped = 0
        for row in rows:
            if self.discard(row):
                dropped += 1
        return dropped

    def _drop(self, rows: set[int]) -> None:
        """Let the held ones of ``rows`` go without tombstoning them.

        Only :meth:`LevelStore.remove_rows` calls this; it tombstones the
        rows itself once every holder has let go.
        """
        held = self._rows & rows
        if held:
            self._rows -= held
            self._cache = None
            self._store._refcounts[list(held)] -= 1

    def clear(self) -> int:
        """Drop every member row (a departing node releasing its holdings)."""
        dropped = len(self._rows)
        for row in self._rows:
            self._store._decref(row)
        self._rows.clear()
        self._cache = None
        return dropped

    def intersecting_rows(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Member rows whose spheres intersect the query sphere (batched)."""
        return self._store.intersecting_rows(self.rows(), center, radius)

    def rows_matching(self, mask: np.ndarray) -> np.ndarray:
        """Member rows selected by a per-row boolean ``mask``.

        The fast path for range queries: the overlay computes one
        :meth:`LevelStore.intersection_mask` per query and every visited
        node reduces to this boolean gather.
        """
        rows = self.rows()
        if rows.size == 0:
            return rows
        return rows[mask[rows]]

    def _remap(self, mapping: np.ndarray) -> None:
        """Rewrite member rows through a compaction ``old -> new`` map."""
        self._rows = {
            int(mapping[row]) for row in self._rows if mapping[row] >= 0
        }
        self._cache = None


class CandidateSet:
    """One range query's surviving rows: store ref + rows + generation.

    The result every overlay ``lookup`` and ``range_query`` hands back:
    no entry objects, just row indices into the shared columns plus the
    store generation at snapshot time. Consumers read :meth:`columns`
    (scoring, k-NN's Eq. 8 columns), :meth:`values` (payloads) or
    :attr:`rows` with the store's per-row accessors; all but ``rows`` and
    ``len`` raise :class:`~repro.exceptions.StaleCandidateError` once the
    store has mutated.
    """

    __slots__ = ("_store", "_rows", "_generation", "_columns")

    def __init__(self, store: "LevelStore", rows: np.ndarray):
        self._store = store
        self._rows = np.asarray(rows, dtype=np.int64)
        self._generation = store.generation
        self._columns = None

    @property
    def store(self) -> "LevelStore":
        """The backing level store."""
        return self._store

    @property
    def rows(self) -> np.ndarray:
        """Candidate row indices (ascending, deduplicated by construction)."""
        return self._rows

    @property
    def generation(self) -> int:
        """Store generation at snapshot time."""
        return self._generation

    @property
    def entry_ids(self) -> np.ndarray:
        """Stable entry ids of the candidate rows."""
        self.ensure_fresh()
        return self._store._entry_ids[self._rows]

    def is_stale(self) -> bool:
        """True when the store has mutated since this snapshot was taken."""
        return self._generation != self._store.generation

    def ensure_fresh(self) -> None:
        """Raise :class:`StaleCandidateError` when the snapshot is stale."""
        if self.is_stale():
            raise StaleCandidateError(
                f"candidate set was taken at store generation "
                f"{self._generation} but the store is now at generation "
                f"{self._store.generation}; re-run the range query"
            )

    def columns(self) -> tuple:
        """Gather ``(keys, radii, items, peer_ids, key_sq)`` for the rows.

        The gather is one vectorized fancy-index per column (no Python
        per-entry loop) and is memoized: scoring and k-NN discovery (Eq. 8)
        share the same arrays. When the rows form a dense range — the
        common case for a wide query over a freshly-compacted store — the
        gather degenerates to zero-copy column slices.
        """
        self.ensure_fresh()
        if self._columns is None:
            store = self._store
            rows = self._rows
            if (
                rows.size
                and int(rows[-1]) - int(rows[0]) + 1 == rows.size
            ):
                # Rows are sorted and unique, so first/last spanning
                # exactly ``size`` positions means a contiguous range.
                rows = slice(int(rows[0]), int(rows[-1]) + 1)
            self._columns = (
                store._keys[rows],
                store._radii[rows],
                store._items[rows],
                store._peer_ids[rows],
                store._key_sq[rows],
            )
        return self._columns

    def release(self) -> None:
        """Drop the memoized :meth:`columns`; the next call gathers again."""
        self._columns = None

    def values(self) -> list:
        """The candidate rows' payloads, in row order."""
        self.ensure_fresh()
        values = self._store._values
        return [values[row] for row in self._rows.tolist()]

    def __len__(self) -> int:
        return int(self._rows.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CandidateSet(rows={self._rows.size}, "
            f"generation={self._generation})"
        )


class LevelStore:
    """All of one overlay level's published entries, in columnar arrays.

    Entry ids are issued consecutively from 0; one dense int64 column maps
    each to its live row (−1: tombstoned or never held), at 8 B per id in
    its span however few rows live, so an id from ``_MAX_ENTRY_IDS`` (2**27)
    up is refused before anything changes.
    """

    def __init__(self, dimensionality: int, *, compact_fraction: float = _COMPACT_FRACTION,
                 compact_min_tombstones: int = _COMPACT_MIN_TOMBSTONES):
        if dimensionality < 1:
            raise ValidationError(
                f"dimensionality must be >= 1, got {dimensionality}"
            )
        self._dim = int(dimensionality)
        self._compact_fraction = float(compact_fraction)
        self._compact_min_tombstones = int(compact_min_tombstones)
        self._capacity = 0
        self._size = 0  # rows used, live + tombstoned
        self._n_tombstones = 0
        self._next_entry_id = 0
        self.generation = 0
        self.compactions = 0
        self.directory_builds = 0
        self.mask_queries = 0
        self.rows_scanned = 0
        self._directory: CellDirectory | None = None
        self._directory_generation = -1
        self._keys = np.empty((0, self._dim), dtype=np.float64)
        self._key_sq = np.empty(0, dtype=np.float64)
        self._radii = np.empty(0, dtype=np.float64)
        self._items = np.empty(0, dtype=np.float64)
        self._peer_ids = np.empty(0, dtype=np.int64)
        self._entry_ids = np.empty(0, dtype=np.int64)
        self._refcounts = np.empty(0, dtype=np.int64)
        self._heat = np.empty(0, dtype=np.int64)
        #: Per row, the generation it last changed at (from :meth:`stamps_of`).
        self._stamps: np.ndarray | None = None
        self._live = np.empty(0, dtype=bool)
        self._values: list = []
        self._row_of_id = np.empty(0, dtype=np.int64)
        self._memberships: weakref.WeakSet[NodeMembership] = weakref.WeakSet()
        #: ``(rows, holders)`` held for memberships not built yet (see
        #: :meth:`defer_rows`); ``None`` when there are none.
        self._deferred: tuple[np.ndarray, np.ndarray] | None = None
        self._shared = False
        self._shm_blocks: dict[str, shared_memory.SharedMemory] = {}
        self._shm_orphans: list[shared_memory.SharedMemory] = []
        self._shm_epoch = 0

    # -- introspection -------------------------------------------------------

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the stored keys."""
        return self._dim

    @property
    def capacity(self) -> int:
        """Allocated rows."""
        return self._capacity

    @property
    def n_live(self) -> int:
        """Live (non-tombstoned) rows."""
        return self._size - self._n_tombstones

    @property
    def n_rows(self) -> int:
        """Rows used (live + tombstoned) — the mask/column prefix length."""
        return self._size

    @property
    def n_tombstones(self) -> int:
        """Rows deleted but not yet compacted away."""
        return self._n_tombstones

    @property
    def next_entry_id(self) -> int:
        """The id the next :meth:`add` will assign."""
        return self._next_entry_id

    def __len__(self) -> int:
        return self.n_live

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LevelStore(d={self._dim}, live={self.n_live}, "
            f"tombstones={self._n_tombstones}, gen={self.generation})"
        )

    def health(self) -> dict:
        """Store health snapshot (JSON-safe) for stats dashboards."""
        return {
            "live_rows": self.n_live,
            "tombstones": self._n_tombstones,
            "capacity": self._capacity,
            "generation": self.generation,
            "compactions": self.compactions,
            "next_entry_id": self._next_entry_id,
            "directory_cells": (
                1 if self._directory is None else self._directory.n_cells
            ),
            "directory_builds": self.directory_builds,
            "mask_queries": self.mask_queries,
            "rows_scanned": self.rows_scanned,
        }

    # -- membership registry -------------------------------------------------

    def _register(self, membership: NodeMembership) -> None:
        self._memberships.add(membership)

    def new_membership(self) -> NodeMembership:
        """Create (and register) a membership for one node."""
        return NodeMembership(self)

    # -- mutation ------------------------------------------------------------

    #: Columns engine workers read zero-copy; when the store is shared
    #: these (and only these) live in ``multiprocessing.shared_memory``.
    _SHM_COLUMNS = ("_keys", "_key_sq", "_radii", "_items", "_peer_ids",
                    "_live")

    #: Every growable column: ``name -> (dtype, zero_fill)``. ``_keys``
    #: is the one 2-D column; ``_live`` must zero-fill past the prefix.
    _COLUMN_SPECS = {
        "_keys": (np.float64, False),
        "_key_sq": (np.float64, False),
        "_radii": (np.float64, False),
        "_items": (np.float64, False),
        "_peer_ids": (np.int64, False),
        "_entry_ids": (np.int64, False),
        "_refcounts": (np.int64, False),
        "_heat": (np.int64, False),
        "_stamps": (np.int64, False),
        "_live": (bool, True),
    }

    def _alloc_array(self, name: str, shape, dtype):
        """Allocate one column: private ``np.empty`` or a shm block."""
        if not (self._shared and name in self._SHM_COLUMNS):
            return np.empty(shape, dtype=dtype), None
        nbytes = max(int(np.prod(shape)) * np.dtype(dtype).itemsize, 1)
        block = shared_memory.SharedMemory(create=True, size=nbytes)
        return np.ndarray(shape, dtype=dtype, buffer=block.buf), block

    def _release_blocks(self, blocks) -> None:
        """Unlink + close shm blocks; defer closes blocked by exports.

        A live zero-copy view (e.g. a :class:`CandidateSet` contiguous
        slice) keeps a buffer export open, making ``close`` raise
        ``BufferError``; such blocks park in an orphan list retried on
        the next release. Unlinking first is always safe on Linux — the
        segment persists until every mapping closes.
        """
        pending = [b for b in blocks if b is not None] + self._shm_orphans
        self._shm_orphans = []
        for block in pending:
            try:
                block.unlink()
            except FileNotFoundError:
                pass
            try:
                block.close()
            except BufferError:
                self._shm_orphans.append(block)

    def _grow_to(self, capacity: int) -> None:
        new_cap = max(self._capacity * 2, _INITIAL_CAPACITY)
        while new_cap < capacity:
            new_cap *= 2
        released = []
        for name, (dtype, zero_fill) in self._COLUMN_SPECS.items():
            if getattr(self, name) is None:  # no stamps asked for yet
                continue
            shape = (new_cap, self._dim) if name == "_keys" else (new_cap,)
            col, block = self._alloc_array(name, shape, dtype)
            if zero_fill:
                col[:] = False
            col[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, col)
            if block is not None:
                released.append(self._shm_blocks.pop(name, None))
                self._shm_blocks[name] = block
        self._capacity = new_cap
        if self._shared:
            self._shm_epoch += 1
            self._release_blocks(released)

    # -- shared-memory backing ----------------------------------------------

    @property
    def is_shared(self) -> bool:
        """True when the worker-visible columns live in shared memory."""
        return self._shared

    @property
    def shm_epoch(self) -> int:
        """Bumped whenever the shm blocks are (re)allocated.

        Engine parents compare this against what each worker last
        attached and resend the manifest on mismatch — reallocation
        (growth) is the only event that invalidates an attachment;
        ordinary mutations are covered by :attr:`generation` alone.
        """
        return self._shm_epoch

    def share_columns(self) -> dict:
        """Migrate the worker-visible columns into shared memory.

        Idempotent; returns the current :meth:`shm_manifest`. After
        this, every growth reallocates into fresh shm blocks and bumps
        :attr:`shm_epoch`. The payload list (``_values``) never crosses
        the process boundary — workers score columns, not payloads.
        """
        if not self._shared:
            self._shared = True
            self._shm_epoch += 1
            for name in self._SHM_COLUMNS:
                old = getattr(self, name)
                col, block = self._alloc_array(name, old.shape, old.dtype)
                if block is None:  # zero-capacity store: nothing to map
                    continue
                col[:] = old
                setattr(self, name, col)
                self._shm_blocks[name] = block
        return self.shm_manifest()

    def shm_manifest(self) -> dict:
        """Name/shape/dtype of each shm column block, for worker attach."""
        if not self._shared:
            raise ValidationError("store is not shared; no shm manifest")
        return {
            "epoch": self._shm_epoch,
            "capacity": self._capacity,
            "dim": self._dim,
            "columns": {
                name: (
                    self._shm_blocks[name].name,
                    tuple(getattr(self, name).shape),
                    getattr(self, name).dtype.str,
                )
                for name in self._SHM_COLUMNS
                if name in self._shm_blocks
            },
        }

    def release_shared(self) -> None:
        """Copy columns back to private arrays and free the shm blocks."""
        if not self._shared:
            return
        for name in self._SHM_COLUMNS:
            setattr(self, name, np.array(getattr(self, name), copy=True))
        blocks = [self._shm_blocks.pop(name)
                  for name in list(self._shm_blocks)]
        self._shared = False
        self._shm_epoch += 1
        self._release_blocks(blocks)

    def __del__(self):  # pragma: no cover - interpreter-exit path
        try:
            self.release_shared()
        except Exception:
            pass

    def add(self, key: np.ndarray, radius: float, value: object) -> int:
        """Append one entry; returns its row index.

        ``value`` is opaque; when it carries ``peer_id`` / ``items``
        attributes (a :class:`repro.core.results.ClusterRecord`) they are
        mirrored into the scoring columns, otherwise the row scores as
        peer −1 with 0 items (non-record payloads are never scored).
        """
        return self._append(self._next_entry_id, key, radius, value)

    def restore(self, entry_id: int, key: np.ndarray, radius: float,
                value: object) -> int:
        """Append one entry with an explicit whole id >= 0 no live row holds."""
        entry_id = check_count(entry_id, "entry_id", floor=0)
        if self._live_row(entry_id) >= 0:
            raise ValidationError(f"duplicate entry id {entry_id}")
        return self._append(entry_id, key, radius, value)

    def reserve_ids_through(self, floor: int) -> None:
        """Advance the id allocator so new ids start at ``floor`` or later.

        Deserialization uses this to resume past a snapshot's high-water
        mark — including ids that were tombstoned before the snapshot and
        therefore do not appear in it — so restored and future entries can
        never collide. A floor past the id map's bound is refused.
        """
        self._map_ids(int(floor))
        self._next_entry_id = max(self._next_entry_id, int(floor))

    def _map_ids(self, stop: int) -> None:
        """Grow the id map (geometrically) to cover ids below ``stop``."""
        old = self._row_of_id
        if stop <= old.size:
            return
        if stop > _MAX_ENTRY_IDS:
            raise ValidationError(f"entry id {stop - 1} is past the id map's bound")
        size = min(max(stop, 2 * old.size), _MAX_ENTRY_IDS)
        self._row_of_id = np.full(size, -1, dtype=np.int64)
        self._row_of_id[: old.size] = old

    def _append(self, entry_id: int, key: np.ndarray, radius: float,
                value: object) -> int:
        key = np.asarray(key, dtype=np.float64)
        if key.shape != (self._dim,):
            raise ValidationError(
                f"key shape {key.shape} does not match store "
                f"dimensionality {self._dim}"
            )
        radius = float(radius)
        if radius < 0.0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
        self._map_ids(entry_id + 1)
        if self._size == self._capacity:
            self._grow_to(self._size + 1)
        row = self._size
        self._keys[row] = key
        self._key_sq[row] = float(key @ key)
        self._radii[row] = radius
        self._items[row] = float(getattr(value, "items", 0.0) or 0.0)
        self._peer_ids[row] = int(getattr(value, "peer_id", -1))
        self._entry_ids[row] = entry_id
        self._refcounts[row] = 0
        self._heat[row] = 0
        self._live[row] = True
        self._values.append(value)
        self._row_of_id[entry_id] = row
        self._size += 1
        self._next_entry_id = max(self._next_entry_id, entry_id + 1)
        self._bump(row)
        return row

    def check_bulk(self, keys, radii, *, items=None, peer_ids=None,
                   values=None) -> tuple:
        """Validate one :meth:`bulk_add` batch without appending it.

        Raises whatever ``bulk_add`` would and changes nothing, so a
        caller with other state to change first (``bulk_publish``
        charges the fabric) can ask before it does. Returns the coerced
        ``(keys, radii, items, peer_ids)`` columns.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2 or keys.shape[1] != self._dim:
            raise ValidationError(
                f"keys shape {keys.shape} does not match store "
                f"dimensionality {self._dim}"
            )
        n = keys.shape[0]
        radii = _bulk_column(radii, n, np.float64, "radii")
        if np.any(radii < 0.0):
            raise ValidationError("radii must all be >= 0")
        items_col = (np.zeros(n, dtype=np.float64) if items is None
                     else _bulk_column(items, n, np.float64, "items"))
        peer_col = (np.full(n, -1, dtype=np.int64) if peer_ids is None
                    else _bulk_column(peer_ids, n, np.int64, "peer_ids"))
        if values is not None and len(values) != n:
            raise ValidationError(
                f"values length {len(values)} does not match {n} keys"
            )
        return keys, radii, items_col, peer_col

    def bulk_add(self, keys, radii, *, items=None, peer_ids=None,
                 values=None) -> np.ndarray:
        """Append ``n`` entries in one vectorized pass; returns their rows.

        The scale-harness fast path: one capacity check, one slice write
        per column, one generation bump for the whole batch — versus
        ``n`` :meth:`add` calls each paying Python-level column stores
        and a generation bump. ``items``/``peer_ids`` are passed as
        columns (there are no per-entry payload objects to mirror them
        from); ``values`` defaults to ``None`` payloads, which scoring
        never touches.
        """
        columns = self.check_bulk(
            keys, radii, items=items, peer_ids=peer_ids, values=values
        )
        return self._bulk_append(*columns, values)

    def _bulk_append(self, keys, radii, items_col, peer_col, values) -> np.ndarray:
        """:meth:`bulk_add` of the columns :meth:`check_bulk` returned."""
        n = keys.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        first = self._next_entry_id
        self._map_ids(first + n)
        if self._size + n > self._capacity:
            self._grow_to(self._size + n)
        start = self._size
        stop = start + n
        rows = np.arange(start, stop, dtype=np.int64)
        self._keys[start:stop] = keys
        self._key_sq[start:stop] = np.einsum("ij,ij->i", keys, keys)
        self._radii[start:stop] = radii
        self._items[start:stop] = items_col
        self._peer_ids[start:stop] = peer_col
        self._entry_ids[start:stop] = np.arange(first, first + n, dtype=np.int64)
        self._refcounts[start:stop] = 0
        self._heat[start:stop] = 0
        self._live[start:stop] = True
        self._values.extend([None] * n if values is None else values)
        self._row_of_id[first : first + n] = rows
        self._size = stop
        self._next_entry_id += n
        self._bump(slice(start, stop))
        return rows

    def column_block(self, rows: np.ndarray) -> ColumnBlock:
        """Gather a scoring :class:`ColumnBlock` for the given rows."""
        rows = np.asarray(rows, dtype=np.int64)
        return ColumnBlock(
            radii=self._radii[rows],
            items=self._items[rows],
            peer_ids=self._peer_ids[rows],
            keys=self._keys[rows],
            key_sq=self._key_sq[rows],
        )

    def assign_rows(self, memberships, rows, starts) -> int:
        """Land grouped rows on their memberships in one refcount pass.

        Group ``i`` — ``rows[starts[i]:starts[i + 1]]`` — goes to
        ``memberships[i]``. The whole batch must be live, checked before
        any membership changes. Rows a membership already holds are
        skipped, not double-counted, exactly as sequential
        :meth:`NodeMembership.add_many` calls would; one
        :meth:`_incref_bulk` covers everything newly held. Returns how
        many holdings were new.
        """
        rows = np.asarray(rows, dtype=np.int64)
        bounds = np.asarray(starts, dtype=np.int64).tolist()
        if len(bounds) != len(memberships) + 1:
            raise ValidationError("starts must bracket one group per membership")
        if not np.all(self._live[rows]):
            raise ValidationError("cannot assign tombstoned rows")
        flat = rows.tolist()
        fresh: list[int] = []
        for membership, start, stop in zip(memberships, bounds, bounds[1:]):
            new = set(flat[start:stop]) - membership._rows
            if new:
                membership._rows |= new
                membership._cache = None
                fresh.extend(new)
        self._incref_bulk(np.asarray(fresh, dtype=np.int64))
        return len(fresh)

    def defer_rows(self, rows, holders) -> None:
        """Hold live ``rows`` for ``holders`` whose memberships do not exist yet.

        A bulk-built overlay places rows before it builds the nodes that
        hold them: ``holders[i]`` (an opaque id) holds ``rows[i]``. A
        deferred holding counts in the row's refcount as a membership's
        does, is let go by :meth:`remove_rows` as a membership's is, follows
        compaction, and becomes a real one in :meth:`land_deferred`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        holders = np.asarray(holders, dtype=np.int64)
        if rows.ndim != 1 or rows.shape != holders.shape:
            raise ValidationError("rows and holders must align")
        self._incref_bulk(rows)
        if self._deferred is not None:
            rows = np.concatenate((self._deferred[0], rows))
            holders = np.concatenate((self._deferred[1], holders))
        self._deferred = (rows, holders)

    def land_deferred(self, membership_of) -> int:
        """Move every deferred holding onto its holder's membership.

        ``membership_of(holder)`` names each holder's membership. The rows
        land grouped per holder through :meth:`assign_rows`, so the
        memberships and refcounts read exactly what assigning them at
        :meth:`defer_rows` time would have left. Returns how many holdings
        were new.
        """
        if self._deferred is None:
            return 0
        rows, holders = self._deferred
        order = np.argsort(holders, kind="stable")
        holders = holders[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(holders)) + 1, [holders.size])
        )
        memberships = [
            membership_of(holder) for holder in holders[starts[:-1]].tolist()
        ]
        self._deferred = None
        np.subtract.at(self._refcounts, rows, 1)
        return self.assign_rows(memberships, rows[order], starts)

    def _bump(self, rows) -> None:
        """Bump the generation; stamp ``rows`` (an index or slice) with it."""
        self.generation += 1
        if self._stamps is not None:
            self._stamps[rows] = self.generation

    def _incref(self, row: int) -> None:
        if not self._live[row]:
            raise ValidationError(f"row {row} is tombstoned")
        self._refcounts[row] += 1

    def _incref_bulk(self, rows: np.ndarray) -> None:
        """Refcount a batch of live rows in one vectorized pass."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        if not np.all(self._live[rows]):
            raise ValidationError("cannot incref tombstoned rows")
        np.add.at(self._refcounts, rows, 1)

    def _decref(self, row: int) -> None:
        count = self._refcounts[row] - 1
        if count < 0:
            raise ValidationError(f"row {row} refcount underflow")
        self._refcounts[row] = count
        if count == 0 and self._live[row]:
            self._tombstone(row)

    def _tombstone(self, row: int) -> None:
        self._live[row] = False
        self._n_tombstones += 1
        self._row_of_id[self._entry_ids[row]] = -1
        self._values[row] = None  # release the payload immediately
        self._bump(row)

    def has_entry(self, entry_id: int) -> bool:
        """True when ``entry_id`` names a live row."""
        return self._live_row(entry_id) >= 0

    def _live_row(self, entry_id) -> int:
        """Row holding ``entry_id``, or −1 when no live row does."""
        ids, entry_id = self._row_of_id, int(entry_id)
        return ids.item(entry_id) if 0 <= entry_id < len(ids) else -1

    def update_entry(
        self,
        entry_id: int,
        *,
        key: np.ndarray | None = None,
        radius: float | None = None,
        value: object | None = None,
    ) -> int:
        """Mutate a live entry in place; returns its row index.

        The delta publish path patches a sphere's radius, item count, or
        (rarely) key on its *existing* entry id instead of tombstoning and
        re-inserting, so every replica holding the row sees the update for
        free — replication is multi-membership of one row. The generation
        counter bumps only when a scored field actually changes: a no-op
        patch (every argument ``None`` or equal to the stored state) must
        not invalidate outstanding :class:`CandidateSet` snapshots — the
        adaptation loop re-patches hot entries every epoch and a spurious
        bump turns each epoch into a ``StaleCandidateError`` storm.
        """
        row = self.row_of(entry_id)
        changed = False
        if key is not None:
            key = np.asarray(key, dtype=np.float64)
            if key.shape != (self._dim,):
                raise ValidationError(
                    f"key shape {key.shape} does not match store "
                    f"dimensionality {self._dim}"
                )
            if not np.array_equal(key, self._keys[row]):
                self._keys[row] = key
                self._key_sq[row] = float(key @ key)
                changed = True
        if radius is not None:
            radius = float(radius)
            if radius < 0.0:
                raise ValidationError(f"radius must be >= 0, got {radius}")
            if radius != float(self._radii[row]):
                self._radii[row] = radius
                changed = True
        if value is not None:
            items = float(getattr(value, "items", 0.0) or 0.0)
            peer_id = int(getattr(value, "peer_id", -1))
            if not (
                self._values_equal(value, self._values[row])
                and items == float(self._items[row])
                and peer_id == int(self._peer_ids[row])
            ):
                changed = True
            # Always keep the latest payload object (cheap, no snapshot
            # consequences when it compares equal to the stored one).
            self._values[row] = value
            self._items[row] = items
            self._peer_ids[row] = peer_id
        if changed:
            self._bump(row)
        return row

    @staticmethod
    def _values_equal(a: object, b: object) -> bool:
        """Payload equality that never raises (arrays compare ambiguous)."""
        if a is b:
            return True
        try:
            return bool(a == b)
        except Exception:
            return False

    def remove_entry(self, entry_id: int) -> bool:
        """Drop one entry everywhere (:meth:`remove_rows` of its row).

        Returns False when the id is unknown (already dead).
        """
        row = self._live_row(entry_id)
        return row >= 0 and self.remove_rows([row]) == 1

    def remove_rows(self, rows) -> int:
        """Drop the live ones of ``rows`` everywhere; returns how many.

        The one way rows leave a level: a single sweep over the registered
        memberships lets every holder of any of them go, their deferred
        holdings are released, and then each is tombstoned in the order
        given (duplicates skipped), whatever held it. No compaction runs
        here — callers compact at the end of their batch.
        """
        doomed = [
            row for row in dict.fromkeys(map(int, rows)) if self._live[row]
        ]
        if not doomed:
            return 0
        dropped = set(doomed)
        for membership in list(self._memberships):
            membership._drop(dropped)
        if self._deferred is not None:
            held, holders = self._deferred
            hit = np.isin(held, doomed)
            keep = ~hit
            self._deferred = (held[keep], holders[keep]) if keep.any() else None
            np.subtract.at(self._refcounts, held[hit], 1)
        for row in doomed:
            self._tombstone(row)
        return len(doomed)

    def remove_peer_entries(self, peer_id: int) -> int:
        """Tombstone every live entry published by ``peer_id``.

        One vectorized peer-id column scan finds the doomed rows, one
        :meth:`remove_rows` drops them, and the store compacts if past
        threshold. The resilience layer uses this to reap the dangling
        spheres of a crashed peer
        (:func:`repro.faults.resilience.tombstone_peer`); returns the
        number of entries removed.
        """
        removed = self.remove_rows(self.rows_for_peer(peer_id))
        if removed:
            self.maybe_compact()
        return removed

    # -- compaction ----------------------------------------------------------

    def needs_compaction(self) -> bool:
        """True when tombstones pass the compaction threshold."""
        if self._n_tombstones < self._compact_min_tombstones:
            return False
        return self._n_tombstones > self._compact_fraction * self._size

    def maybe_compact(self) -> bool:
        """Compact when past threshold; returns True when compaction ran.

        Call at the *end* of a mutation batch (withdrawal, departure):
        compaction remaps row indices, so running it mid-batch would
        invalidate row handles the batch still holds.
        """
        if not self.needs_compaction():
            return False
        self.compact()
        return True

    def compact(self) -> None:
        """Rewrite the columns densely and remap every membership."""
        if self._n_tombstones == 0:
            return
        size = self._size
        if len(self._values) != size:
            # _values is the only per-row Python-list column; every append
            # path must keep it exactly _size-aligned (capacity growth
            # touches the numpy columns only). The zip(strict=True) below
            # would also catch this, but with an opaque message.
            raise ValidationError(
                f"store corrupt: {len(self._values)} payloads for "
                f"{size} rows"
            )
        live = self._live[:size]
        mapping = np.full(size, -1, dtype=np.int64)
        mapping[live] = np.arange(int(live.sum()), dtype=np.int64)
        new_size = int(live.sum())
        self._keys[:new_size] = self._keys[:size][live]
        self._key_sq[:new_size] = self._key_sq[:size][live]
        self._radii[:new_size] = self._radii[:size][live]
        self._items[:new_size] = self._items[:size][live]
        self._peer_ids[:new_size] = self._peer_ids[:size][live]
        self._entry_ids[:new_size] = self._entry_ids[:size][live]
        self._refcounts[:new_size] = self._refcounts[:size][live]
        self._heat[:new_size] = self._heat[:size][live]
        self._values = [
            v for v, keep in zip(self._values, live, strict=True) if keep
        ]
        self._live[:new_size] = True
        self._live[new_size:] = False
        self._size = new_size
        self._n_tombstones = 0
        # Dead ids already read -1; every live id takes its new row.
        self._row_of_id[self._entry_ids[:new_size]] = np.arange(new_size)
        for membership in list(self._memberships):
            membership._remap(mapping)
        if self._deferred is not None:
            # Deferred rows are held, hence live: none maps to -1.
            held, holders = self._deferred
            self._deferred = (mapping[held], holders)
        self.compactions += 1
        self._bump(slice(None))  # every row moved: stamp them all

    # -- lookups -------------------------------------------------------------

    def row_of(self, entry_id: int) -> int:
        """Row index of a live entry id."""
        row = self._live_row(entry_id)
        if row < 0:
            raise ValidationError(f"unknown entry id {entry_id}")
        return row

    def entry_id_of(self, row: int) -> int:
        """Stable entry id of a row."""
        return int(self._entry_ids[int(row)])

    def key_of(self, row: int) -> np.ndarray:
        """Key of one row (read view; do not mutate)."""
        return self._keys[int(row)]

    def radius_of(self, row: int) -> float:
        """Radius of one row."""
        return float(self._radii[int(row)])

    def value_of(self, row: int) -> object:
        """Payload of one row."""
        return self._values[int(row)]

    def stamps_of(self, rows) -> np.ndarray:
        """Change stamps of ``rows``: the generation each row last changed at.

        The first call stamps every row with the current generation, which
        no older snapshot holds: to it, every row has changed.
        """
        if self._stamps is None:
            self._stamps = np.full(self._capacity, self.generation, np.int64)
        return self._stamps[rows]

    def items_of(self, rows: np.ndarray) -> np.ndarray:
        """Item counts of ``rows`` (vectorized gather)."""
        return self._items[np.asarray(rows, dtype=np.int64)]

    def live_rows(self) -> np.ndarray:
        """All live rows, ascending."""
        return np.flatnonzero(self._live[: self._size])

    def rows_for_peer(self, peer_id: int) -> np.ndarray:
        """Live rows published by ``peer_id`` (vectorized column scan)."""
        size = self._size
        mask = self._live[:size] & (self._peer_ids[:size] == int(peer_id))
        return np.flatnonzero(mask)

    # -- the hot path --------------------------------------------------------

    def intersecting_rows(
        self, rows: np.ndarray, center: np.ndarray, radius: float
    ) -> np.ndarray:
        """Subset of ``rows`` whose spheres intersect the query sphere.

        :meth:`CellDirectory.hits` over the gathered rows — the
        vectorized replacement for the per-entry ``intersects`` loop,
        and the same kernel as :meth:`intersection_mask`, so the two
        filters always agree.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return rows
        gathered = CellDirectory(
            *(getattr(self, name)[rows] for name in _DIRECTORY_COLUMNS)
        )
        return rows[gathered.hits(center, radius).positions]

    def _cell_directory(self) -> CellDirectory:
        """The directory over the current columns, built once per generation.

        Whole and lazy: the first scan after any mutation pays one
        rebuild (:attr:`directory_builds` counts the gridded ones; under
        :data:`_DIRECTORY_MIN_ROWS` it is the one-cell directory over
        copies of the columns).
        """
        if self._directory_generation != self.generation:
            size = self._size
            self._directory = CellDirectory.build(
                *(getattr(self, name)[:size] for name in _DIRECTORY_COLUMNS)
            )
            self._directory_generation = self.generation
            if self._directory.rows is not None:
                self.directory_builds += 1
        return self._directory

    def _query_center(self, center) -> np.ndarray:
        center = np.asarray(center, dtype=np.float64)
        if center.shape != (self._dim,):
            raise ValidationError(
                f"center shape {center.shape} does not match store "
                f"dimensionality {self._dim}"
            )
        return center

    def hits(self, center: np.ndarray, radius: float) -> Hits:
        """One query's :class:`Hits` over the current directory.

        The store's :class:`CellDirectory` confines the scan to the grid
        cells the query ball can reach; rows elsewhere (and tombstones)
        are never hits. The hits point into the directory's read-only
        copies, so later store writes cannot reach them.
        """
        hits = self._cell_directory().hits(self._query_center(center), radius)
        self.mask_queries += 1
        self.rows_scanned += hits.scanned
        return hits

    def intersection_mask(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Per-row intersection mask (``n_rows`` booleans) for one query.

        The dense form of :meth:`hits`, computed once per range query so
        every visited node reduces to a boolean gather of its membership
        rows.
        """
        mask, scanned = self._cell_directory().mask(
            self._query_center(center), radius
        )
        self.mask_queries += 1
        self.rows_scanned += scanned
        return mask

    def intersection_masks(
        self, centers: np.ndarray, radii: np.ndarray, rows=None
    ) -> np.ndarray:
        """Stacked :meth:`intersection_mask` for a batch of queries.

        ``centers`` is ``(B, d)`` and ``radii`` length ``B``; the result is
        ``(B, rows)`` boolean — over every row, or over the ascending row
        ids ``rows`` only. The whole batch's distances come from *one*
        GEMM instead of B matrix-vector passes — the serving tier's
        amortization lever. The GEMM expansion differs from the per-query
        matvec by ~1e-12 at worst, orders of magnitude inside the
        :data:`_BOUNDARY_BAND` whose near-boundary pairs are re-resolved
        with the exact difference norm, so every entry of the result is
        bit-identical to the corresponding :meth:`intersection_mask` one —
        batched serving inherits the scalar path's Theorem 4.1 guarantee.
        It scans every row it is given for every query, and counts so in
        :meth:`health`.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
        if centers.shape[0] != radii.shape[0]:
            raise ValidationError(
                f"{centers.shape[0]} centers for {radii.shape[0]} radii"
            )
        if centers.shape[1] != self._dim:
            raise ValidationError(
                f"center dimensionality {centers.shape[1]} does not match "
                f"store dimensionality {self._dim}"
            )
        rows = slice(0, self._size) if rows is None else rows
        keys, key_sq, row_radii, live = (
            column[rows]
            for column in (self._keys, self._key_sq, self._radii, self._live)
        )
        size = live.size
        self.mask_queries += centers.shape[0]
        self.rows_scanned += centers.shape[0] * size
        if size == 0:
            return np.empty((centers.shape[0], 0), dtype=bool)
        d2 = (
            key_sq[None, :]
            - 2.0 * (centers @ keys.T)
            + np.einsum("ij,ij->i", centers, centers)[:, None]
        )
        np.maximum(d2, 0.0, out=d2)
        dist = np.sqrt(d2)
        boundary = row_radii[None, :] + radii[:, None]
        near = np.abs(dist - boundary) <= _BOUNDARY_BAND
        if near.any():
            q_idx, r_idx = np.nonzero(near)
            diff = keys[r_idx] - centers[q_idx]
            dist[near] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        # The predicate is scalar-radius; one cheap vectorized call per
        # batch row keeps the boundary slack single-sourced (the GEMM
        # above is the expensive part).
        mask = np.empty((centers.shape[0], size), dtype=bool)
        for i in range(centers.shape[0]):
            mask[i] = spheres_intersect_batch(
                row_radii, float(radii[i]), dist[i]
            )
        mask &= live[None, :]
        return mask

    def candidate_set(self, rows: np.ndarray) -> CandidateSet:
        """Wrap ``rows`` (assumed deduplicated, ascending) as a snapshot."""
        return CandidateSet(self, rows)

    def union_candidates(self, row_arrays: list) -> CandidateSet:
        """Union per-node row arrays into one deduplicated snapshot.

        Every surviving row's query-heat counter is bumped here — the one
        point all overlay range queries funnel through — so per-sphere
        heat accumulates without any per-overlay instrumentation.
        """
        if not row_arrays:
            return CandidateSet(self, np.empty(0, dtype=np.int64))
        merged = np.unique(np.concatenate(
            [np.asarray(rows, dtype=np.int64) for rows in row_arrays]
        ))
        self._heat[merged] += 1  # observational only: no generation bump
        return CandidateSet(self, merged)

    # -- query heat ----------------------------------------------------------

    def bump_heat(self, rows: np.ndarray) -> None:
        """Bump the query-heat counter of ``rows`` by one each.

        Observational only — no generation bump, exactly like the bump
        inside :meth:`union_candidates`. The serving tier calls this when
        it answers a query from a cached :class:`CandidateSet`: the rows
        were not re-merged through ``union_candidates``, but the demand
        signal the adaptation controller consumes must still see every
        served query, or cache hits would cool the very spheres they
        prove are hot.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            self._heat[rows] += 1

    def heat_of(self, rows: np.ndarray) -> np.ndarray:
        """Query-heat counters of ``rows`` (vectorized gather)."""
        return self._heat[np.asarray(rows, dtype=np.int64)]

    def sphere_heat(self) -> dict:
        """``{entry_id: times a range query returned it}`` over live rows.

        The per-sphere demand signal the adaptation controller consumes:
        heat counts how often each sphere survived a query's intersection
        filter, accumulated in :meth:`union_candidates` and preserved
        across compactions. Reading it never mutates the store.
        """
        rows = self.live_rows()
        return {
            int(self._entry_ids[row]): int(self._heat[row]) for row in rows
        }

    # -- integrity -----------------------------------------------------------

    def verify_integrity(self) -> None:
        """Assert internal invariants (test helper; raises on violation).

        * every live row's refcount equals the number of registered
          memberships and deferred holdings holding it;
        * every membership row and every deferred row is live;
        * the id map covers exactly the live rows;
        * the payload list stays exactly ``_size``-aligned.
        """
        if len(self._values) != self._size:
            raise ValidationError(
                f"{len(self._values)} payloads for {self._size} rows"
            )
        counts = np.zeros(self._size, dtype=np.int64)
        for membership in self._memberships:
            for row in membership._rows:
                if not self._live[row]:
                    raise ValidationError(
                        f"membership holds tombstoned row {row}"
                    )
                counts[row] += 1
        if self._deferred is not None:
            held = self._deferred[0]
            if not np.all(self._live[held]):
                raise ValidationError("a deferred holding names a tombstoned row")
            np.add.at(counts, held, 1)
        live = self._live[: self._size]
        if not np.array_equal(counts[live], self._refcounts[: self._size][live]):
            raise ValidationError("refcounts disagree with memberships")
        expected = np.full(self._row_of_id.size, -1)
        expected[self._entry_ids[: self._size][live]] = np.flatnonzero(live)
        if not np.array_equal(expected, self._row_of_id):
            raise ValidationError("entry-id map disagrees with live rows")
