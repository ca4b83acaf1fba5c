"""Peer relevance scoring (paper Eq. 1) and cross-level aggregation.

At each level ``l``, a peer's score sums, over its clusters found by the
index query, the volume fraction of the cluster sphere covered by the query
sphere times the cluster's item count::

    Score_l(p) = sum_c  Vol(sphere_c ∩ sphere_q) / Vol(sphere_c) * items_c

Cross-level aggregation uses the paper's *minimum-score* policy by default
(Section 3.2): a peer must look relevant at **every** level; Theorem 4.1
guarantees this prunes no true range-query answers (``sum`` and
``product`` serve the ablation benchmarks). Most spheres a level returns
belong to peers another level drops, so the cheap predicate (presence at
every level) runs before the expensive one (the lens-volume kernel):

* :func:`level_scores` filters one level's candidates — a
  :class:`repro.index.CandidateSet` or :class:`repro.index.ColumnBlock`
  gathered from the level's columnar store (a stale set raises
  :class:`repro.exceptions.StaleCandidateError` here) — down to the
  spheres meeting the query ball, or takes a store scan's
  :class:`repro.index.Hits` as they are, and returns a
  :class:`LevelScoreTable`: peer ids, distances and positions into
  read-only radius/item columns, not yet sorted by peer, Eq. 1 not yet
  evaluated.
* :func:`aggregate_scores` semi-joins the levels' peer ids by counting
  (:func:`_semi_join`), sorts and intersects what is left, asks each
  table for the :meth:`~LevelScoreTable.totals` of the common peers only
  (their radii and items read at the kept positions, one
  ``intersection_fraction_batch`` call, summed per peer by ``bincount``
  in row order) and builds a plain ``dict``.
* :func:`evaluate_tables` scores many tables for every peer in one kernel
  call per ``(eps, d)``; each total is bit-identical to its table's alone.

A table is also a read-only ``Mapping`` that evaluates every peer once on
``[]`` / ``items()`` / ``==``. :func:`level_scores_scalar` keeps the
one-sphere-at-a-time path over entry objects as the numerical oracle —
the property tests pin the two to 1e-9, with identical
candidate/pruned/surviving accounting.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.exceptions import ValidationError
from repro.geometry.batch import (
    intersection_fraction_batch,
    spheres_intersect_batch,
)
from repro.geometry.intersection import intersection_fraction, spheres_intersect
from repro.index import CandidateSet, ColumnBlock, Hits

#: Floor applied to the per-cluster fraction of an *intersecting* cluster so
#: a tangential touch never zeroes a peer out of the min-aggregation (which
#: would break the Theorem 4.1 no-false-dismissal guarantee). With the
#: log-space volume ratios, positive-volume overlaps always score their true
#: (possibly tiny) fraction; the floor only catches zero-volume tangencies
#: inside the shared :data:`repro.geometry.intersection.INTERSECTION_SLACK`
#: band.
MIN_INTERSECTING_FRACTION = 1e-9

#: The cross-level semi-join counts in one slot per id between the
#: smallest and the largest peer id it sees; past this many slots per row
#: joined (sparse ids) clearing them costs more than the sorts they save.
_SPAN_PER_ROW = 8


def _fill_stats(stats: dict | None, candidates: int, pruned: int) -> None:
    if stats is not None:
        stats["candidates"] = candidates
        stats["pruned"] = pruned
        stats["surviving"] = candidates - pruned


class LevelScoreTable(Mapping):
    """One level's ``{peer: Eq. 1 score}``, grouped and evaluated on demand.

    ``peers`` is the sorted, unique id array of the peers with a sphere
    meeting the query ball. The table holds every peer's total (the
    eager form, for scores computed elsewhere or already evaluated in
    full) or the surviving ``rows`` it would sum — ``(peer_ids,
    positions, dists, (radii, items, row_ids), eps, d)``, ungrouped:
    ``positions`` index the read-only ``radii`` / ``items`` columns, and
    ``row_ids`` (``None`` when positions already ascend in row order)
    names each position's store row — which the first read of
    ``peers``, ``len``, ``[]`` or :meth:`totals` sorts into ``peers``
    and :meth:`totals` runs the kernel over. Nothing it reads is a
    writable store column.
    """

    __slots__ = ("_peers", "_inverse", "_totals", "_rows", "_scores",
                 "_carry", "_kept", "__weakref__")

    def __init__(self, peers: np.ndarray | None, totals=None, rows=None):
        self._peers = peers
        self._inverse = None
        self._totals = totals
        self._rows = rows
        self._scores = None
        #: A store look-up's ``(generation, rows, stamps, prior's _kept)``;
        #: once evaluated ``_kept``: ``(generation, rows, dists, terms)``.
        self._carry = self._kept = None

    @classmethod
    def of(cls, scores: Mapping) -> "LevelScoreTable":
        """``scores`` itself when a table, else an eager table over it."""
        if isinstance(scores, cls):
            return scores
        n = len(scores)
        peers = np.fromiter(scores.keys(), dtype=np.int64, count=n)
        totals = np.fromiter(scores.values(), dtype=np.float64, count=n)
        order = np.argsort(peers)
        return cls(peers[order], totals[order])

    @property
    def peers(self) -> np.ndarray:
        if self._peers is None:
            self._peers, self._inverse = np.unique(
                self._rows[0], return_inverse=True
            )
        return self._peers

    def totals(self, common: np.ndarray | None = None) -> np.ndarray:
        """Eq. 1 totals of ``common`` (sorted, all in ``peers``; default all).

        A proper subset costs the kernel only over the rows of those
        peers; each total is bit-identical to the full evaluation's
        because ``bincount`` still adds a peer's rows in row order.
        Once every peer is evaluated the row copies are released: each
        later answer is a take from the totals (what lets the serving
        tier keep an evaluated table per cached look-up).
        """
        peers = self.peers
        if common is None or common.size == peers.size:
            if self._totals is None:
                evaluate_tables([self])
            return self._totals
        where = np.searchsorted(peers, common)
        if self._totals is not None:
            return self._totals[where]
        wanted = np.zeros(peers.size, dtype=bool)
        wanted[where] = True
        (terms, inverse), = _terms([self], [wanted[self._inverse]])
        return np.bincount(inverse, terms, peers.size)[where]

    def _narrowed(self, keep: np.ndarray) -> "LevelScoreTable":
        """A new table over the rows (eager: the peers) ``keep`` selects."""
        if self._rows is None:
            return LevelScoreTable(self._peers[keep], self._totals[keep])
        peer_ids, positions, dists, *rest = self._rows
        return LevelScoreTable(
            None, rows=(peer_ids[keep], positions[keep], dists[keep], *rest)
        )

    def __len__(self) -> int:
        return int(self.peers.size)

    def __iter__(self):
        return iter(self.peers.tolist())

    def __getitem__(self, peer):
        if self._scores is None:
            self._scores = dict(zip(
                self.peers.tolist(), self.totals().tolist(), strict=True
            ))
        return self._scores[peer]


def _terms(tables: list, keeps: list) -> list:
    """Each table's Eq. 1 terms (fraction x items) over its ``keep`` rows.

    Radii and items are read at the kept positions only and one kernel
    call serves all (they share ``(eps, d)``). Returns one ``(terms,
    inverse)`` pair per table, in row order: the kernel is elementwise,
    so each term is bit-identical to its table's alone.
    """
    eps, d = tables[0]._rows[4:]
    picked = []  # (radii, dists, items, inverse) of each table's kept rows
    for table, keep in zip(tables, keeps):
        __, positions, dists, (radii, items, row_ids), *___ = table._rows
        positions, dists = positions[keep], dists[keep]
        inverse = table._inverse[keep]
        if row_ids is not None:  # scan order: add each peer's terms by row
            order = np.argsort(row_ids.take(positions))
            positions, dists, inverse = (
                positions[order], dists[order], inverse[order]
            )
        # Ascending positions, as many as the rows, are every row in order.
        if row_ids is not None or positions.size < radii.size:
            radii, items = radii.take(positions), items.take(positions)
        picked.append((radii, dists, items, inverse))
    radii, dists, items, __ = (  # one table (the join's case) uncopied
        picked[0] if len(picked) == 1 else map(np.concatenate, zip(*picked))
    )
    fractions = intersection_fraction_batch(radii, eps, dists, d)
    np.maximum(fractions, MIN_INTERSECTING_FRACTION,
               where=fractions <= 0.0, out=fractions)
    weighted = fractions * items
    out, start = [], 0
    for *__, inverse in picked:
        out.append((weighted[start:start + inverse.size], inverse))
        start += inverse.size
    return out


def _reused(table) -> tuple:
    """``(terms, need)``: the prior's terms, and the rows they do not hold.

    A term carries over when its row is unstamped since the prior and its
    distance has the prior's bits (a matvec over another row set may move
    a row's last bit). ``(None, every row)`` without a prior.
    """
    __, rows, stamps, prior = table._carry or (None,) * 4
    if prior is None or prior[1].size == 0:
        return None, slice(None)
    generation, old_rows, old_dists, old_terms = prior
    dists = table._rows[2]
    at = np.searchsorted(old_rows, rows)
    moved = old_dists.take(at, mode="clip").view(np.int64) != dists.view(np.int64)
    need = moved | (stamps > generation) | (old_rows.take(at, mode="clip") != rows)
    return old_terms.take(at, mode="clip"), need


def evaluate_tables(tables) -> None:
    """Evaluate distinct tables for every peer, one kernel call per radius.

    Each ``(eps, d)`` group of unevaluated tables goes through
    :func:`_terms` once, over the rows a table cannot carry over from its
    prior (:func:`_reused`), then one ``bincount`` per table in row
    order; each then holds ``peers`` + ``totals`` (and ``_kept``).
    """
    groups: dict = {}
    for table in tables:
        if table._totals is None:
            table.peers  # the deferred sort: builds the bincount inverse
            groups.setdefault(table._rows[4:], []).append(table)
    for group in groups.values():
        reused = [_reused(table) for table in group]
        scored = _terms(group, [need for __, need in reused])
        for table, (terms, need), (fresh, inverse) in zip(
            group, reused, scored
        ):
            if terms is None:  # every row scored, in row order
                terms = fresh
            else:
                terms[need], inverse = fresh, table._inverse
            if table._carry is not None:
                generation, rows, *__ = table._carry
                table._kept = (generation, rows, table._rows[2], terms)
            table._totals = np.bincount(
                inverse, weights=terms, minlength=table._peers.size
            )
            table._rows = table._inverse = table._carry = None


def level_scores(
    entries: CandidateSet | ColumnBlock | Hits,
    query_center: np.ndarray,
    query_radius: float,
    *,
    stats: dict | None = None,
    prior: LevelScoreTable | None = None,
) -> LevelScoreTable:
    """Eq. 1 scores per peer for one level's index-query results (batched).

    Parameters
    ----------
    entries:
        The overlay range query's results at this level: a
        :class:`repro.index.CandidateSet` (consumed zero-copy from the
        shared level store; stale → ``StaleCandidateError``), a
        :class:`repro.index.ColumnBlock`, or the :class:`repro.index.Hits`
        of a store scan with this query ball (already filtered: the
        table takes their positions and distances and reads only the
        directory's peer ids).
    query_center / query_radius:
        The query sphere, already translated into this level's key space.
    stats:
        Optional dict the function fills with this level's Theorem 4.1
        filter accounting: ``candidates`` spheres examined, ``pruned``
        (genuinely disjoint from the query ball) and ``surviving``
        (``candidates - pruned``) — the pruning-power numbers traces and
        Figure-style analyses report per level.
    prior:
        An evaluated table of the same ball over an older snapshot of the
        same store: evaluating this one carries over the terms of rows
        neither stamped since nor moved (:func:`evaluate_tables`).
    """
    query_center = np.asarray(query_center, dtype=np.float64)
    d = int(query_center.shape[0])
    if isinstance(entries, Hits):
        directory, positions, dists, __ = entries
        _fill_stats(stats, positions.size, 0)
        return LevelScoreTable(None, rows=(
            directory.peer_ids.take(positions), positions, dists,
            (directory.radii, directory.items, directory.rows),
            float(query_radius), d,
        ))
    n = len(entries)
    keys, radii, items, peer_ids, key_sq = entries.columns()
    # ||k - q||^2 = ||k||^2 - 2 k.q + ||q||^2 — one BLAS matvec instead
    # of materialising the (n, d) difference matrix (at d = 512 the
    # subtraction alone costs more than the whole Eq. 1 kernel).
    d2 = key_sq - 2.0 * (keys @ query_center)
    d2 += float(query_center @ query_center)
    np.maximum(d2, 0.0, out=d2)
    dists = np.sqrt(d2)
    intersecting = spheres_intersect_batch(radii, query_radius, dists)
    _fill_stats(stats, n, n - int(np.count_nonzero(intersecting)))
    # Boolean indexing copies, so the table outlives any store mutation.
    radii, dists, items, peer_ids = (
        column[intersecting] for column in (radii, dists, items, peer_ids)
    )
    table = LevelScoreTable(None, rows=(
        peer_ids, np.arange(peer_ids.size), dists, (radii, items, None),
        float(query_radius), d,
    ))
    if isinstance(entries, CandidateSet):
        rows = entries.rows[intersecting]
        table._carry = (
            entries.generation, rows, entries.store.stamps_of(rows),
            None if prior is None else prior._kept,
        )
    return table


def level_scores_scalar(
    entries: list,
    query_center: np.ndarray,
    query_radius: float,
    *,
    stats: dict | None = None,
) -> dict[int, float]:
    """One-sphere-at-a-time Eq. 1 — the oracle for :func:`level_scores`.

    Same contract and same accounting as the batched path; kept as the
    ground truth for the parity tests and the scoring microbenchmark.
    """
    query_center = np.asarray(query_center, dtype=np.float64)
    d = query_center.shape[0]
    scores: dict[int, float] = {}
    pruned = 0
    for entry in entries:
        record = entry.value
        b = float(np.linalg.norm(entry.key - query_center))
        if not spheres_intersect(entry.radius, query_radius, b):
            pruned += 1
            continue  # genuinely disjoint: contributes nothing
        fraction = intersection_fraction(entry.radius, query_radius, b, d)
        if fraction <= 0.0:
            fraction = MIN_INTERSECTING_FRACTION
        scores[record.peer_id] = (
            scores.get(record.peer_id, 0.0) + fraction * record.items
        )
    _fill_stats(stats, len(entries), pruned)
    return scores


def _semi_join(tables: list) -> list:
    """New tables over the rows of the peers every table holds, unsorted.

    Counting replaces sorting: smallest level first, each level's
    peer-id column raises ``seen[id]`` only where every level before it
    did, so the ids that reach the level count are exactly the
    cross-level join, and the sorted join after this runs over their few
    rows (in row order still; the caller's tables are not touched).
    Tables all grouped already, an empty level, or ids too sparse for
    the count array come back as they are.
    """
    if all(table._peers is not None for table in tables):
        return tables
    columns = [
        table._peers if table._rows is None else table._rows[0]
        for table in tables
    ]
    if not all(column.size for column in columns):
        return tables
    low = min(int(column.min()) for column in columns)
    span = max(int(column.max()) for column in columns) - low + 1
    if span > _SPAN_PER_ROW * sum(column.size for column in columns):
        return tables
    columns = [column - low for column in columns]
    seen = np.zeros(span, dtype=np.int16)
    for level, ids in enumerate(sorted(columns, key=len)):
        seen[ids[seen[ids] == level]] = level + 1
    present = seen == len(tables)
    return [
        table._narrowed(present[ids]) for table, ids in zip(tables, columns)
    ]


def check_policy(policy: str) -> None:
    """Raise unless :func:`aggregate_scores` knows ``policy``."""
    if policy not in ("min", "sum", "product"):
        raise ValidationError(
            f"unknown aggregation policy {policy!r}; use min, sum or product"
        )


def aggregate_scores(
    per_level: dict, *, policy: str = "min"
) -> dict[int, float]:
    """Combine per-level scores into one global ``{peer_id: score}``.

    Parameters
    ----------
    per_level:
        Mapping ``level -> scores``, each a :class:`LevelScoreTable` or
        a plain ``{peer_id: score}`` mapping.
    policy:
        ``"min"`` (paper default — peer must appear at every level),
        ``"sum"`` or ``"product"`` (ablations; both also require presence
        at every level to stay comparable with ``min``'s pruning).
    """
    check_policy(policy)
    if not per_level:
        return {}
    # Join first, score second: only peers present at every level can
    # come out, so only their rows go through the Eq. 1 kernel.
    tables = _semi_join(list(map(LevelScoreTable.of, per_level.values())))
    common = tables[0].peers
    for table in tables[1:]:
        common = np.intersect1d(common, table.peers, assume_unique=True)
    if common.size == 0:
        return {}
    stacked = np.stack([table.totals(common) for table in tables])
    if policy == "min":
        reduced = stacked.min(axis=0)
    elif policy == "sum":
        reduced = stacked.sum(axis=0)
    else:
        reduced = np.prod(stacked, axis=0)
    return dict(zip(common.tolist(), reduced.tolist(), strict=True))


def rank_peers(aggregated: dict[int, float]) -> list[tuple[int, float]]:
    """Peers by descending score (ties broken by peer id for determinism)."""
    return sorted(aggregated.items(), key=lambda kv: (-kv[1], kv[0]))


def partial_confidence(
    levels_answered: int,
    levels_total: int,
    peers_answered: int,
    peers_attempted: int,
) -> float:
    """Confidence fraction of a partially-answered query (fault contract).

    Under message loss a query no longer gets all the evidence it asked
    for; instead of raising, the query pipeline scores what arrived and
    reports ``confidence = (levels_answered / levels_total) *
    (peers_answered / peers_attempted)`` — 1.0 exactly when nothing was
    lost. A denominator of zero contributes 1.0 (nothing was attempted,
    so nothing was missed).

    Losing index levels keeps the Theorem 4.1 direction of error safe:
    min-aggregation over *fewer* levels can only admit extra candidate
    peers, never prune a true answer's peer. Losing peer responses is
    the lossy part — recall degrades in proportion, which is what the
    resilience evaluation scenario measures.
    """
    if levels_answered > levels_total or peers_answered > peers_attempted:
        raise ValidationError(
            "answered counts cannot exceed attempted counts"
        )
    level_frac = (
        levels_answered / levels_total if levels_total > 0 else 1.0
    )
    peer_frac = (
        peers_answered / peers_attempted if peers_attempted > 0 else 1.0
    )
    return float(level_frac * peer_frac)
