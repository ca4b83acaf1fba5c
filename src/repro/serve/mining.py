"""Query-log mining: hot keys and hot key-space regions.

*Queries mining for efficient routing in P2P communities* (PAPERS.md)
motivates learning the query workload instead of treating every query as
novel. The serving tier's miner does two things with the served log:

* **Hot keys** — exact per-level ``(key, radius)`` lookups ranked by
  frequency. These are what the engine pre-warms: after a store mutation
  invalidates the candidate cache, the hottest lookups are recomputed in
  one stacked mask pass *before* the next batch pays the miss.
* **Hot regions** — a coarse occupancy grid over each level's key space
  (cell counts decayed geometrically), a JSON-safe demand map that
  complements the store's per-sphere heat column: heat says which
  *published spheres* queries touch, regions say where *query centers*
  concentrate — including cold corners no sphere covers yet.

Per-sphere demand itself flows through
:meth:`repro.index.LevelStore.bump_heat` on every served query, so the
PR 7 :class:`repro.overlay.adapt.AdaptationController` sees cached and
batched queries exactly as it sees sequential ones.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.exceptions import ValidationError
from repro.serve.cache import CandidateKey, candidate_key


class QueryLogMiner:
    """Frequency-ranked hot keys and a decayed hot-region grid."""

    __slots__ = ("_grid", "_capacity", "_decay_every", "_keys", "_regions",
                 "observed")

    def __init__(self, *, grid: int = 8, capacity: int = 512,
                 decay_every: int = 1024):
        if grid < 1:
            raise ValidationError(f"grid must be >= 1, got {grid}")
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        if decay_every < 1:
            raise ValidationError(
                f"decay_every must be >= 1, got {decay_every}"
            )
        self._grid = int(grid)
        self._capacity = int(capacity)
        self._decay_every = int(decay_every)
        #: ``candidate_key -> count`` in LRU order (hot keys stay resident).
        self._keys: OrderedDict[CandidateKey, int] = OrderedDict()
        #: ``(level name, cell tuple) -> decayed count``.
        self._regions: dict[tuple, float] = {}
        self.observed = 0

    def observe(self, level_name: str, level_index: int,
                key: np.ndarray, radius: float) -> None:
        """Record one served per-level lookup."""
        self.observed += 1
        ck = candidate_key(level_index, key, radius)
        self._keys[ck] = self._keys.get(ck, 0) + 1
        self._keys.move_to_end(ck)
        while len(self._keys) > self._capacity:
            self._keys.popitem(last=False)
        cell = tuple(
            int(c) for c in np.minimum(
                (np.clip(key, 0.0, 1.0) * self._grid).astype(np.int64),
                self._grid - 1,
            )
        )
        self._regions[(level_name, cell)] = (
            self._regions.get((level_name, cell), 0.0) + 1.0
        )
        if self.observed % self._decay_every == 0:
            self._decay()

    def _decay(self) -> None:
        """Halve every region count so the map tracks the *current* mix."""
        doomed = []
        for cell, count in self._regions.items():
            count *= 0.5
            if count < 0.25:
                doomed.append(cell)
            else:
                self._regions[cell] = count
        for cell in doomed:
            del self._regions[cell]

    def hot_keys(self, n: int) -> list[CandidateKey]:
        """The ``n`` most-frequent per-level lookups (ties: most recent)."""
        ranked = sorted(
            self._keys.items(),
            key=lambda item: item[1],
            reverse=True,
        )
        return [ck for ck, __ in ranked[: max(n, 0)]]

    def hot_regions(self, n: int) -> list[dict]:
        """The ``n`` hottest key-space cells (JSON-safe rows)."""
        ranked = sorted(
            self._regions.items(), key=lambda item: item[1], reverse=True
        )
        return [
            {"level": level, "cell": list(cell), "count": round(count, 3)}
            for (level, cell), count in ranked[: max(n, 0)]
        ]

    def snapshot(self) -> dict:
        """Miner state summary (JSON-safe) for reports and tests."""
        return {
            "observed": self.observed,
            "distinct_keys": len(self._keys),
            "regions": len(self._regions),
            "hot_regions": self.hot_regions(8),
        }
