"""The serial engine: every shard task runs inline in the calling process.

:class:`SerialEngine` is the scale harness's default execution engine; it
hands the harness's fabric the clock from :mod:`repro.net.events`.
"""

from __future__ import annotations

from repro.engine.base import Engine, EngineConfig, store_mask
from repro.net.events import SerialScheduler


class SerialEngine(Engine):
    """Run every shard task inline, in the calling process.

    Examples
    --------
    >>> engine = SerialEngine()
    >>> type(engine.create_scheduler()).__module__
    'repro.net.events'
    """

    name = "serial"
    parallel = False

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config or EngineConfig())
        self._tasks_run = 0

    def create_scheduler(self) -> SerialScheduler:
        return SerialScheduler()

    def register_store(self, shard_key: int, store) -> None:
        self._stores[shard_key] = store

    def masks(self, tasks):
        """Store-wide intersection masks, computed inline per task."""
        out = []
        for shard_key, center, radius in tasks:
            out.append(store_mask(self._stores[shard_key], center, radius))
            self._tasks_run += 1
        return out

    def score_levels(self, tasks):
        """One scan + an Eq. 1 level table per task, computed inline."""
        from repro.core.scoring import level_scores

        out = []
        for shard_key, center, radius in tasks:
            store = self._stores[shard_key]
            out.append(level_scores(store.hits(center, radius), center, radius))
            self._tasks_run += 1
        return out

    def close(self) -> None:
        self._stores.clear()

    def snapshot(self) -> dict:
        return {
            "engine": self.name,
            "workers": 0,
            "shards": len(self._stores),
            "tasks_run": self._tasks_run,
        }
