"""The execution-engine contract: shard task fan-out for the scale harness.

The paper keys each wavelet level to its *own* CAN overlay; only the
Eq. 1 min-across-levels aggregation joins them. That independence is an
execution property, not just an indexing one: the per-level work of a
query — one store-wide intersection mask plus Eq. 1 scoring over the
surviving rows — touches exactly one level's columns, so levels can run
on separate workers with a single barrier before the min-aggregate.

An :class:`Engine` runs that story for the scale harness
(:mod:`repro.evaluation.scale`); the protocol itself never builds one.
:meth:`Engine.register_store` attaches one :class:`repro.index.LevelStore`
per shard key (the level index), and :meth:`Engine.masks` /
:meth:`Engine.score_levels` fan batched tasks out across the shards,
returning after the epoch barrier. Either engine hands the harness's
fabric the serial clock of :mod:`repro.net.events`.

Both engines run the *same* per-level kernel — one
:meth:`repro.index.CellDirectory.hits` scan handed to
:func:`repro.core.scoring.level_scores` — the serial one through
:meth:`repro.index.LevelStore.hits`, the workers over their own
directory of the shared columns, so parity between engines is by
construction, not by test luck. ``store_mask`` / ``gather_block`` are
the mask-and-gather steps outside that kernel (mask tasks, oracles).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.net.events import SerialScheduler


@dataclass(frozen=True)
class EngineConfig:
    """The ``scale-bench --engine`` / ``--workers`` selection, resolved.

    Shards are whole overlay levels (the paper's natural decomposition).
    """

    engine: str = "serial"
    workers: int = 2
    # Only "level": the e2e benchmark harness still passes it.
    shard_by: str = "level"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValidationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.shard_by != "level":
            raise ValidationError(
                f"shard_by must be 'level', got {self.shard_by!r}"
            )


def store_mask(store, center: np.ndarray, radius: float) -> np.ndarray:
    """Per-row intersection mask — the per-level mask task, inline."""
    return store.intersection_mask(center, radius)


def gather_block(store, mask: np.ndarray):
    """Gather the rows surviving ``mask`` into a scoring ColumnBlock."""
    return store.column_block(np.nonzero(mask)[0])


class Engine(ABC):
    """One execution strategy for the simulator's per-level work."""

    #: Registry name (``--engine`` value).
    name: str = "?"

    #: True when shard tasks actually leave the calling process; the
    #: scale harness then has no store-side scan counts to report.
    parallel: bool = False

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self._stores: dict[int, object] = {}

    @abstractmethod
    def create_scheduler(self) -> SerialScheduler:
        """A fresh clock for one network fabric."""

    @abstractmethod
    def register_store(self, shard_key: int, store) -> None:
        """Attach one level's store under ``shard_key``."""

    @abstractmethod
    def masks(self, tasks) -> list[np.ndarray]:
        """Store-wide intersection masks for ``(key, center, radius)``
        tasks; returns after the epoch barrier, one mask per task in
        task order."""

    @abstractmethod
    def score_levels(self, tasks) -> list[Mapping]:
        """Mask + Eq. 1 scores for ``(key, center, radius)`` tasks;
        returns a :class:`repro.core.scoring.LevelScoreTable` per task
        after the barrier."""

    @abstractmethod
    def close(self) -> None:
        """Release workers and shared state. Idempotent."""

    @abstractmethod
    def snapshot(self) -> dict:
        """JSON-safe engine telemetry for stats/reports."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
