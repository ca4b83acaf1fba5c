"""The execution-engine plane: schedulers + sharded per-level fan-out.

Extracted from the implicit event loop in ``repro.net`` (PR 10). The
package splits into:

* :mod:`repro.engine.base` — the :class:`Engine` contract,
  :class:`EngineConfig`, and the single-sourced shard kernels;
* :mod:`repro.engine.serial` — :class:`SerialScheduler` (the discrete-
  event clock) and the inline :class:`SerialEngine`;
* :mod:`repro.engine.sharded` — :class:`ShardedEngine` /
  :class:`ShardedScheduler`: level (or row-region) shards on forked
  worker processes reading the level stores' shared-memory columns
  zero-copy, synchronized by epoch barriers;
* :mod:`repro.engine.registry` — the ``--engine`` name registry; the
  selection itself travels in the run context (:mod:`repro.runtime`).

See ``docs/scaling.md`` for the shard topology, barrier protocol, and
shared-memory lifecycle.
"""

from repro.engine.base import (
    Engine,
    EngineConfig,
    SchedulerProtocol,
    gather_block,
    store_mask,
)
from repro.engine.registry import (
    DEFAULT_ENGINE,
    ENGINES,
    create_engine,
    engine_names,
    resolve_engine,
)
from repro.engine.serial import Event, SerialEngine, SerialScheduler
from repro.engine.sharded import ShardedEngine, ShardedScheduler

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "Engine",
    "EngineConfig",
    "Event",
    "SchedulerProtocol",
    "SerialEngine",
    "SerialScheduler",
    "ShardedEngine",
    "ShardedScheduler",
    "create_engine",
    "engine_names",
    "gather_block",
    "resolve_engine",
    "store_mask",
]
