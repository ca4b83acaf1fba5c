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
* :mod:`repro.engine.registry` — the ``--engine`` name registry and the
  ambient ``engine_scope`` idiom, mirroring ``overlay_scope``.

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
    active_engine_config,
    create_engine,
    engine_names,
    engine_scope,
    resolve_engine,
    set_active_engine_config,
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
    "active_engine_config",
    "create_engine",
    "engine_names",
    "engine_scope",
    "gather_block",
    "resolve_engine",
    "set_active_engine_config",
    "store_mask",
]
