"""The execution-engine plane: the clock + the scale harness's fan-out.

Extracted from the implicit event loop in ``repro.net``. The protocol
(:class:`repro.core.network.HyperMNetwork`) uses only the scheduler;
the engines serve ``repro scale-bench`` (:mod:`repro.evaluation.scale`).
The package splits into:

* :mod:`repro.engine.base` — the :class:`Engine` contract,
  :class:`EngineConfig`, and the single-sourced shard kernels;
* :mod:`repro.engine.serial` — :class:`SerialScheduler` (the discrete-
  event clock) and the inline :class:`SerialEngine`;
* :mod:`repro.engine.sharded` — :class:`ShardedEngine`: level shards on
  forked worker processes reading the level stores' shared-memory
  columns zero-copy, synchronized by epoch barriers;
* :mod:`repro.engine.registry` — the ``scale-bench --engine`` name
  registry.

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
    ENGINES,
    create_engine,
    engine_names,
    resolve_engine,
)
from repro.engine.serial import Event, SerialEngine, SerialScheduler
from repro.engine.sharded import ShardedEngine

__all__ = [
    "ENGINES",
    "Engine",
    "EngineConfig",
    "Event",
    "SchedulerProtocol",
    "SerialEngine",
    "SerialScheduler",
    "ShardedEngine",
    "create_engine",
    "engine_names",
    "gather_block",
    "resolve_engine",
    "store_mask",
]
