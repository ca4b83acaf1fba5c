"""The execution-engine plane: the scale harness's per-level fan-out.

The protocol (:class:`repro.core.network.HyperMNetwork`) never builds
an engine; the engines serve ``repro scale-bench``
(:mod:`repro.evaluation.scale`) and hand its fabric the clock from
:mod:`repro.net.events`. The package splits into:

* :mod:`repro.engine.base` — the :class:`Engine` contract,
  :class:`EngineConfig`, and the single-sourced shard kernels;
* :mod:`repro.engine.serial` — the inline :class:`SerialEngine`;
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
    gather_block,
    store_mask,
)
from repro.engine.registry import (
    ENGINES,
    create_engine,
    engine_names,
    resolve_engine,
)
from repro.engine.serial import SerialEngine
from repro.engine.sharded import ShardedEngine

__all__ = [
    "ENGINES",
    "Engine",
    "EngineConfig",
    "SerialEngine",
    "ShardedEngine",
    "create_engine",
    "engine_names",
    "gather_block",
    "resolve_engine",
    "store_mask",
]
