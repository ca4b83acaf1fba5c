"""Engine registry: the ``scale-bench --engine`` name -> class map."""

from __future__ import annotations

from repro.engine.base import EngineConfig
from repro.engine.serial import SerialEngine
from repro.engine.sharded import ShardedEngine
from repro.exceptions import ValidationError

#: Registered engines by CLI name.
ENGINES: dict[str, type] = {
    "serial": SerialEngine,
    "sharded": ShardedEngine,
}


def engine_names() -> list[str]:
    """Registered engine names, registration order."""
    return list(ENGINES)


def resolve_engine(name: str) -> type:
    """Engine class for ``name``; raises with the known list otherwise."""
    try:
        return ENGINES[name]
    except KeyError:
        known = ", ".join(ENGINES)
        raise ValidationError(
            f"unknown engine {name!r} (known: {known})"
        ) from None


def create_engine(config: EngineConfig | None = None):
    """Build an engine instance from ``config`` (default: serial)."""
    config = config or EngineConfig()
    return resolve_engine(config.engine)(config)
