"""The overlay backend registry: name → class.

The paper's first contribution is that Hyper-M "works independently of
the underlying overlay structure"; this registry is where that claim
becomes operational. Every registered backend satisfies the
:class:`repro.overlay.base.Overlay` contract (and is pinned to it by the
parametrized contract suite), so any of them can back a
:class:`repro.core.network.HyperMNetwork`.

The CLI's ``--overlay`` flag puts the resolved class in the run context
(``runtime.current.overlay``), which ``HyperMNetwork`` reads at
construction time when no explicit ``overlay_factory`` is given.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.overlay.baton import BatonNetwork
from repro.overlay.can import CANNetwork
from repro.overlay.vbi import VBITree

#: Every registered backend, by CLI name. Insertion order is the
#: canonical presentation order (matrix experiment, docs, CI).
OVERLAYS: dict[str, type] = {
    "can": CANNetwork,
    "baton": BatonNetwork,
    "vbi": VBITree,
}

DEFAULT_OVERLAY = "can"


def overlay_names() -> list[str]:
    """Registered backend names, in canonical order."""
    return list(OVERLAYS)


def resolve_overlay(name: str) -> type:
    """The backend class registered under ``name``."""
    try:
        return OVERLAYS[name]
    except KeyError:
        known = ", ".join(OVERLAYS)
        raise ValidationError(
            f"unknown overlay {name!r}; known backends: {known}"
        ) from None

