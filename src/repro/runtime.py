"""The one run context: what every network built in this process runs on.

Hyper-M's protocol (summarise, publish, query) is independent of what
runs underneath it. "Underneath" is six values, and they live in one
object, :data:`current`:

``overlay``
    Overlay backend class for new :class:`~repro.core.network.HyperMNetwork`
    levels (``None`` = CAN).
``fault_plan``
    :class:`~repro.faults.FaultPlan` new fabrics install (``None`` = a
    clean fabric).
``adapt``
    :class:`~repro.overlay.adapt.AdaptConfig` new networks attach a
    controller for (``None`` = no adaptation).
``metrics``
    The :class:`~repro.obs.registry.MetricsRegistry` instrumentation
    writes to (:func:`repro.obs.registry.metrics` returns it).
``tracer``
    The span recorder.
``flight``
    The flight recorder (a :class:`~repro.obs.flight.FlightRecorder`,
    whose operations are spans too).

Both recorder slots default to the one null object,
:data:`repro.obs.trace.NULL_RECORDER`. They stay two slots because they
hold two different trees: a trace span counts its descendants' traffic,
a flight operation only its own frames.

``HyperMNetwork`` and ``Network`` read the first three once, at
construction; an explicit constructor argument wins over the context.
Instrumented code reads ``runtime.current.tracer`` / ``.flight`` at every
operation, so those stay plain attribute loads: :func:`run_context`
mutates the one object in place and never replaces it.

The slot is a module global on purpose, not a ``contextvars`` variable:
the simulator is single-threaded, and the serve tier's coroutines must
see the recorder their caller installed.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_RECORDER


class RunContext:
    """The six ambient values of a run; see the module docstring."""

    __slots__ = (
        "overlay", "fault_plan", "adapt",
        "metrics", "tracer", "flight",
    )

    def __init__(self) -> None:
        self.overlay = None
        self.fault_plan = None
        self.adapt = None
        self.metrics = MetricsRegistry()
        self.tracer = NULL_RECORDER
        self.flight = NULL_RECORDER


#: The process-wide context. Bind the module (``from repro import
#: runtime``) and read ``runtime.current.<field>``.
current = RunContext()


@contextmanager
def run_context(**fields):
    """Override the named :class:`RunContext` fields for a block.

    Fields not named keep their value; on exit (exceptions included)
    the named ones get back the value they had on entry, so blocks nest.

    >>> from repro.obs.trace import TraceRecorder
    >>> rec = TraceRecorder()
    >>> with run_context(tracer=rec):
    ...     with current.tracer.span("demo"):
    ...         pass
    >>> [s.name for s in rec.spans], current.tracer.enabled
    (['demo'], False)
    """
    # Reading first rejects an unknown name before anything is changed.
    previous = {name: getattr(current, name) for name in fields}
    for name, value in fields.items():
        setattr(current, name, value)
    try:
        yield
    finally:
        for name, value in previous.items():
            setattr(current, name, value)
