"""The metrics registry (the live one is ``runtime.current.metrics``).

Counters, gauges, and histograms keyed by name plus optional labels, with
a :class:`Timer` context manager for phase timing. Nothing here touches
``time.monotonic`` directly — every clock is an injectable zero-argument
callable, so the discrete-event :class:`repro.net.events.SerialScheduler`
can drive timers with *simulated* seconds (``clock=lambda: scheduler.now``)
just as easily as ``time.perf_counter`` drives them with real ones.

``snapshot()`` emits plain dicts with deterministically sorted keys so
experiment reports diff cleanly across runs.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.exceptions import ValidationError
from repro.utils.stats import RunningStats


def _instrument_key(name: str, labels: dict) -> str:
    """Canonical string key: ``name`` or ``name{a=1,b=x}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name} increment must be >= 0, got {amount}"
            )
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depth, open spans, …)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge by ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount


class Histogram:
    """Streaming distribution summary (count/mean/min/max/std/total)."""

    __slots__ = ("name", "labels", "stats", "total")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.stats = RunningStats()
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the distribution."""
        value = float(value)
        self.stats.add(value)
        self.total += value


class Timer:
    """Context manager observing elapsed clock time into a histogram.

    The clock is any zero-argument callable returning a float; pass
    ``lambda: scheduler.now`` to time in simulated seconds.
    """

    __slots__ = ("histogram", "clock", "_start", "elapsed")

    def __init__(self, histogram: Histogram, clock: Callable[[], float]):
        self.histogram = histogram
        self.clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = self.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = self.clock() - self._start
        self.histogram.observe(self.elapsed)
        return False


class MetricsRegistry:
    """Registry of named instruments with optional labels.

    Parameters
    ----------
    clock:
        Default clock for :meth:`timer`; ``time.perf_counter`` unless a
        simulated clock is injected.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock if clock is not None else time.perf_counter
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, store: dict, cls, name: str, labels: dict):
        key = _instrument_key(name, labels)
        instrument = store.get(key)
        if instrument is None:
            instrument = store[key] = cls(name, labels)
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """The counter registered under ``name`` + ``labels`` (created lazily)."""
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge registered under ``name`` + ``labels`` (created lazily)."""
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram registered under ``name`` + ``labels`` (created lazily)."""
        return self._get(self._histograms, Histogram, name, labels)

    def timer(
        self, name: str, clock: Callable[[], float] | None = None, **labels
    ) -> Timer:
        """A :class:`Timer` feeding the histogram under ``name`` + ``labels``."""
        return Timer(
            self.histogram(name, **labels),
            clock if clock is not None else self.clock,
        )

    def reset(self) -> None:
        """Drop every registered instrument."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot(self) -> dict:
        """Plain-dict summary with deterministic (sorted) key order."""
        histograms = {}
        for key in sorted(self._histograms):
            hist = self._histograms[key]
            stats = hist.stats
            histograms[key] = {
                "count": stats.count,
                "total": hist.total,
                "mean": stats.mean,
                "min": stats.min if stats.count else 0.0,
                "max": stats.max if stats.count else 0.0,
                "std": stats.std,
            }
        return {
            "counters": {
                key: self._counters[key].value
                for key in sorted(self._counters)
            },
            "gauges": {
                key: self._gauges[key].value for key in sorted(self._gauges)
            },
            "histograms": histograms,
        }


# Imported down here because ``repro.runtime`` builds its default context
# from the MetricsRegistry defined above.
from repro import runtime  # noqa: E402


def metrics() -> MetricsRegistry:
    """The run context's registry (instrumentation writes here)."""
    return runtime.current.metrics
