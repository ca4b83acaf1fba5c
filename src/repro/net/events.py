"""The simulator's clock: an event queue and a serial scheduler.

:class:`SerialScheduler` is a minimal but complete discrete-event core
where events are ``(time, seq)`` ordered in a binary heap; ``seq`` breaks
ties FIFO so simultaneous events run in scheduling order (deterministic
replays). The paper describes the same design: "we simulated the
parallel behavior of a peer-to-peer network with a scheduler class and an
event queue" (Section 5.2). The construction-time simulation and the
session simulator drive their own scheduler; the fabric's clock only
moves when retry backoff waits (``run_until``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ValidationError


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Ordered by ``(time, seq)`` so the heap pops chronologically with FIFO
    tie-breaking.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        self.cancelled = True


class SerialScheduler:
    """Discrete-event scheduler with a virtual clock.

    Examples
    --------
    >>> sched = SerialScheduler()
    >>> fired = []
    >>> _ = sched.schedule_after(2.0, lambda: fired.append("b"))
    >>> _ = sched.schedule_after(1.0, lambda: fired.append("a"))
    >>> _ = sched.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def __len__(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute virtual ``time`` (>= now)."""
        if time < self._now:
            raise ValidationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        event = Event(time=time, seq=self._seq, action=action)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` after a non-negative ``delay``."""
        if delay < 0:
            raise ValidationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, action)

    def step(self) -> bool:
        """Run the single earliest pending event. Returns False when idle."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.action()
            self.events_processed += 1
            return True
        return False

    def run(self, *, max_events: int | None = None) -> int:
        """Empty the queue (actions may schedule more). Returns events run.

        ``max_events`` guards against runaway feedback loops; ``None`` runs
        until idle.
        """
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def run_until(self, time: float) -> int:
        """Run events with timestamps <= ``time``; advance the clock to it."""
        count = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > time:
                break
            self.step()
            count += 1
        self._now = max(self._now, time)
        return count
