"""Open-loop load generation against a :class:`~repro.serve.ServeEngine`.

Open-loop means arrivals follow a fixed schedule that never waits for
completions — the generator models independent clients, so a slow server
faces a growing queue instead of a conveniently self-throttling one.
Latency is measured from each request's *intended* arrival time to its
completion, which charges any schedule slip to the server; a closed-loop
generator would silently absorb it (coordinated omission) and report
flattering tails.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.serve.engine import KnnRequest, RangeRequest, ServeEngine
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LoadReport:
    """One open-loop run's outcome (all latencies in milliseconds)."""

    offered_qps: float
    completed_qps: float
    requests: int
    completed: int
    shed: int
    duration_s: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    mean_batch: float

    def to_dict(self) -> dict:
        """JSON-safe row for bench artifacts."""
        return {
            "offered_qps": round(self.offered_qps, 2),
            "completed_qps": round(self.completed_qps, 2),
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "duration_s": round(self.duration_s, 4),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "mean_batch": round(self.mean_batch, 2),
        }


def run_open_loop(
    engine: ServeEngine,
    requests: list[RangeRequest | KnnRequest],
    *,
    rate: float,
) -> LoadReport:
    """Fire ``requests`` at ``rate`` per second; return the latency report.

    Starts and stops the engine around the run. Shed requests count
    against completion QPS but not against the latency percentiles
    (their latency is the admission check, which is ~0 by design).
    """
    check_positive(rate, "rate")
    if not requests:
        raise ValidationError("no requests to fire")
    return asyncio.run(_drive(engine, requests, rate))


async def _drive(engine, requests, rate) -> LoadReport:
    await engine.start()
    loop = asyncio.get_running_loop()
    start = loop.time()
    latencies: list[float] = []
    batch_sizes: list[int] = []
    shed = 0

    async def fire(index: int, request) -> None:
        nonlocal shed
        intended = start + index / rate
        delay = intended - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        response = await engine.submit(request)
        if response.status == "shed":
            shed += 1
            return
        # Completion minus *intended* arrival: schedule slip caused by a
        # busy event loop is server-induced queueing and must be charged.
        latencies.append(loop.time() - intended)
        batch_sizes.append(response.batch_size)

    await asyncio.gather(
        *(fire(index, request) for index, request in enumerate(requests))
    )
    duration = loop.time() - start
    await engine.stop()
    lat_ms = np.asarray(latencies, dtype=np.float64) * 1000.0
    completed = len(latencies)
    return LoadReport(
        offered_qps=rate,
        completed_qps=completed / duration if duration > 0 else 0.0,
        requests=len(requests),
        completed=completed,
        shed=shed,
        duration_s=duration,
        p50_ms=float(np.percentile(lat_ms, 50)) if completed else 0.0,
        p99_ms=float(np.percentile(lat_ms, 99)) if completed else 0.0,
        mean_ms=float(lat_ms.mean()) if completed else 0.0,
        max_ms=float(lat_ms.max()) if completed else 0.0,
        mean_batch=(
            float(np.mean(batch_sizes)) if batch_sizes else 0.0
        ),
    )
