"""Light-weight streaming and summary statistics used by the evaluation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError


@dataclass
class RunningStats:
    """Welford streaming mean/variance with min/max tracking.

    Used by the simulator's metric counters where accumulating full sample
    arrays per message would be wasteful.
    """

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    _min: float = field(default=math.inf)
    _max: float = field(default=-math.inf)

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values) -> None:
        """Fold an iterable of observations."""
        for value in values:
            self.add(float(value))

    @property
    def mean(self) -> float:
        """Mean of the observations so far (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the observations so far."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new ``RunningStats`` equal to observing both streams."""
        if other.count == 0:
            merged = RunningStats()
            merged.__dict__.update(self.__dict__)
            return merged
        if self.count == 0:
            merged = RunningStats()
            merged.__dict__.update(other.__dict__)
            return merged
        merged = RunningStats()
        merged.count = self.count + other.count
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / merged.count
        )
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged


def gini(values) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, →1 = skewed).

    The one skew statistic: how unevenly traffic, rows, or energy are
    spread across zones/peers (the loadmap's headline) and how evenly the
    wavelet subspaces spread entries (Figure 9). Empty and all-zero samples
    are perfectly equal (0.0); negative values are rejected.
    """
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0:
        return 0.0
    if np.any(arr < 0):
        raise ValidationError("gini is defined for non-negative values only")
    total = arr.sum()
    if total == 0.0:
        return 0.0
    ranks = np.arange(1, arr.size + 1, dtype=np.float64)
    return float(
        (2.0 * np.dot(ranks, arr) / (arr.size * total))
        - (arr.size + 1.0) / arr.size
    )


def summarize(values, *, percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)) -> dict:
    """Summarise a sample into mean/std/min/max and the given percentiles.

    Returns a plain dict so reports can be serialised without custom types.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return {"count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
    out = {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
    for p in percentiles:
        out[f"p{p:g}"] = float(np.percentile(arr, p))
    return out
