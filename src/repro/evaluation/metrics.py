"""Retrieval and load-distribution metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class PrecisionRecall:
    """Precision and recall of a retrieved set against a relevant set."""

    precision: float
    recall: float
    retrieved: int
    relevant: int

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def precision_recall(retrieved: set, relevant: set) -> PrecisionRecall:
    """Standard set-based precision/recall.

    Conventions for empty sets: with nothing relevant, recall is 1 (there
    was nothing to find); with nothing retrieved, precision is 1 (nothing
    wrong was returned).
    """
    hits = len(retrieved & relevant)
    precision = hits / len(retrieved) if retrieved else 1.0
    recall = hits / len(relevant) if relevant else 1.0
    return PrecisionRecall(
        precision=precision,
        recall=recall,
        retrieved=len(retrieved),
        relevant=len(relevant),
    )


def f1_score(retrieved: set, relevant: set) -> float:
    """F1 of a retrieved set against a relevant set."""
    return precision_recall(retrieved, relevant).f1


def participation_fraction(loads) -> float:
    """Fraction of nodes holding at least one entry (Figure 9's
    "average number of peers holding the data", normalised)."""
    arr = np.asarray(list(loads), dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("loads must be non-empty")
    return float(np.mean(arr > 0))
