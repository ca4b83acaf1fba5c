"""Argument validation helpers.

Every public entry point in the library validates its inputs through these
helpers so error messages are uniform and point at the offending argument.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import DimensionalityError, ValidationError


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite number.

    Parameters
    ----------
    value:
        The number to check.
    name:
        Argument name used in the error message.
    strict:
        When true (default) zero is rejected; otherwise zero is allowed.

    Returns
    -------
    float
        ``value`` unchanged, for call-site chaining.
    """
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_count(value, name: str, *, floor: int = 1) -> int:
    """Validate a whole-number count ``>= floor``.

    NumPy integers pass; ``bool`` and floats do not — ``2.7`` would be
    truncated somewhere downstream and ``True`` read as 1.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < floor
    ):
        raise ValidationError(
            f"{name} must be an integer >= {floor}, got {value!r}"
        )
    return int(value)


def check_peer_budget(value, name: str) -> int | None:
    """Validate a contact budget: ``None`` (no limit) or an integer >= 0.

    NumPy integers pass; ``bool`` and floats do not — the budget is used
    as a slice bound, where a negative value would silently drop peers
    from the low end of the ranking instead of limiting the top.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < 0
    ):
        raise ValidationError(
            f"{name} must be None or a non-negative integer, got {value!r}"
        )
    return int(value)


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer power of two."""
    if value != int(value) or value < 1:
        raise DimensionalityError(f"{name} must be a positive integer, got {value!r}")
    value = int(value)
    if value & (value - 1) != 0:
        raise DimensionalityError(f"{name} must be a power of two, got {value}")
    return value


def check_vector(x: np.ndarray, name: str, *, dim: int | None = None) -> np.ndarray:
    """Validate and coerce a 1-D float vector.

    Parameters
    ----------
    x:
        Array-like to validate.
    name:
        Argument name used in error messages.
    dim:
        When given, the required length of the vector.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got ndim={arr.ndim}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionalityError(
            f"{name} must have length {dim}, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_matrix(
    x: np.ndarray, name: str, *, dim: int | None = None, min_rows: int = 1
) -> np.ndarray:
    """Validate and coerce a 2-D float matrix of row vectors."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < min_rows:
        raise ValidationError(
            f"{name} must have at least {min_rows} row(s), got {arr.shape[0]}"
        )
    if dim is not None and arr.shape[1] != dim:
        raise DimensionalityError(
            f"{name} must have {dim} columns, got {arr.shape[1]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_unit_cube(x: np.ndarray, name: str, *, tol: float = 1e-9) -> np.ndarray:
    """Validate that all coordinates of ``x`` lie in [0, 1] (within ``tol``)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (arr.min() < -tol or arr.max() > 1.0 + tol):
        raise ValidationError(
            f"{name} must lie in the unit cube [0, 1]^d; "
            f"range is [{arr.min():.6g}, {arr.max():.6g}]"
        )
    return np.clip(arr, 0.0, 1.0)
