"""Small argument-validation helpers with consistent error messages.

All raise :class:`ValueError` with the offending name and value, which keeps
constructor bodies readable across the library.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional


def check_finite(name: str, value: float) -> float:
    """Require ``value`` to be a finite real number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Require ``value`` to be strictly positive and finite."""
    check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value`` to be >= 0 and finite."""
    check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_integer(name: str, value: int, minimum: Optional[int] = None) -> int:
    """Require ``value`` to be an integer (not a bool), optionally >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Require ``value`` to lie inside the given (possibly open) interval."""
    check_finite(name, value)
    if low is not None:
        if low_inclusive and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value!r}")
        if not low_inclusive and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value!r}")
    if high is not None:
        if high_inclusive and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value!r}")
        if not high_inclusive and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value!r}")
    return value
