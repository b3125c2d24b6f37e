"""Shared utilities: units, deterministic RNG management, validation helpers.

These are deliberately small so every other subpackage can use them without
import cycles.  Only :mod:`repro.util.rng` depends on anything outside the
standard library (numpy); :mod:`repro.util.units` and
:mod:`repro.util.validation` do not.  Exports load on first access
(:func:`repro._lazy.lazy_exports`), so a module that validates or converts
units, the sweep service's parse path among them, does not import numpy
through this package.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "units": (
        "KB_PER_MB",
        "MB",
        "SECONDS_PER_DAY",
        "SECONDS_PER_HOUR",
        "SECONDS_PER_YEAR",
        "format_duration",
        "format_mb",
        "kb_to_mb",
        "mb_to_kb",
    ),
    "rng": ("RngStream", "as_generator", "spawn_children"),
    "validation": (
        "check_finite",
        "check_in_range",
        "check_non_negative",
        "check_positive",
    ),
})

__all__ = [
    "KB_PER_MB",
    "MB",
    "RngStream",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_YEAR",
    "as_generator",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "format_duration",
    "format_mb",
    "kb_to_mb",
    "mb_to_kb",
    "spawn_children",
]
