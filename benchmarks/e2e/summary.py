"""Sample summaries, the metric table and the comparison verdict.

Shared by ``bench.py`` (which summarizes one run) and ``compare.py`` (which
compares two sets of runs).  The gated metrics, their units, directions and
regression bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def metric_table() -> Dict[str, dict]:
    """Every gated end-to-end metric: name -> {unit, better, bound}."""
    return {
        entry["name"]: {"unit": entry["unit"], "better": entry["better"],
                        "bound": entry["bound"]}
        for entry in load_benchmark()["end_to_end"]
    }


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile by the same (exclusive) method."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def describe(value: float, unit: str, samples: Sequence[float]) -> dict:
    """One metric of one run: its value plus the quartiles and count of the
    samples it was computed from."""
    q1, median, q3 = quartiles(samples)
    return {
        "value": value, "unit": unit, "median": median, "q1": q1, "q3": q3,
        "n": len(samples),
    }


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` reads than ``base``, as a share of ``base``
    (negative when it is better)."""
    sign = 1.0 if better == "lower" else -1.0
    if base == 0:
        if new == base:
            return 0.0
        return math.copysign(math.inf, sign * (new - base))
    return sign * (new - base) / abs(base)


#: Fewest base/new pairs on which a gain may be claimed.
MIN_PAIRS = 10


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
    spread: Optional[float] = None,
) -> str:
    """better / worse / unchanged / unresolved for one metric.

    ``base`` and ``new`` hold one value per run.  ``spread`` is the relative
    run-to-run spread; by default the larger quartile distance over median
    of the two sides (pass a run's own sample spread when each side is a
    single run).

    A metric whose spread exceeds its bound is unresolved, unless every new
    run reads better than every base run.  Otherwise it is worse when the
    new median is worse than the base median by more than the bound, and
    better only when the new side wins at least nine tenths of at least
    ``MIN_PAIRS`` index-aligned pairs (ties count for neither) and the
    medians differ by more than the base side's quartile distance.
    """
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = quartiles(new)[1]
    if spread is None:
        spread = max(relative_spread(base), relative_spread(new))

    def is_better(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    pairs = list(zip(base, new))
    enough = len(pairs) >= MIN_PAIRS
    if spread > bound:
        all_better = all(is_better(x, y) for x in new for y in base)
        return "better" if enough and all_better else "unresolved"
    if _worse_by(b_med, n_med, better) > bound:
        return "worse"
    wins = sum(1 for b, n in pairs if is_better(n, b))
    if (
        enough
        and is_better(n_med, b_med)
        and wins >= 0.9 * len(pairs)
        and abs(n_med - b_med) > (b_q3 - b_q1)
    ):
        return "better"
    return "unchanged"
