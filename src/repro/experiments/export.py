"""CSV export of experiment results.

The text tables in :mod:`repro.experiments.render` are for terminals; this
module emits the same series as CSV so downstream tooling (spreadsheets,
pandas, gnuplot) can re-plot the figures.  One function per result type plus
a generic writer; all return the CSV text and optionally write a file.
"""

from __future__ import annotations

import io
import os
from typing import Optional, Sequence, Union

from repro.experiments.falsepositives import FalsePositiveResult
from repro.experiments.fig1 import Fig1Result
from repro.experiments.fig5 import Fig5Result
from repro.experiments.fig6 import Fig6Result
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import Fig8Result
from repro.experiments.table1 import Table1Result


def write_csv(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    path: Optional[Union[str, os.PathLike]] = None,
) -> str:
    """Serialize rows to CSV (RFC-4180-style quoting where needed)."""
    if any(len(r) != len(headers) for r in rows):
        raise ValueError("every row must have one cell per header")

    def cell(value: object) -> str:
        text = repr(value) if isinstance(value, float) else str(value)
        if any(c in text for c in ',"\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    buf = io.StringIO()
    buf.write(",".join(cell(h) for h in headers) + "\n")
    for row in rows:
        buf.write(",".join(cell(v) for v in row) + "\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def fig1_csv(result: Fig1Result, path: Optional[str] = None) -> str:
    """Figure 1: ratio-bin centers and job fractions."""
    rows = [
        (float(c), float(f))
        for c, f in zip(result.bin_centers, result.job_fractions)
    ]
    return write_csv(["ratio_bin_center", "fraction_of_jobs"], rows, path)


def fig5_csv(result: Fig5Result, path: Optional[str] = None) -> str:
    """Figure 5: utilization per load, both configurations."""
    rows = [
        (p0.load, p0.utilization, p1.utilization, p1.utilization / p0.utilization
         if p0.utilization else float("inf"))
        for p0, p1 in zip(result.without_estimation.points, result.with_estimation.points)
    ]
    return write_csv(
        ["offered_load", "util_no_estimation", "util_with_estimation", "ratio"],
        rows,
        path,
    )


def fig6_csv(result: Fig6Result, path: Optional[str] = None) -> str:
    """Figure 6: slowdown per load and the ratio series."""
    rows = [
        (float(load), float(s0), float(s1), float(r))
        for load, s0, s1, r in zip(
            result.loads,
            result.without_estimation.slowdowns,
            result.with_estimation.slowdowns,
            result.slowdown_ratio,
        )
    ]
    return write_csv(
        ["offered_load", "slowdown_no_estimation", "slowdown_with_estimation", "ratio"],
        rows,
        path,
    )


def fig7_csv(result: Fig7Result, path: Optional[str] = None) -> str:
    """Figure 7: the estimate trajectory."""
    rows = [
        (cycle, e_i, e_prime, e_prime >= result.actual_mem)
        for cycle, (e_i, e_prime) in enumerate(
            zip(result.internal, result.estimates), 1
        )
    ]
    return write_csv(["cycle", "internal_estimate", "submitted_estimate", "ok"], rows, path)


def fig8_csv(result: Fig8Result, path: Optional[str] = None) -> str:
    """Figure 8: per-tier-size utilizations and design predictor."""
    rows = [
        (
            p.second_tier_mem,
            p.util_without,
            p.util_with,
            p.ratio,
            p.benefiting_node_count,
            p.frac_failed_executions,
        )
        for p in result.points
    ]
    return write_csv(
        [
            "second_tier_mem",
            "util_no_estimation",
            "util_with_estimation",
            "ratio",
            "benefiting_node_count",
            "frac_failed_executions",
        ],
        rows,
        path,
    )


def table1_csv(result: Table1Result, path: Optional[str] = None) -> str:
    """Table 1: one row per estimator."""
    rows = [
        (
            r.estimator,
            r.feedback,
            r.similarity,
            r.utilization,
            r.mean_slowdown,
            r.frac_failed,
            r.frac_reduced,
        )
        for r in result.rows
    ]
    return write_csv(
        [
            "estimator",
            "feedback",
            "similarity",
            "utilization",
            "mean_slowdown",
            "frac_failed",
            "frac_reduced",
        ],
        rows,
        path,
    )


def falsepositives_csv(result: FalsePositiveResult, path: Optional[str] = None) -> str:
    """False-positive study: one row per (probability, variant)."""
    rows = [
        (p.spurious_prob, p.variant, p.utilization, p.frac_reduced, p.n_spurious)
        for p in result.points
    ]
    return write_csv(
        ["spurious_prob", "variant", "utilization", "frac_reduced", "n_spurious"],
        rows,
        path,
    )
