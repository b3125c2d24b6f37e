"""Compare two sets of benchmark runs, one row per (workload, metric).

    python benchmarks/e2e/compare.py A B

``A`` (the base, e.g. the parent commit) and ``B`` (the change) are result
documents written by ``bench.py --out`` -- one run per file, or the combined
``bench.json`` of a full run -- or directories searched for them.  Each row
gives both sides' median and quartiles over their runs and a verdict from
``summary.verdict``: better, worse, unchanged, or unresolved when the
run-to-run spread exceeds the metric's bound.  With a single run per side,
that run's own sample quartiles stand in for the spread.  Only the metrics
``BENCHMARK.json`` gates get a verdict, with its bounds and directions; the
other end-to-end metrics and the per-layer metrics of traced runs are listed
after, without one.

Exit status 1 when any metric reads worse.
"""

from __future__ import annotations

import argparse
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from summary import MIN_PAIRS, metric_table, quartiles, relative_spread, verdict


def load_runs(path: Path) -> List[dict]:
    """Every distinct single-workload result document under ``path``."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, dict] = {}
    for file in files:
        doc = json.loads(file.read_text())
        docs = list(doc["workloads"].values()) if "workloads" in doc else [doc]
        for run in docs:
            if "metrics" in run and "workload" in run:
                runs[json.dumps(run, sort_keys=True)] = run
    return list(runs.values())


def collect(runs: List[dict], key: str) -> Dict[Tuple[str, str], List[dict]]:
    """(workload, metric) -> that metric's entry in each run, in run order."""
    out: Dict[Tuple[str, str], List[dict]] = defaultdict(list)
    for run in sorted(runs, key=lambda r: r["seed"]):
        traced = bool(run.get("trace"))
        if key == "metrics" and traced:
            continue  # tracing costs time; end-to-end numbers come untraced
        for name, entry in run.get(key, {}).items():
            out[run["workload"], name].append(entry)
    return out


def _within_run_spread(entries: List[dict]) -> float:
    entry = entries[0]
    if entry["median"] == 0:
        return 0.0 if entry["q3"] == entry["q1"] else math.inf
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def _cell(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(base_runs: List[dict], new_runs: List[dict]) -> Tuple[List[str], bool]:
    table = metric_table()
    base, new = collect(base_runs, "metrics"), collect(new_runs, "metrics")
    lines = [f"{'workload':<15}{'metric':<22}{'unit':<9}{'base median [q1, q3]':<40}"
             f"{'new median [q1, q3]':<40}{'change':>9}  {'spread':>7}/{'bound':<6} verdict"]
    any_worse = False
    ungated = []
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        if name not in table:
            ungated.append(key)
            continue
        meta = table[name]
        b = [e["value"] for e in base[key]]
        n = [e["value"] for e in new[key]]
        spread = None
        if len(b) == 1 and len(n) == 1:
            spread = max(_within_run_spread(base[key]), _within_run_spread(new[key]))
        result = verdict(b, n, meta["better"], meta["bound"], spread)
        any_worse |= result == "worse"
        b_med, n_med = quartiles(b)[1], quartiles(n)[1]
        change = (n_med - b_med) / abs(b_med) if b_med else 0.0
        shown = spread if spread is not None else max(relative_spread(b), relative_spread(n))
        lines.append(f"{workload:<15}{name:<22}{meta['unit']:<9}{_cell(b):<40}{_cell(n):<40}"
                     f"{change:>+9.2%}  {shown:>7.3f}/{meta['bound']:<6g} {result}")
    if ungated:
        lines.append("reported, not gated (no bound, no verdict):")
        lines.extend(_plain_rows(base, new, ungated))
    base_l, new_l = collect(base_runs, "per_layer"), collect(new_runs, "per_layer")
    layer_keys = sorted(base_l.keys() & new_l.keys())
    if layer_keys:
        lines.append("per-layer (traced runs; no bound, no verdict):")
        lines.extend(_plain_rows(base_l, new_l, layer_keys))
    return lines, any_worse


def _plain_rows(base: dict, new: dict, keys: List[Tuple[str, str]]) -> List[str]:
    rows = []
    for workload, name in keys:
        b = [e["value"] for e in base[workload, name]]
        n = [e["value"] for e in new[workload, name]]
        unit = base[workload, name][0]["unit"]
        rows.append(f"{workload:<15}{name:<27}{unit:<9}{_cell(b):<40}{_cell(n):<40}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="result file or directory (e.g. the parent)")
    parser.add_argument("new", type=Path, help="result file or directory (e.g. the change)")
    args = parser.parse_args(argv)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    lines, any_worse = compare(base_runs, new_runs)
    print("\n".join(lines))
    runs = Counter(r["workload"] for r in base_runs + new_runs if not r.get("trace"))
    if any(count < 2 * MIN_PAIRS for count in runs.values()):
        print(f"note: no gain is claimed on fewer than {MIN_PAIRS} runs per side "
              "and workload (alternate which side runs first)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
