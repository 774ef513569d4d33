#!/usr/bin/env python3
"""Compare two ``run.py --all`` result files, one row per workload x metric.

    python3 benchmarks/e2e_layers/compare.py A.json B.json

``a`` and ``b`` are the medians of each file's repeated runs, ``b/a``
their ratio (base: A).  Verdicts: ``ok``; ``worse`` when B is worse than
A by more than the metric's bound; ``unresolved`` when the spread of the
repeated runs (interquartile range / median, the larger of the two
files) exceeds the bound, so neither can be said.  Exact metrics
(virtual time, counts) must be ``==``: any difference in the worse
direction is ``worse``.  ``failed_share`` must be 0.  Exit status is
non-zero on any ``worse``.

    python3 benchmarks/e2e_layers/compare.py --layers A.json

prints A's traced runs as a table: per-layer metric x workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Sequence

import spec


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def verdict(metric: spec.EndToEnd, a_runs: Sequence[float], b_runs: Sequence[float]) -> tuple:
    a, b = statistics.median(a_runs), statistics.median(b_runs)
    worse_by = (b - a if metric.better == "lower" else a - b) / abs(a) if a else 0.0
    if metric.exact:
        return a, b, 0.0, "ok" if a == b else ("worse" if worse_by > 0 else "better")
    noise = max(spread(a_runs), spread(b_runs))
    if noise > metric.bound:
        return a, b, noise, "unresolved"
    return a, b, noise, "worse" if worse_by > metric.bound else "ok"


def compare(a_file: dict, b_file: dict) -> List[tuple]:
    rows = []
    for workload in spec.WORKLOADS:
        a_runs = a_file["workloads"][workload]["runs"]
        b_runs = b_file["workloads"][workload]["runs"]
        for metric in spec.END_TO_END:
            a, b, noise, word = verdict(
                metric, [run[metric.name] for run in a_runs], [run[metric.name] for run in b_runs])
            bound = "==" if metric.exact else f"{100 * metric.bound:.0f}%"
            rows.append((workload, metric.name, a, b, b / a if a else 0.0, bound, noise, word))
        shares = [
            sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
            for runs in (a_runs, b_runs)
        ]
        rows.append((workload, "failed_share", shares[0], shares[1], 0.0, "0",
                     0.0, "ok" if shares[1] == 0 else "worse"))
    return rows


def layer_table(result: dict) -> str:
    """The traced runs of one result file: one row per metric, one column per workload."""
    lines = [f"{'per-layer metric':46s} {'unit':>6s} " + " ".join(f"{w:>14s}" for w in spec.WORKLOADS)]
    for metric in spec.PER_LAYER:
        cells = [result["workloads"][w]["per_layer"][metric.name] for w in spec.WORKLOADS]
        lines.append(f"{metric.name:46s} {metric.unit:>6s} " + " ".join(f"{value:14.6g}" for value in cells))
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) == 3 and argv[1] == "--layers":
        with open(argv[2]) as handle:
            print(layer_table(json.load(handle)))
        return 0
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as a_handle, open(argv[2]) as b_handle:
        rows = compare(json.load(a_handle), json.load(b_handle))
    print(f"{'workload':14s} {'metric':22s} {'a':>12s} {'b':>12s} {'b/a':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload, name, a, b, ratio, bound, noise, word in rows:
        print(f"{workload:14s} {name:22s} {a:12.5g} {b:12.5g} {ratio:8.4f} {bound:>6s} {100 * noise:6.1f}%  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
