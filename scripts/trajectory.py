#!/usr/bin/env python
"""Print the committed end-to-end result sets as a trajectory.

Every perf change commits its ``benchmarks/e2e_layers/run.py --all
--repeats 3 --out FILE`` result set at the repo root as
``BENCH_<NN>_<slug>.json`` (NN: the change's number), stamped with the
commit it measured (``context.commit``).  A set committed together with
the change it measures cannot name that change's own hash: it names the
parent's with a trailing ``+`` (the parent plus this change).

For every workload, this prints one row per end-to-end metric and one
column per committed set, in NN order: the median of the set's untraced
runs.  The exact (virtual) metrics read the same in every run; the wall
rows are medians of three runs on whatever host measured them, so compare
those with ``scripts/ab.py``, not across columns.

Usage::

    python scripts/trajectory.py [--root DIR] [--workload W] [--metric M]
    python scripts/trajectory.py stamp RESULT.json BENCH_<NN>_<slug>.json --commit SHA[+]

``stamp`` copies a ``run.py --out`` file to the root under its committed
name and sets ``context.commit``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"^BENCH_(\d+)_([a-z0-9_]+)\.json$")
COMMIT_RE = re.compile(r"^[0-9a-f]{7,40}\+?$")


def end_to_end_metrics() -> List[str]:
    """The end-to-end metric names ``BENCHMARK.json`` declares, in its order."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)["end_to_end"]]


def committed(root: str = REPO_ROOT) -> List[Tuple[int, str, dict]]:
    """``(NN, file name, result set)`` of every ``BENCH_*.json`` under *root*, in NN order."""
    sets = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        name = os.path.basename(path)
        match = NAME_RE.match(name)
        if match is None:
            raise ValueError(f"{name}: not named BENCH_<NN>_<slug>.json")
        with open(path, encoding="utf-8") as handle:
            sets.append((int(match.group(1)), name, json.load(handle)))
    return sorted(sets, key=lambda entry: entry[0])


def medians(result: dict, workload: str, metrics: List[str]) -> Dict[str, float]:
    """Median of each of *metrics* over the workload's untraced runs."""
    runs = result["workloads"].get(workload, {}).get("runs", [])
    return {
        metric: statistics.median(run[metric] for run in runs)
        for metric in metrics
        if runs and all(metric in run for run in runs)
    }


def cell(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def short(commit: str) -> str:
    """A commit stamp at 7 hex digits, keeping a trailing ``+``."""
    return commit[:7] + ("+" if commit.endswith("+") else "")


def render(sets: List[Tuple[int, str, dict]], workloads: List[str], metrics: List[str]) -> str:
    header = [str(number) for number, _, _ in sets]
    commits = [short(result["context"].get("commit", "?")) for _, _, result in sets]
    blocks = []
    for workload in workloads:
        columns = [medians(result, workload, metrics) for _, _, result in sets]
        rows = [[workload] + header, ["commit"] + commits]
        rows += [[metric] + [cell(column.get(metric)) for column in columns] for metric in metrics]
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        blocks.append("\n".join(
            "  ".join(text.ljust(width) if i == 0 else text.rjust(width)
                      for i, (text, width) in enumerate(zip(row, widths)))
            for row in rows
        ))
    return "\n\n".join(blocks)


def stamp(source: str, name: str, commit: str, root: str = REPO_ROOT) -> str:
    """Copy run.py's result file *source* to ``root/name`` with ``context.commit`` set."""
    if NAME_RE.match(name) is None:
        raise ValueError(f"{name}: not named BENCH_<NN>_<slug>.json")
    if COMMIT_RE.match(commit) is None:
        raise ValueError(f"{commit!r}: not a hex commit hash (optionally ending in '+')")
    with open(source, encoding="utf-8") as handle:
        result = json.load(handle)
    result["context"]["commit"] = commit
    target = os.path.join(root, name)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    return target


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["stamp"]:
        parser = argparse.ArgumentParser(prog="trajectory.py stamp")
        parser.add_argument("source")
        parser.add_argument("name")
        parser.add_argument("--commit", required=True)
        parser.add_argument("--root", default=REPO_ROOT)
        args = parser.parse_args(argv[1:])
        print(stamp(args.source, args.name, args.commit, args.root))
        return 0
    metrics = end_to_end_metrics()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT, help="directory holding the BENCH_*.json files")
    parser.add_argument("--workload", action="append", help="only this workload (repeatable)")
    parser.add_argument("--metric", action="append", choices=metrics, help="only this metric (repeatable)")
    args = parser.parse_args(argv)
    sets = committed(args.root)
    if not sets:
        print(f"no BENCH_*.json under {args.root}", file=sys.stderr)
        return 1
    workloads = args.workload or list(sets[-1][2]["workloads"])
    print(render(sets, workloads, args.metric or metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
