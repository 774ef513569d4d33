#!/usr/bin/env python
"""Paired A/B runs of one end-to-end workload on two source trees.

Runs ``benchmarks/e2e_layers/run.py --trace 0`` of each tree, with
``PYTHONPATH=<tree>/src``, in a fresh subprocess per run: ``--pairs``
pairs, alternating the order (parent first, then change first, ...), so
a slow or fast spell of a shared host lands on both sides.  Each child's
CPU seconds (user + system, from ``getrusage(RUSAGE_CHILDREN)`` deltas)
are recorded next to the metrics the run prints.

For every end-to-end metric of ``BENCHMARK.json``, and ``cpu_s``, it
prints:

* both sides' medians and spreads (interquartile range / median);
* the median of the per-pair ratios change / parent, with a seeded
  bootstrap 95 % interval (pairs resampled with replacement);
* pairs won by the change (ties count for neither side);
* ``9/10+IQR``: whether the change won at least nine tenths of the pairs
  and the medians differ by more than the parent's interquartile range;
* a verdict: ``better`` or ``worse`` when the interval excludes 1.0,
  ``same`` when every pair reads exactly equal, else ``unresolved``.

With ``--seeds A-B`` pair *i* runs workload seed *i* on both trees
(``--pairs`` is then the seed count).  A virtual-clock metric is exact, so
ten pairs of one seed only repeat one ratio; over a seed range the same
columns give its per-seed ratio distribution, the seeds the change won and
an interval of the median ratio.

Usage::

    python scripts/ab.py --parent TREE --change TREE --workload W --pairs N [--seed S]
        [--out FILE]
    python scripts/ab.py --parent TREE --change TREE --workload W --seeds A-B [--out FILE]

A tree is a checkout of this repository (``git clone`` the parent into a
scratch directory).  An A/A check passes the same tree twice: its wall
intervals should contain 1.0.  Stdlib only; the runs need numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("benchmarks", "e2e_layers", "run.py")
#: bootstrap resamples per interval
RESAMPLES = 10_000


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: str, workload: str, seed: int) -> Dict[str, float]:
    """One untraced run of *tree*, at the runner's own length: its
    end-to-end metrics, ``cpu_s`` and ``failed``."""
    command = [sys.executable, os.path.join(tree, RUNNER), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    before = cpu_seconds()
    done = subprocess.run(command, env=env, capture_output=True, text=True, cwd=tree)
    cpu = cpu_seconds() - before
    if done.returncode != 0:
        sys.exit(f"ab: {' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in report["metrics"].items()}
    values["cpu_s"] = cpu
    values["failed"] = report["failed"]
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def bootstrap(ratios: List[float], seed: int) -> Tuple[float, float]:
    """95 % interval of the median of *ratios*, pairs resampled."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)
    )
    return medians[int(0.025 * RESAMPLES)], medians[int(0.975 * RESAMPLES) - 1]


def directions() -> Dict[str, str]:
    """metric -> "higher" or "lower" (is better), from BENCHMARK.json."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    better["cpu_s"] = "lower"
    return better


def summarise(pairs: List[Tuple[Dict[str, float], Dict[str, float]]], seed: int) -> List[dict]:
    rows = []
    for name, better in directions().items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p_low, p_mid, p_high = quartiles(parent)
        c_low, c_mid, c_high = quartiles(change)
        # a zero parent reads 1.0 against a zero change (a count that stayed 0)
        ratios = [c / p if p else 1.0 if c == p else float("inf")
                  for p, c in zip(parent, change)]
        low, high = bootstrap(ratios, seed)
        sign = 1 if better == "higher" else -1
        won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        if parent == change:
            verdict = "same"
        elif (low > 1.0 and sign > 0) or (high < 1.0 and sign < 0):
            verdict = "better"
        elif (low > 1.0 and sign < 0) or (high < 1.0 and sign > 0):
            verdict = "worse"
        else:
            verdict = "unresolved"
        rows.append({
            "metric": name, "better": better,
            "parent_median": p_mid, "change_median": c_mid,
            "parent_spread": (p_high - p_low) / p_mid if p_mid else 0.0,
            "change_spread": (c_high - c_low) / c_mid if c_mid else 0.0,
            "ratio": statistics.median(ratios), "ci": (low, high),
            "won": won, "pairs": len(pairs),
            "gate": won >= 0.9 * len(pairs) and abs(c_mid - p_mid) > p_high - p_low,
            "verdict": verdict,
        })
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"{'metric':<22} {'parent':>10} {'change':>10} {'ratio':>7} {'95% interval':>17} "
          f"{'won':>6} {'spread P/C':>13} {'9/10+IQR':>8}  verdict")
    for row in rows:
        low, high = row["ci"]
        print(f"{row['metric']:<22} {row['parent_median']:>10.4g} {row['change_median']:>10.4g} "
              f"{row['ratio']:>7.3f} {f'[{low:.3f}, {high:.3f}]':>17} "
              f"{row['won']:>2}/{row['pairs']:<3} "
              f"{row['parent_spread']:>6.1%}/{row['change_spread']:<6.1%} "
              f"{'yes' if row['gate'] else 'no':>8}  {row['verdict']}")


def seed_range(text: str) -> List[int]:
    """``"A-B"`` -> the seeds A..B, both included (``"A"`` -> [A])."""
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source tree A (the baseline)")
    parser.add_argument("--change", required=True, help="source tree B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20040314, help="workload seed")
    parser.add_argument("--seeds", type=seed_range, metavar="A-B",
                        help="pair i runs seed i on both trees (overrides --pairs, --seed)")
    parser.add_argument("--out", help="write every run's values and the summary as JSON")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = args.seeds or [args.seed] * args.pairs
    args.pairs = len(seeds)
    pairs = []
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        got = {side: run_once(trees[side], args.workload, seed) for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"pair {index + 1}/{args.pairs} (seed {seed}, {order[0]} first): wall_mb_s "
              f"{got['parent']['wall_mb_s']:.2f} -> {got['change']['wall_mb_s']:.2f}, "
              f"virtual_makespan_s {got['parent']['virtual_makespan_s']:.1f} -> "
              f"{got['change']['virtual_makespan_s']:.1f}, "
              f"cpu_s {got['parent']['cpu_s']:.1f} -> {got['change']['cpu_s']:.1f}",
              flush=True)
    failed = {"parent": sum(p["failed"] for p, _ in pairs),
              "change": sum(c["failed"] for _, c in pairs)}
    seed_text = f"seeds {seeds[0]}-{seeds[-1]}" if args.seeds else f"seed {args.seed}"
    print(f"\nab: {args.workload}, {seed_text}, {args.pairs} pairs; "
          f"parent {trees['parent']}, change {trees['change']}; "
          f"failed ops parent {failed['parent']}, change {failed['change']}")
    rows = summarise(pairs, args.seed)
    print_rows(rows)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"args": vars(args), "pairs": pairs, "summary": rows}, handle, indent=1)
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
