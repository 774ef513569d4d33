#!/usr/bin/env python
"""Print the simtest digests of a seed sweep, one stable line per run.

Each line reads ``seed ops violations event_digest report_digest``; the
output carries no timing, so two checkouts that behave identically print
identical text.  A refactor of the read or staging path is checked by
running this against both and diffing::

    PYTHONPATH=src python scripts/simtest_digests.py > change.txt
    PYTHONPATH=<parent checkout>/src python scripts/simtest_digests.py > parent.txt
    diff parent.txt change.txt

By default it sweeps seeds 1-25 at 60 ops.  ``--determinism 7,10,11,17,59
--ops 200`` instead runs each listed seed twice and requires identical
digests (the line is printed once, for the first run).  Exits 1 when any
run found a violation or any determinism pair diverged.

Usage: PYTHONPATH=src python scripts/simtest_digests.py
           [--seeds 1-25] [--ops 60] [--determinism SEEDS]
"""

import argparse
import sys
from typing import List

from repro.simtest.program import generate_program
from repro.simtest.runner import run_program


def parse_seeds(text: str) -> List[int]:
    """``"1-25"`` or ``"7,10,11,59"`` (or a mix) as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _dash, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-25", help="seeds to sweep (default 1-25)")
    parser.add_argument("--ops", type=int, default=60, help="operations per program")
    parser.add_argument(
        "--determinism", metavar="SEEDS",
        help="run these seeds twice each and require identical digests",
    )
    args = parser.parse_args(argv)
    twice = args.determinism is not None
    failed = False
    for seed in parse_seeds(args.determinism if twice else args.seeds):
        program = generate_program(seed, args.ops)
        result = run_program(program)
        print(
            f"{seed} {args.ops} {len(result.violations)} "
            f"{result.event_digest} {result.report_digest}",
            flush=True,
        )
        failed |= bool(result.violations)
        if twice:
            again = run_program(program)
            if (again.event_digest, again.report_digest) != (
                result.event_digest, result.report_digest
            ):
                print(f"{seed} {args.ops} DIVERGED", flush=True)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
