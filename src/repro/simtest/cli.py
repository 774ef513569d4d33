"""The ``simtest`` sub-command: run one program, shrink and write repro
artifacts on failure (``python -m repro simtest --help``)."""

from __future__ import annotations

import argparse
import sys

from .artifacts import write_repro_artifacts
from .program import generate_program
from .runner import MUTATIONS, replay_json, run_program
from .shrink import default_still_fails, shrink_program


def add_parser(sub) -> None:
    """Register ``simtest`` on the CLI's sub-command parsers."""
    sim = sub.add_parser(
        "simtest",
        help="deterministic whole-system simulation against an in-memory oracle",
    )
    sim.add_argument("--seed", type=int, default=0,
                     help="workload seed (same seed = same program and run)")
    sim.add_argument("--ops", type=int, default=60,
                     help="operations to generate")
    sim.add_argument("--replay", metavar="FILE",
                     help="replay a saved program JSON instead of generating")
    sim.add_argument("--mutate", choices=MUTATIONS,
                     help="inject a known bug (harness self-test)")
    sim.add_argument("--check-determinism", action="store_true",
                     help="run twice and require identical digests")
    sim.add_argument("--expect-fail", action="store_true",
                     help="exit 0 only if a violation is found and shrunk "
                          "to at most 10 operations")
    sim.add_argument("--out", default=".simtest-failures",
                     help="directory for repro artifacts on failure")
    sim.set_defaults(handler=cmd_simtest)


def cmd_simtest(args: argparse.Namespace) -> int:
    """Run one simulation program; shrink + write artifacts on failure."""
    if args.replay:
        with open(args.replay, encoding="utf-8") as handle:
            text = handle.read()
        result = replay_json(text, mutate=args.mutate)
        program = result.program
        rerun = lambda: replay_json(text, mutate=args.mutate)  # noqa: E731
    else:
        program = generate_program(args.seed, args.ops)
        result = run_program(program, mutate=args.mutate)
        rerun = lambda: run_program(program, mutate=args.mutate)  # noqa: E731
    config = program.config
    print(
        f"simtest: seed={program.seed} ops={len(program.ops)} "
        f"drives={config.num_drives} policy={config.policy} "
        f"mixins={','.join(config.fault_mixins) or 'none'} "
        f"mutate={args.mutate or 'none'}"
    )
    print(f"run: {result.summary()}")
    print(f"event digest:  {result.event_digest}")
    print(f"report digest: {result.report_digest}")
    if args.check_determinism:
        second = rerun()
        identical = (
            second.event_digest == result.event_digest
            and second.report_digest == result.report_digest
        )
        print(f"determinism: {'ok — digests identical' if identical else 'DIVERGED'}")
        if not identical:
            return 1
    if not result.violations:
        if args.expect_fail:
            print("expected a violation but the run was clean", file=sys.stderr)
            return 1
        return 0
    outcome = shrink_program(program, result, default_still_fails(args.mutate))
    print(
        f"shrunk {outcome.original_ops} -> {outcome.minimized_ops} op(s) "
        f"in {outcome.runs} candidate run(s)"
    )
    for violation in outcome.result.violations:
        print(f"  - {violation.describe()}")
    for path in write_repro_artifacts(outcome.result, args.out, mutate=args.mutate):
        print(f"wrote {path}")
    if args.expect_fail:
        if outcome.minimized_ops <= 10:
            print("expected failure found and minimized — mutation smoke ok")
            return 0
        print(
            f"violation found but repro stayed at {outcome.minimized_ops} ops "
            "(> 10): shrinker regression",
            file=sys.stderr,
        )
    return 1
