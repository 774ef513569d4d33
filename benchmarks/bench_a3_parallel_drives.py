"""A3 (ablation) — inter-query parallelism over multiple drives
(Kapitel 3.7.3 context: the ESTEDI platform's parallelisation track).

A batched workload whose requests spread over many media is **executed**
across 1/2/4/8 drives by the discrete-event :class:`ParallelExecutor`:
the batch's serial schedule (elevator order, each medium on the drive the
serial loop would pick: its holder, else a free drive, else the least
recently used one), overlapped on per-drive virtual timelines, with the
robot arm serving exchanges in schedule order.  Series: executed makespan
and speedup (device work over makespan) next to the planner's estimate —
the two must agree within the executor's validation tolerance.
"""

import numpy as np
import pytest

from repro.bench import ResultTable
from repro.core import ParallelExecutor, TapeRequest, plan_parallel
from repro.tertiary import MB, TapeLibrary

from _rigs import BENCH_PROFILE

MEDIA = 8
SEGMENTS_PER_MEDIUM = 12
SEGMENT_MB = 8
BATCH = 48
DRIVES = [1, 2, 4, 8]


def build_batch(num_drives=1):
    library = TapeLibrary(BENCH_PROFILE, num_drives=num_drives)
    requests = []
    for m in range(MEDIA):
        library.new_medium(f"m{m}")
        for s in range(SEGMENTS_PER_MEDIUM):
            name = f"m{m}/s{s}"
            library.write_segment(name, SEGMENT_MB * MB, medium_id=f"m{m}")
            _mid, segment = library.segment(name)
            requests.append(
                TapeRequest(name, f"m{m}", segment.offset, segment.length)
            )
    library.unmount_all()
    library.clock.reset()
    rng = np.random.default_rng(9)
    chosen = rng.choice(len(requests), size=BATCH, replace=False)
    return library, [requests[i] for i in chosen]


def run_sweep():
    """Execute the same batch on a fresh library per drive count."""
    rows = []
    for drives in DRIVES:
        library, batch = build_batch(num_drives=drives)
        plan = plan_parallel(batch, library, drives)
        report = ParallelExecutor(library, num_drives=drives).execute(batch)
        rows.append((drives, plan, report))
    return rows


def build_table(rows) -> ResultTable:
    table = ResultTable(
        f"A3  Parallel drives: executed makespan of a {BATCH}-request batch "
        f"over {MEDIA} media",
        ["drives", "makespan [s]", "speedup", "planned [s]", "drift",
         "robot wait [s]", "exch."],
    )
    for drives, plan, report in rows:
        table.add(
            drives,
            report.makespan_seconds,
            report.speedup,
            plan.makespan_seconds,
            f"{report.estimate_drift:.2%}",
            report.robot_wait_seconds,
            report.exchanges,
        )
    table.note(
        "executed on per-drive timelines; speedup = device work (every charged "
        "second but robot-arm waits) / makespan; media are indivisible, the "
        "robot arm is shared"
    )
    return table


def test_a3_parallel_drives(benchmark, report_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = build_table(rows)
    report_table("a3_parallel_drives", table)

    speedups = [report.speedup for _d, _p, report in rows]
    # Shape: monotone speedup; 2 drives clear the acceptance bar; bounded.
    assert speedups == sorted(speedups)
    assert speedups[0] == pytest.approx(1.0)
    assert speedups[1] >= 1.5  # 2 drives (executed, not estimated)
    assert speedups[-1] <= MEDIA  # bounded by indivisible media
    makespans = [report.makespan_seconds for _d, _p, report in rows]
    assert makespans == sorted(makespans, reverse=True)
    for _d, plan, report in rows:
        # The planner replays the executor's dispatch: agreement <= 10 %.
        assert report.makespan_seconds == pytest.approx(
            plan.makespan_seconds, rel=0.10
        )
        # Work conservation: same bytes regardless of the drive count.
        assert report.bytes_read == rows[0][2].bytes_read
