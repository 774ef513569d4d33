"""E9 — Query-Scheduling (Kapitel 3.4.3).

Multi-query batches whose super-tile requests interleave several media.
FIFO execution exchanges media on almost every request; HEAVEN's scheduler
groups requests per medium and sweeps forward.  Both orders run through
the :class:`ParallelExecutor` on a one-drive library.  Series over batch
size: media exchanges and total time for both schedulers.
"""

import numpy as np
import pytest

from repro.bench import ResultTable, speedup
from repro.core import ElevatorScheduler, FIFOScheduler, ParallelExecutor, TapeRequest
from repro.tertiary import GB, MB, TapeLibrary

from _rigs import BENCH_PROFILE

MEDIA = 6
SEGMENTS_PER_MEDIUM = 24
SEGMENT_MB = 8
BATCH_SIZES = [8, 16, 32, 64]


def build_library():
    library = TapeLibrary(BENCH_PROFILE, num_drives=1)
    requests = []
    for m in range(MEDIA):
        library.new_medium(f"m{m}")
        for s in range(SEGMENTS_PER_MEDIUM):
            name = f"m{m}/s{s}"
            library.write_segment(name, SEGMENT_MB * MB, medium_id=f"m{m}")
            _mid, segment = library.segment(name)
            requests.append(
                TapeRequest(name, f"m{m}", segment.offset, segment.length, query_ids=(s,))
            )
    library.unmount_all()
    library.clock.reset()
    return library, requests


def execute(batch, library, scheduler):
    """Run *batch* in *scheduler*'s order; returns the executed report."""
    return ParallelExecutor(library).execute(scheduler.order(batch, library))


def run_sweep():
    rows = []
    rng = np.random.default_rng(5)
    for batch_size in BATCH_SIZES:
        library, requests = build_library()
        batch = list(rng.choice(len(requests), size=batch_size, replace=False))
        batch = [requests[i] for i in batch]

        fifo = execute(batch, library, FIFOScheduler())
        library.unmount_all()
        library.clock.reset()
        elevator = execute(batch, library, ElevatorScheduler())
        rows.append((batch_size, fifo, elevator))
    return rows


def build_table(rows) -> ResultTable:
    table = ResultTable(
        f"E9  Query scheduling: FIFO vs elevator ({MEDIA} media, "
        f"{SEGMENT_MB} MB segments)",
        ["batch", "FIFO exch.", "sched exch.", "FIFO [s]", "sched [s]",
         "sched work [s]", "speedup"],
    )
    for batch_size, fifo, elevator in rows:
        table.add(
            batch_size,
            fifo.exchanges,
            elevator.exchanges,
            fifo.virtual_seconds,
            elevator.virtual_seconds,
            elevator.serial_device_seconds,
            speedup(fifo.virtual_seconds, elevator.virtual_seconds),
        )
    table.note("requests drawn uniformly over media; single drive — "
               "device work equals elapsed time (nothing overlaps)")
    return table


def test_e9_scheduling(benchmark, report_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = build_table(rows)
    report_table("e9_scheduling", table)

    for batch_size, fifo, elevator in rows:
        # Shape: the scheduler needs at most one exchange per medium.
        assert elevator.exchanges <= MEDIA
        assert fifo.exchanges > elevator.exchanges
        assert elevator.virtual_seconds < fifo.virtual_seconds
        # Elevator also winds less within media.
        assert elevator.seek_distance_bytes <= fifo.seek_distance_bytes
        # Single drive, no overlap: elapsed time is pure device work.
        assert fifo.serial_device_seconds == pytest.approx(fifo.virtual_seconds)
        assert elevator.serial_device_seconds == pytest.approx(
            elevator.virtual_seconds
        )
    # The win grows with batch size (FIFO exchange count scales with batch).
    factors = [f.virtual_seconds / e.virtual_seconds for _b, f, e in rows]
    assert factors[-1] > factors[0]
    assert factors[-1] >= 3
