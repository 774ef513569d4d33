#!/usr/bin/env python
"""Measure the wall-clock overhead of the observability layer.

Runs the same archive-and-retrieve workload with observability disabled
and enabled (tracer + instruments, as REPRO_TRACE=1 would configure it),
takes the best of several repeats of each, and fails if tracing costs
more than the allowed overhead. Also asserts the retrieval reports are
identical both ways — instrumentation must never change simulated
results.

A third mode runs the traced workload under the statistical
:class:`~repro.obs.WallProfiler` (signal sampling, the production
configuration) and holds it to the same overhead budget — sampling cost
scales with the interval, not the workload's call rate, so profiling a
run must stay as cheap as tracing it.  Skipped where SIGALRM sampling is
unavailable (non-main thread / exotic platforms).

Usage: PYTHONPATH=src python scripts/trace_overhead.py [--repeats N]
"""

import argparse
import sys
import time

import numpy as np

from repro import Heaven, HeavenConfig
from repro.obs import WallProfiler
from repro.obs.profiler import _supports_signal_mode
from repro.tertiary import MB
from repro.workloads import ClimateGrid, climate_object, subcube

MAX_OVERHEAD = 0.05  # fraction of the baseline wall time

#: enough work (~2 s per run) that timing noise stays well under MAX_OVERHEAD
OBJECT = ClimateGrid(360, 180, 16, 12)
QUERIES = 12
SELECTIVITY = 0.05


def run_workload(observability: bool, profiled: bool = False):
    """Archive one climate object and read a fixed query stream."""
    config = HeavenConfig(
        super_tile_bytes=8 * MB,
        disk_cache_bytes=256 * MB,
        retain_payload=False,
    )
    heaven = Heaven(config, observability=observability)
    if profiled:
        profiler = WallProfiler(tracer=heaven.tracer, mode="signal")
        profiler.start()
        try:
            return _run_queries(heaven)
        finally:
            profiler.stop()
    return _run_queries(heaven)


def _run_queries(heaven: Heaven):
    heaven.create_collection("climate")
    obj = climate_object("temp", OBJECT, seed=3)
    heaven.insert("climate", obj)
    heaven.archive("climate", "temp")
    heaven.library.unmount_all()

    rng = np.random.default_rng(11)
    reports = []
    for _ in range(QUERIES):
        region = subcube(obj.domain, SELECTIVITY, rng)
        _cells, report = heaven.read_with_report("climate", "temp", region)
        reports.append(
            (report.exchanges, report.bytes_from_tape,
             report.bytes_useful, round(report.virtual_seconds, 9))
        )
    return reports


def best_time(observability: bool, repeats: int, profiled: bool = False):
    best, reports = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        reports = run_workload(observability, profiled=profiled)
        best = min(best, time.perf_counter() - start)
    return best, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per mode; best-of is compared")
    args = parser.parse_args(argv)

    run_workload(observability=False)  # warm imports and allocator
    base_s, base_reports = best_time(False, args.repeats)
    traced_s, traced_reports = best_time(True, args.repeats)

    if traced_reports != base_reports:
        print("FAIL: retrieval reports differ with observability enabled")
        return 1

    overhead = traced_s / base_s - 1.0
    print(f"baseline (observability off): {base_s:8.3f} s wall")
    print(f"traced   (observability on):  {traced_s:8.3f} s wall")
    print(f"overhead: {100 * overhead:+.2f} %  (limit {100 * MAX_OVERHEAD:.0f} %)")
    if overhead > MAX_OVERHEAD:
        print("FAIL: instrumentation overhead exceeds the limit")
        return 1

    if _supports_signal_mode():
        profiled_s, profiled_reports = best_time(
            True, args.repeats, profiled=True
        )
        if profiled_reports != base_reports:
            print("FAIL: retrieval reports differ under the profiler")
            return 1
        profiled_overhead = profiled_s / base_s - 1.0
        print(f"profiled (tracing + sampler): {profiled_s:8.3f} s wall")
        print(f"profiler overhead: {100 * profiled_overhead:+.2f} %  "
              f"(limit {100 * MAX_OVERHEAD:.0f} %)")
        if profiled_overhead > MAX_OVERHEAD:
            print("FAIL: profiler overhead exceeds the limit")
            return 1
    else:
        print("profiler overhead: skipped (no SIGALRM sampling here)")

    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
