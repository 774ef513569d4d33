"""A6 (ablation) — open-loop admission: latency percentiles vs offered load.

A5 batches a closed set of queries; real users arrive on their own
schedule.  Twelve quarter-object reads arrive as a seeded Poisson process at
three offered loads and run through the :class:`AdmissionController`.
Series: p50/p95/p99 virtual sojourn, elevator sweeps and the tape bytes
cross-query fusion saved — the tail grows with load while the sweep count
falls, and fusion only pays once arrivals actually overlap.
"""

import numpy as np

from repro.bench import ResultTable
from repro.core import Heaven, HeavenConfig
from repro.core.admission import AdmissionController, QuerySpec
from repro.tertiary import MB
from repro.workloads import zero_object

from _rigs import poisson_slabs

OBJECT_MB = 16
QUERIES = 12
LOADS = [0.05, 0.2, 0.8]  # offered load, queries per virtual second
SEED = 97


def build_heaven():
    heaven = Heaven(
        HeavenConfig(
            super_tile_bytes=2 * MB,
            disk_cache_bytes=8 * MB,
            memory_cache_bytes=64 * MB,
            retain_payload=False,
        )
    )
    heaven.create_collection("c")
    mdd = zero_object(OBJECT_MB, tile_kb=256, dims=3)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    return heaven, mdd


def run_load(load: float):
    """Fresh archive per load; the stream starts once it is archived."""
    heaven, mdd = build_heaven()
    stream = poisson_slabs(
        mdd.domain, QUERIES, load, SEED, start=heaven.clock.now
    )
    specs = [
        QuerySpec(
            collection="c",
            object_name="obj",
            region=region,
            arrival_s=arrival,
            name=f"q{index}",
        )
        for index, (region, arrival) in enumerate(stream)
    ]
    _outputs, report = AdmissionController(heaven).run(specs)
    return report


def run_sweep():
    return [(load, run_load(load)) for load in LOADS]


def build_table(rows) -> ResultTable:
    table = ResultTable(
        f"A6  Open-loop admission: {QUERIES} Poisson arrivals on a "
        f"{OBJECT_MB} MB object (seed {SEED})",
        ["offered [q/s]", "p50 [s]", "p95 [s]", "p99 [s]", "sweeps",
         "fusion saved [MB]"],
    )
    for load, report in rows:
        p50, p95, p99 = np.percentile(report.latencies_s, [50, 95, 99])
        table.add(
            f"{load:g}", f"{p50:.3f}", f"{p95:.3f}", f"{p99:.3f}",
            report.sweeps, f"{report.fusion_saved_bytes / MB:.1f}",
        )
    table.note("virtual sojourn (completion - arrival); single drive")
    return table


def test_a6_openloop_admission(benchmark, report_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report_table("a6_openloop_admission", build_table(rows))

    # Shape: the tail never shrinks as the offered load grows ...
    p95 = [np.percentile(report.latencies_s, 95) for _load, report in rows]
    assert p95 == sorted(p95)
    # ... and at the highest load arrivals overlap, so fusion saves tape.
    assert rows[-1][1].fusion_saved_bytes > 0
