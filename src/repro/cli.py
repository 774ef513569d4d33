"""Command-line interface: explore HEAVEN's cost models without writing code.

::

    python -m repro info
    python -m repro demo
    python -m repro trace demo            # span tree + flamegraph + leaf totals
    python -m repro trace demo --wall     # plus wall flamegraph + divergence
    python -m repro stats demo            # Prometheus-style metrics dump
    python -m repro profile demo          # wall-clock hot functions + phases
    python -m repro export    --object-mb 256 --tile-kb 512 --super-tile-mb 16
    python -m repro retrieval --object-mb 256 --selectivity 0.05 --queries 5 \\
                              --policy lru --profile DLT-7000
    python -m repro chaos retrieval --seed 42 --mount-fail-rate 0.2
    python -m repro multiquery --interactive 4 --holdback 2.0
    python -m repro simtest --seed 7 --ops 200 --check-determinism

Every command builds a fresh simulated environment, runs the scenario and
prints the virtual-time cost breakdown — the same numbers the benchmark
suite reports, but for parameters of your choosing.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

import numpy as np

from .arrays import DOUBLE, MDD, MInterval, RegularTiling, ZeroSource
from .bench import ResultTable
from .core import (
    ClusteredPlacement,
    CoupledExporter,
    Heaven,
    HeavenConfig,
    TCTExporter,
    star_partition,
)
from .core.cache import policy_names
from .errors import StorageError
from .faults import FaultPlan, FaultSpec
from .obs import (
    WallProfiler,
    leaf_totals,
    prometheus_text,
    render_divergence,
    render_flamegraph,
    render_hot_functions,
    render_leaf_table,
    render_phase_breakdown,
    render_profile_flamegraph,
    render_span_tree,
    spans_to_jsonl,
)
from .simtest import MUTATIONS
from .tertiary import (
    GB,
    MB,
    TAPE_PROFILES,
    environment_table,
    scaled_profile,
)
from .workloads import ClimateGrid, climate_object, subcube


def _profile(name: str, media_gb: Optional[float]):
    try:
        profile = TAPE_PROFILES[name]
    except KeyError:
        raise SystemExit(
            f"unknown profile {name!r}; known: {sorted(TAPE_PROFILES)}"
        )
    if media_gb is not None:
        profile = scaled_profile(profile, int(media_gb * GB))
    return profile


def _make_object(object_mb: int, tile_kb: int, dims: int) -> MDD:
    cells = object_mb * MB // DOUBLE.size_bytes
    side = max(1, int(round(cells ** (1.0 / dims))))
    tile_side = max(1, int(round((tile_kb * 1024 // DOUBLE.size_bytes) ** (1.0 / dims))))
    return MDD(
        "obj",
        MInterval.from_shape((side,) * dims),
        DOUBLE,
        tiling=RegularTiling((min(tile_side, side),) * dims),
        source=ZeroSource(),
    )


def cmd_info(_args: argparse.Namespace) -> int:
    table = ResultTable(
        "Modelled devices",
        ["device", "capacity", "exchange [s]", "mean access [s]", "transfer",
         "vs disk"],
    )
    for row in environment_table():
        table.add(row.device, row.capacity, row.exchange_s, row.avg_access_s,
                  row.transfer, row.access_vs_disk)
    table.print()
    print(f"\neviction policies: {', '.join(policy_names())}")
    print("compression codecs: none, zlib")
    return 0


def _demo_config() -> HeavenConfig:
    return HeavenConfig(super_tile_bytes=4 * MB, disk_cache_bytes=64 * MB)


def _run_demo_scenario(heaven: Heaven):
    """The end-to-end demo: archive a climate object, subset-read, query."""
    heaven.create_collection("climate")
    obj = climate_object("temp", ClimateGrid(180, 90, 8, 12), seed=1,
                         tiling=RegularTiling((30, 30, 4, 6)))
    heaven.insert("climate", obj)
    report = heaven.archive("climate", "temp")
    region = MInterval.of((30, 60), (40, 60), (0, 3), (6, 6))
    cells, read_report = heaven.read_with_report("climate", "temp", region)
    result = heaven.query(
        "select avg_cells(c[0:179, 0:89, 0:7, 0:0]) from climate as c")
    return report, cells, read_report, result


def _retrieval_config() -> HeavenConfig:
    return HeavenConfig(super_tile_bytes=16 * MB, disk_cache_bytes=256 * MB,
                        retain_payload=False)


def _run_retrieval_scenario(heaven: Heaven):
    """A few random subcube reads over one archived object."""
    heaven.create_collection("c")
    mdd = _make_object(64, 512, 3)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    rng = np.random.default_rng(0)
    for _query in range(3):
        region = subcube(mdd.domain, 0.05, rng)
        heaven.read_with_report("c", "obj", region)


def _thrash_config() -> HeavenConfig:
    """Disk cache far smaller than one scheduled batch (cache pressure)."""
    return HeavenConfig(
        super_tile_bytes=4 * MB,
        disk_cache_bytes=8 * MB,
        memory_cache_bytes=128 * MB,
        retain_payload=False,
    )


def _run_thrash_scenario(heaven: Heaven):
    """One ``read_many`` batch whose staged bytes exceed the disk cache.

    The wave-admitted, pinned staging pipeline must serve the batch without
    a single per-tile restage; ``tests/test_cli.py`` asserts
    ``repro_restages_total 0`` over this scenario's metrics dump.
    """
    heaven.create_collection("c")
    mdd = _make_object(64, 512, 3)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    axes = list(mdd.domain.axes)
    first = axes[0]
    slabs = first.split_regular(max(1, first.extent // 4))
    batch = [
        ("c", "obj", MInterval.of((slab.lo, slab.hi), *axes[1:]))
        for slab in slabs
    ]
    return heaven.read_many(batch)


def _parallel_config(num_drives: int = 2) -> HeavenConfig:
    """Multi-drive staging: small media force the batch across many tapes."""
    return HeavenConfig(
        tape_profile=scaled_profile(TAPE_PROFILES["DLT-7000"], 48 * MB),
        num_drives=num_drives,
        parallel_drives=num_drives,
        super_tile_bytes=8 * MB,
        disk_cache_bytes=1 * GB,
        retain_payload=False,
    )


def _run_parallel_scenario(heaven: Heaven):
    """One ``read_many`` batch spread over many media.

    With ``parallel_drives > 1`` each admission wave runs through the
    discrete-event :class:`~repro.core.scheduler.ParallelExecutor` — one
    virtual timeline per drive, the robot arm serialised between them —
    so the batch's staging makespan shrinks with the drive count while
    the streamed bytes stay identical.
    """
    heaven.create_collection("c")
    mdd = _make_object(192, 512, 3)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    axes = list(mdd.domain.axes)
    first = axes[0]
    slabs = first.split_regular(max(1, first.extent // 6))
    batch = [
        ("c", "obj", MInterval.of((slab.lo, slab.hi), *axes[1:]))
        for slab in slabs
    ]
    return heaven.read_many(batch)


def _multiquery_config() -> HeavenConfig:
    """Thrash-plus-scan under concurrent users: one scan + subwindow reads."""
    return HeavenConfig(
        super_tile_bytes=4 * MB,
        disk_cache_bytes=48 * MB,
        memory_cache_bytes=64 * MB,
        retain_payload=False,
    )


def _multiquery_queries(mdd: MDD, interactive: int):
    """The adversarial mix: one full-archive scan + periodic subwindows.

    Returns ``(name, region, arrival_offset_s, weight)`` tuples; offsets
    are relative to the moment the run starts.
    """
    axes = list(mdd.domain.axes)
    first = axes[0]
    queries = [("scan", mdd.domain, 0.0, 0.5)]
    for index in range(interactive):
        lo = first.lo + (index * first.extent) // max(1, interactive)
        hi = min(first.hi, lo + max(1, first.extent // 4) - 1)
        region = MInterval.of((lo, hi), *((a.lo, a.hi) for a in axes[1:]))
        queries.append((f"inter{index}", region, 4.0 * index, 2.0))
    return queries


def _run_multiquery_scenario(heaven: Heaven):
    """Concurrent scan + interactive reads through the admission layer."""
    from .core.admission import AdmissionController, QuerySpec

    heaven.create_collection("c")
    mdd = _make_object(64, 512, 3)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    now = heaven.clock.now
    specs = [
        QuerySpec(
            collection="c",
            object_name="obj",
            region=region,
            arrival_s=now + offset,
            weight=weight,
            name=name,
        )
        for name, region, offset, weight in _multiquery_queries(mdd, 4)
    ]
    return AdmissionController(heaven, aging_bound_s=3600.0).run(specs)


def _chaos_config() -> HeavenConfig:
    """The retrieval scenario under a fixed seeded fault plan."""
    return dataclasses.replace(
        _retrieval_config(),
        num_drives=2,
        fault_plan=FaultPlan(
            seed=7,
            spec=FaultSpec(
                mount_failure_rate=0.2,
                media_error_rate=0.05,
                robot_jam_rate=0.05,
                drive_stall_rate=0.1,
            ),
        ),
    )


def _run_chaos_scenario(heaven: Heaven):
    """Retrieval reads under injected faults; typed errors are survivable."""
    heaven.create_collection("c")
    mdd = _make_object(64, 512, 3)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    rng = np.random.default_rng(0)
    completed = failed = 0
    for _query in range(5):
        region = subcube(mdd.domain, 0.05, rng)
        try:
            heaven.read_with_report("c", "obj", region)
            completed += 1
        except StorageError:
            failed += 1
    return completed, failed


def _service_config() -> HeavenConfig:
    """Small super-tiles: enough segments to spread across a hash ring."""
    return HeavenConfig(
        super_tile_bytes=1 * MB,
        disk_cache_bytes=64 * MB,
        retain_payload=False,
    )


def _run_service_scenario(heaven: Heaven):
    """Concurrent multi-tenant reads through the SN/DN service tier.

    The scenario's data nodes all share the passed HEAVEN instance
    (oracle mode), so chaos runs inject hardware faults underneath the
    service tier: reads must either complete or fail typed.
    """
    from .errors import ServiceError
    from .service import ServiceCluster

    heaven.create_collection("c")
    mdd = _make_object(16, 256, 3)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    cluster = ServiceCluster.over(heaven, nodes=2, objects=[("c", "obj")])
    cluster.register_tenant("alice")
    cluster.register_tenant("bob")
    rng = np.random.default_rng(0)
    requests = [
        (
            f"token-{'alice' if index % 2 == 0 else 'bob'}",
            str(subcube(mdd.domain, 0.05, rng)),
        )
        for index in range(4)
    ]
    completed = failed = 0

    async def body():
        nonlocal completed, failed
        import asyncio

        outcomes = await asyncio.gather(
            *(
                cluster.sn.read(token, "c", "obj", region)
                for token, region in requests
            ),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                if isinstance(outcome, ServiceError):
                    failed += 1
                else:
                    raise outcome
            else:
                completed += 1

    cluster.run(body)
    return completed, failed


#: scenarios runnable under ``trace`` / ``stats``: name → (config, runner)
_SCENARIOS = {
    "demo": (_demo_config, _run_demo_scenario),
    "retrieval": (_retrieval_config, _run_retrieval_scenario),
    "thrash": (_thrash_config, _run_thrash_scenario),
    "parallel": (_parallel_config, _run_parallel_scenario),
    "chaos": (_chaos_config, _run_chaos_scenario),
    "multiquery": (_multiquery_config, _run_multiquery_scenario),
    "service": (_service_config, _run_service_scenario),
}


def cmd_parallel(args: argparse.Namespace) -> int:
    """Stage the same batch at growing drive counts; executed numbers only."""
    table = ResultTable(
        "Parallel staging: executed cost by drive count",
        ["drives", "total [s]", "staging makespan [s]", "device work [s]",
         "executed speedup", "robot wait [s]", "exchanges"],
    )
    for drives in (1, 2, 4, 8):
        if drives > args.drives:
            break
        heaven = Heaven(_parallel_config(drives))
        _run_parallel_scenario(heaven)
        stats = heaven.library.stats()
        speedup = (
            heaven.parallel_device_seconds / heaven.parallel_makespan_seconds
            if heaven.parallel_makespan_seconds > 0
            else 1.0
        )
        table.add(
            drives,
            f"{heaven.clock.now:.1f}",
            f"{heaven.parallel_makespan_seconds:.1f}",
            f"{heaven.parallel_device_seconds:.1f}",
            f"{speedup:.2f}x",
            f"{stats.time_robot_wait_s:.1f}",
            stats.exchanges,
        )
    table.print()
    print("\nspeedup = device work / makespan, measured from the event log "
          "(1-drive staging bypasses the executor: makespan 0 by design)")
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    heaven = Heaven(_demo_config())
    report, cells, read_report, result = _run_demo_scenario(heaven)
    print(f"archived {report.bytes_written / MB:.1f} MB as "
          f"{report.segments_written} super-tiles in "
          f"{report.virtual_seconds:.1f} virtual s")
    print(f"subset read: {cells.nbytes / 1024:.0f} KB useful, "
          f"{read_report.bytes_from_tape / MB:.1f} MB from tape, "
          f"{read_report.virtual_seconds:.1f} virtual s")
    print(f"january mean via RasQL: {result[0].scalar():.2f} "
          f"(answered from the precomputed catalog: "
          f"{heaven.precomputed.stats.answered_pure > 0})")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a scenario under one root span and print its full trace."""
    make_config, runner = _SCENARIOS[args.scenario]
    heaven = Heaven(make_config(), observability=True)
    with heaven.tracer.span(f"scenario.{args.scenario}"):
        runner(heaven)
    roots = heaven.tracer.roots
    if args.jsonl:
        print(spans_to_jsonl(roots, include_wall=args.wall))
        return 0
    print(render_span_tree(roots))
    print()
    print(render_flamegraph(roots))
    if args.wall:
        print()
        print(render_flamegraph(roots, clock="wall"))
        print()
        print(render_divergence(roots))
    print()
    print(render_leaf_table(roots))
    leaf_sum = sum(t.seconds for t in leaf_totals(roots).values())
    total = heaven.clock.now
    share = 100.0 * leaf_sum / total if total > 0 else 100.0
    print(f"\nleaf virtual seconds: {leaf_sum:.3f} of {total:.3f} total "
          f"({share:.2f} % attributed)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a scenario and print the metrics registry as Prometheus text."""
    make_config, runner = _SCENARIOS[args.scenario]
    heaven = Heaven(make_config(), observability=True)
    runner(heaven)
    print(prometheus_text(heaven.obs.metrics), end="")
    # Trailer: human-readable state the raw series don't make obvious, kept
    # as comments so the output stays valid Prometheus exposition text.
    log = heaven.clock.log
    print(f"# eventlog: {len(log)} events retained, "
          f"{log.dropped} dropped (bounded mode)")
    print(f"# metrics registry: {len(heaven.obs.metrics)} instruments")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a scenario under the wall-clock profiler and print hot spots."""
    make_config, runner = _SCENARIOS[args.scenario]
    heaven = Heaven(make_config(), observability=True)
    profiler = WallProfiler(
        heaven.tracer,
        mode=args.mode,
        interval_s=args.interval_ms / 1000.0,
    )
    with heaven.tracer.span(f"scenario.{args.scenario}"):
        with profiler:
            runner(heaven)
    profile = profiler.profile
    print(f"profiler mode: {profile.unit} "
          f"({'SIGALRM sampling' if profile.unit == 'seconds' else 'deterministic call ticks'}), "
          f"{profile.samples} samples")
    print()
    print(render_phase_breakdown(profile))
    print()
    print(render_hot_functions(profile, top=args.top))
    print()
    print(render_profile_flamegraph(profile))
    print()
    print(render_divergence(heaven.tracer.roots))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .arrays import ArrayStorage
    from .dbms import Database
    from .tertiary import SimClock, TapeLibrary

    profile = _profile(args.profile, args.media_gb)
    table = ResultTable(
        f"Export of a {args.object_mb} MB object ({args.tile_kb} KB tiles, "
        f"{profile.name})",
        ["path", "segments", "virtual s", "MB/s"],
    )
    for mode in ("coupled", "tct"):
        clock = SimClock()
        storage = ArrayStorage(Database(clock, retain_payload=False))
        library = TapeLibrary(profile, clock=clock, retain_payload=False)
        storage.create_collection("c")
        mdd = _make_object(args.object_mb, args.tile_kb, args.dims)
        storage.insert_object("c", mdd)
        if mode == "coupled":
            report = CoupledExporter(storage, library).export(mdd)
        else:
            super_tiles = star_partition(mdd, args.super_tile_mb * MB)
            plan = ClusteredPlacement().plan(super_tiles, library)
            report = TCTExporter(storage, library).export(mdd, plan)
        table.add(mode, report.segments_written, report.virtual_seconds,
                  report.throughput_mb_s)
    table.print()
    return 0


def cmd_retrieval(args: argparse.Namespace) -> int:
    profile = _profile(args.profile, args.media_gb)
    heaven = Heaven(
        HeavenConfig(
            tape_profile=profile,
            super_tile_bytes=args.super_tile_mb * MB,
            disk_cache_bytes=args.cache_mb * MB,
            disk_cache_policy=args.policy,
            retain_payload=False,
        )
    )
    heaven.create_collection("c")
    mdd = _make_object(args.object_mb, args.tile_kb, args.dims)
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    rng = np.random.default_rng(args.seed)
    table = ResultTable(
        f"{args.queries} subcube queries at {100 * args.selectivity:.0f} % "
        f"selectivity ({args.object_mb} MB object, {profile.name})",
        ["query", "useful [MB]", "from tape [MB]", "virtual s"],
    )
    for index in range(args.queries):
        region = subcube(mdd.domain, args.selectivity, rng)
        _cells, report = heaven.read_with_report("c", "obj", region)
        table.add(index + 1, report.bytes_useful / MB,
                  report.bytes_from_tape / MB, report.virtual_seconds)
    table.print()
    stats = heaven.disk_cache.stats
    print(f"\ndisk cache: {stats.hits}/{stats.lookups} hits, "
          f"{stats.evictions} evictions; total virtual time "
          f"{heaven.clock.now:.1f} s")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a scenario under a seeded fault plan and summarise recovery."""
    make_config, runner = _SCENARIOS[args.scenario]
    plan = FaultPlan(
        seed=args.seed,
        spec=FaultSpec(
            mount_failure_rate=args.mount_fail_rate,
            media_error_rate=args.media_error_rate,
            robot_jam_rate=args.robot_jam_rate,
            drive_stall_rate=args.drive_stall_rate,
        ),
    )
    config = dataclasses.replace(
        make_config(), fault_plan=plan, num_drives=args.drives
    )
    heaven = Heaven(config)
    outcome = 0
    try:
        runner(heaven)
    except StorageError as error:
        print(f"scenario aborted: {type(error).__name__}: {error}")
        outcome = 1
    recovery = heaven.library.recovery
    table = ResultTable(
        f"Chaos run of {args.scenario!r} (seed {args.seed}, "
        f"{args.drives} drives)",
        ["counter", "value"],
    )
    for site, injected in sorted(plan.stats.injected.items()):
        table.add(f"faults injected [{site}]", injected)
    table.add("fault penalty [virtual s]", plan.stats.penalty_seconds)
    table.add("retries", recovery.retries)
    table.add("drive failovers", recovery.failovers)
    table.add("backoff [virtual s]", recovery.backoff_seconds)
    table.add("retry budget exhausted", recovery.exhausted)
    table.add("degraded reads served", heaven.degraded_reads_served)
    table.add("total virtual time [s]", heaven.clock.now)
    table.print()
    return outcome


def cmd_multiquery(args: argparse.Namespace) -> int:
    """Fused admission run vs N independent serial users, side by side."""
    from .core.admission import AdmissionController, QuerySpec

    mdd = _make_object(args.object_mb, 512, 3)
    queries = _multiquery_queries(mdd, args.interactive)

    # Baseline: each query is an independent user with its own HEAVEN
    # instance — everyone pays their own staging from tape.
    serial_bytes = serial_exchanges = 0
    serial_latencies = {}
    for name, region, _offset, _weight in queries:
        solo = Heaven(_multiquery_config())
        solo.create_collection("c")
        solo.insert("c", _make_object(args.object_mb, 512, 3))
        solo.archive("c", "obj")
        solo.library.unmount_all()
        _cells, report = solo.read_with_report("c", "obj", region)
        serial_bytes += report.bytes_from_tape
        serial_exchanges += report.exchanges
        serial_latencies[name] = report.virtual_seconds

    # Fused: the same queries admitted concurrently into one instance.
    heaven = Heaven(_multiquery_config())
    heaven.create_collection("c")
    heaven.insert("c", _make_object(args.object_mb, 512, 3))
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    now = heaven.clock.now
    specs = [
        QuerySpec(collection="c", object_name="obj", region=region,
                  arrival_s=now + offset, weight=weight, name=name)
        for name, region, offset, weight in queries
    ]
    controller = AdmissionController(
        heaven, holdback_s=args.holdback, aging_bound_s=3600.0
    )
    _outputs, fused = controller.run(specs)

    per_query = ResultTable(
        "Per-query view (fused admission run)",
        ["query", "tape share [MB]", "latency [s]", "serial latency [s]"],
    )
    for spec, qreport, latency in zip(specs, fused.queries, fused.latencies_s):
        per_query.add(
            spec.label,
            f"{qreport.bytes_from_tape / MB:.1f}",
            f"{latency:.1f}",
            f"{serial_latencies[spec.name]:.1f}",
        )
    per_query.print()

    table = ResultTable(
        f"{len(specs)} concurrent queries: fused sweeps vs independent users",
        ["metric", "fused", "serial sum"],
    )
    table.add("bytes from tape [MB]", f"{fused.bytes_from_tape / MB:.1f}",
              f"{serial_bytes / MB:.1f}")
    table.add("media exchanges", fused.exchanges, serial_exchanges)
    table.add("elevator sweeps", fused.sweeps, "-")
    table.add("segments fused", fused.fused_segments, "-")
    table.add("fusion saved [MB]", f"{fused.fusion_saved_bytes / MB:.1f}", "-")
    table.add("fusion saved exchanges", fused.fusion_saved_exchanges, "-")
    table.add("max staging wait [s]", f"{fused.max_wait_s:.1f}", "-")
    table.add("hold-back spent [s]", f"{fused.holdback_seconds:.1f}", "-")
    table.add("arrivals absorbed by hold-back", fused.holdback_absorbed, "-")
    table.add("makespan [s]", f"{fused.makespan_s:.1f}", "-")
    table.print()

    saved_bytes = serial_bytes - fused.bytes_from_tape
    saved_ex = serial_exchanges - fused.exchanges
    print(
        f"\ncross-query fusion: {saved_bytes / MB:.1f} MB and "
        f"{saved_ex} exchange(s) less tape traffic than "
        f"{len(specs)} independent serial users"
    )
    ok = fused.bytes_from_tape < serial_bytes and fused.exchanges < serial_exchanges
    if not ok:
        print("WARNING: fused run did not beat independent serial users")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Simulated SN/DN service cluster: concurrent multi-tenant reads.

    Builds ``--nodes`` data nodes (fresh HEAVEN instances populated
    identically), serves an open-loop stream of tenant reads through the
    service node, checks every answer byte-identical against a
    single-node reference ``Heaven.read``, and demonstrates 429-style
    quota rejection for an over-budget tenant.
    """
    import asyncio

    from .errors import QuotaExceededError, ServiceError
    from .service import ServiceCluster

    def setup(heaven: Heaven) -> None:
        heaven.create_collection("climate")
        obj = climate_object(
            "temp",
            ClimateGrid(120, 60, 6, 8),
            seed=2,
            tiling=RegularTiling((30, 30, 3, 4)),
        )
        heaven.insert("climate", obj)
        heaven.archive("climate", "temp")
        heaven.library.unmount_all()

    reference = Heaven(_service_config())
    setup(reference)
    domain = reference.collection("climate").get("temp").domain

    cluster = ServiceCluster.build(
        _service_config,
        setup,
        nodes=args.nodes,
        objects=[("climate", "temp")],
    )
    tenants = [f"tenant{index}" for index in range(max(1, args.tenants))]
    for tenant in tenants:
        cluster.register_tenant(tenant)
    # One over-budget tenant demonstrates the 429 path: its byte quota
    # covers roughly one read at the configured selectivity.
    quota_bytes = int(domain.cell_count * DOUBLE.size_bytes * args.selectivity)
    cluster.register_tenant("capped", max_bytes=max(1, quota_bytes))

    rng = np.random.default_rng(args.seed)
    spacing_v = 0.5
    plan = []
    for index in range(args.requests):
        tenant = tenants[index % len(tenants)]
        region = subcube(domain, args.selectivity, rng)
        plan.append((tenant, region, index * spacing_v))
    capped_regions = [subcube(domain, args.selectivity, rng) for _ in range(3)]

    results = []
    rejected = 0

    async def body():
        nonlocal rejected
        outcomes = await asyncio.gather(
            *(
                cluster.sn.read(
                    f"token-{tenant}", "climate", "temp", str(region),
                    arrival_v=arrival,
                )
                for tenant, region, arrival in plan
            ),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            results.append(outcome)
        for region in capped_regions:
            try:
                results.append(
                    await cluster.sn.read(
                        "token-capped", "climate", "temp", str(region)
                    )
                )
            except QuotaExceededError:
                rejected += 1

    try:
        cluster.run(body)
    except ServiceError as error:
        print(f"serve aborted: {type(error).__name__}: {error}")
        return 1

    identical = 0
    for result, (tenant, region, _arrival) in zip(
        results, plan + [("capped", r, 0.0) for r in capped_regions]
    ):
        expected = reference.read("climate", "temp", region)
        if np.array_equal(result.cells, expected):
            identical += 1

    table = ResultTable(
        f"Service reads over {args.nodes} data node(s) "
        f"({len(tenants)} tenants + 1 capped)",
        ["request", "tenant", "shards", "useful [KB]", "latency [virtual s]"],
    )
    for result in results:
        table.add(
            result.request_id,
            result.tenant,
            len(set(result.shards)),
            f"{result.bytes_useful / 1024:.0f}",
            f"{result.latency_v:.2f}",
        )
    table.print()

    served = len(results)
    makespan = max((r.completion_v for r in results), default=0.0)
    qps = served / makespan if makespan > 0 else 0.0
    latencies = sorted(r.latency_v for r in results)
    p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))] if latencies else 0.0
    print(f"\nserved {served} request(s), {identical} byte-identical to the "
          f"single-node reference")
    print(f"virtual throughput: {qps:.2f} q/s over {makespan:.1f} s makespan, "
          f"p95 latency {p95:.2f} s")
    usage = cluster.tenants.usage("capped")
    print(f"quota: tenant 'capped' ({quota_bytes} bytes budget) had "
          f"{rejected} request(s) rejected 429-style "
          f"(registry counted {usage.rejected})")
    if identical != served:
        print("ERROR: service answers diverged from the reference read")
        return 1
    if rejected == 0:
        print("WARNING: quota demo produced no rejection")
    return 0


def cmd_simtest(args: argparse.Namespace) -> int:
    """Run one simulation program; shrink + write artifacts on failure."""
    from .simtest import (
        default_still_fails,
        generate_program,
        replay_json,
        run_program,
        shrink_program,
        write_repro_artifacts,
    )

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HEAVEN reproduction: simulated cost exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show modelled devices and knobs")
    sub.add_parser("demo", help="run the end-to-end demo scenario")

    trace = sub.add_parser(
        "trace", help="run a scenario with tracing on and print the span tree"
    )
    trace.add_argument("scenario", nargs="?", default="demo",
                       choices=sorted(_SCENARIOS))
    trace.add_argument("--jsonl", action="store_true",
                       help="dump spans as JSONL instead of ASCII rendering")
    trace.add_argument("--wall", action="store_true",
                       help="include host wall-clock times (JSONL fields, "
                            "wall flamegraph, divergence table)")

    stats = sub.add_parser(
        "stats", help="run a scenario and print Prometheus-style metrics"
    )
    stats.add_argument("scenario", nargs="?", default="demo",
                       choices=sorted(_SCENARIOS))

    profile = sub.add_parser(
        "profile",
        help="run a scenario under the wall-clock profiler and print hot "
             "functions, phase breakdown and wall/virtual divergence",
    )
    profile.add_argument("scenario", nargs="?", default="demo",
                         choices=sorted(_SCENARIOS))
    profile.add_argument("--mode", default="auto",
                         choices=("auto", "signal", "deterministic"),
                         help="sampling mode (auto prefers SIGALRM, falls "
                              "back to deterministic call ticks)")
    profile.add_argument("--interval-ms", type=float, default=5.0,
                         help="sampling interval for signal mode")
    profile.add_argument("--top", type=int, default=10,
                         help="hot functions to list")

    chaos = sub.add_parser(
        "chaos", help="run a scenario under seeded fault injection"
    )
    chaos.add_argument("scenario", nargs="?", default="retrieval",
                       choices=sorted(_SCENARIOS))
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault plan seed (same seed = same faults)")
    chaos.add_argument("--mount-fail-rate", type=float, default=0.2)
    chaos.add_argument("--media-error-rate", type=float, default=0.05)
    chaos.add_argument("--robot-jam-rate", type=float, default=0.05)
    chaos.add_argument("--drive-stall-rate", type=float, default=0.1)
    chaos.add_argument("--drives", type=int, default=2,
                       help="library drives (failover needs at least 2)")

    par = sub.add_parser(
        "parallel", help="stage one batch at several drive counts"
    )
    par.add_argument("--drives", type=int, default=4,
                     help="largest drive count tried (1, 2, 4, 8 up to this)")

    multi = sub.add_parser(
        "multiquery",
        help="concurrent queries through the admission layer vs serial users",
    )
    multi.add_argument("--object-mb", type=int, default=64)
    multi.add_argument("--interactive", type=int, default=4,
                       help="interactive subwindow queries beside the scan")
    multi.add_argument("--holdback", type=float, default=0.0,
                       help="anticipatory hold-back window [virtual s]")

    serve = sub.add_parser(
        "serve",
        help="simulated SN/DN service cluster: concurrent multi-tenant "
             "reads over sharded data nodes",
    )
    serve.add_argument("--nodes", type=int, default=4,
                       help="data nodes (each owns a hash-ring shard)")
    serve.add_argument("--requests", type=int, default=8,
                       help="open-loop tenant reads to serve")
    serve.add_argument("--tenants", type=int, default=2,
                       help="unconstrained tenants issuing the reads")
    serve.add_argument("--selectivity", type=float, default=0.05,
                       help="subcube selectivity of each read")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload seed (regions and tenant order)")

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

    export = sub.add_parser("export", help="compare coupled vs TCT export")
    retrieval = sub.add_parser("retrieval", help="run a retrieval scenario")
    for command in (export, retrieval):
        command.add_argument("--object-mb", type=int, default=256)
        command.add_argument("--tile-kb", type=int, default=512)
        command.add_argument("--super-tile-mb", type=int, default=16)
        command.add_argument("--dims", type=int, default=3, choices=(1, 2, 3, 4))
        command.add_argument("--profile", default="DLT-7000",
                             choices=sorted(TAPE_PROFILES))
        command.add_argument("--media-gb", type=float, default=2.0,
                             help="scale media capacity (GB); 0 = native")
    retrieval.add_argument("--selectivity", type=float, default=0.05)
    retrieval.add_argument("--queries", type=int, default=5)
    retrieval.add_argument("--cache-mb", type=int, default=256)
    retrieval.add_argument("--policy", default="lru", choices=policy_names())
    retrieval.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("export", "retrieval") and args.media_gb == 0:
        args.media_gb = None
    handlers = {
        "info": cmd_info,
        "demo": cmd_demo,
        "trace": cmd_trace,
        "stats": cmd_stats,
        "profile": cmd_profile,
        "chaos": cmd_chaos,
        "parallel": cmd_parallel,
        "multiquery": cmd_multiquery,
        "serve": cmd_serve,
        "simtest": cmd_simtest,
        "export": cmd_export,
        "retrieval": cmd_retrieval,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
