"""Command-line interface: explore HEAVEN's cost models without writing code.

Every command that builds a HEAVEN instance runs one row of ``_SCENARIOS``.
``demo``, ``retrieval``, ``parallel``, ``multiquery`` and ``serve`` run
their own row with the flags given (``python -m repro retrieval --policy
gds``); ``trace``, ``stats``, ``profile`` and ``chaos`` run any row at its
defaults under the tracer, the metrics registry, the wall-clock profiler or
a seeded fault plan (``python -m repro chaos retrieval --seed 42``).
``info``, ``export`` and ``simtest`` stand alone.  Each run builds a fresh
simulated environment and prints its virtual-time cost.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Dict, List, Optional

import numpy as np

from .arrays import DOUBLE, MDD, ArrayStorage, MInterval, RegularTiling
from .bench import ResultTable
from .core import (
    ClusteredPlacement,
    CoupledExporter,
    Heaven,
    HeavenConfig,
    TCTExporter,
    star_partition,
)
from .core.admission import AdmissionController, QuerySpec
from .core.cache import policy_names
from .dbms import Database
from .errors import QuotaExceededError, ServiceError, StorageError
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
from .service import ServiceCluster
from .simtest import cli as simtest_cli
from .tertiary import (
    GB,
    MB,
    TAPE_PROFILES,
    SimClock,
    TapeLibrary,
    environment_table,
    scaled_profile,
)
from .workloads import ClimateGrid, climate_object, subcube, zero_object


def _profile(name: str, media_gb: Optional[float]):
    """Tape profile *name*, media scaled to *media_gb* (falsy = native)."""
    profile = TAPE_PROFILES[name]
    return scaled_profile(profile, int(media_gb * GB)) if media_gb else profile


def _archive(heaven: Heaven, mdd: MDD, collection: str = "c") -> MDD:
    """Insert *mdd* into a new *collection*, archive it, unmount all media."""
    heaven.create_collection(collection)
    heaven.insert(collection, mdd)
    heaven.archive(collection, mdd.name)
    heaven.library.unmount_all()
    return mdd


def _add_flags(parser: argparse.ArgumentParser, flags: Dict[str, dict]) -> None:
    for flag, options in flags.items():
        parser.add_argument(flag, **options)


def _parse(flags: Dict[str, dict], argv=()) -> argparse.Namespace:
    """*argv* parsed against *flags* alone (``()``: their defaults)."""
    parser = argparse.ArgumentParser()
    _add_flags(parser, flags)
    return parser.parse_args(list(argv))


class Scenario:
    """One row of the scenario table.

    A row's parameters are its ``flags`` (argparse flag -> keyword
    arguments, defaults included).  ``config(params)`` builds its
    :class:`HeavenConfig`, ``run(heaven, params)`` drives the workload on
    a fresh instance, and ``report(heaven, params, result)`` prints the
    outcome and returns the exit status; a report may build more
    instances through the same row.  A row with a ``command`` is also a
    sub-command of its own, taking the row's flags.
    """

    command: Optional[str] = None
    help: Optional[str] = None
    flags: Dict[str, dict] = {}


class Demo(Scenario):
    """The end-to-end demo: archive a climate object, subset-read, query."""

    command, help = "demo", "run the end-to-end demo scenario"

    def config(self, _params: argparse.Namespace) -> HeavenConfig:
        return HeavenConfig(super_tile_bytes=4 * MB, disk_cache_bytes=64 * MB)

    def run(self, heaven: Heaven, _params: argparse.Namespace):
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

    def report(self, heaven: Heaven, _params: argparse.Namespace, outcome) -> int:
        report, cells, read_report, result = outcome
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


#: the archived object and its tape medium (shared with ``export``)
_OBJECT_FLAGS = {
    "--object-mb": dict(type=int, default=256),
    "--tile-kb": dict(type=int, default=512),
    "--super-tile-mb": dict(type=int, default=16),
    "--dims": dict(type=int, default=3, choices=(1, 2, 3, 4)),
    "--profile": dict(default="DLT-7000", choices=sorted(TAPE_PROFILES)),
    "--media-gb": dict(type=float, default=2.0,
                       help="scale media capacity (GB); 0 = native"),
}


class Retrieval(Scenario):
    """Random subcube reads over one archived object."""

    command, help = "retrieval", "run a retrieval scenario"
    flags = {
        **_OBJECT_FLAGS,
        "--selectivity": dict(type=float, default=0.05),
        "--queries": dict(type=int, default=5),
        "--cache-mb": dict(type=int, default=256),
        "--policy": dict(default="lru", choices=policy_names()),
        "--seed": dict(type=int, default=0),
    }

    def config(self, params: argparse.Namespace) -> HeavenConfig:
        return HeavenConfig(
            tape_profile=_profile(params.profile, params.media_gb),
            super_tile_bytes=params.super_tile_mb * MB,
            disk_cache_bytes=params.cache_mb * MB,
            disk_cache_policy=params.policy,
            retain_payload=False,
        )

    def run(self, heaven: Heaven, params: argparse.Namespace):
        mdd = _archive(heaven, zero_object(params.object_mb, params.tile_kb,
                                            params.dims))
        rng = np.random.default_rng(params.seed)
        return [
            heaven.read_with_report(
                "c", "obj", subcube(mdd.domain, params.selectivity, rng))[1]
            for _query in range(params.queries)
        ]

    def report(self, heaven: Heaven, params: argparse.Namespace, reports) -> int:
        table = ResultTable(
            f"{params.queries} subcube queries at "
            f"{100 * params.selectivity:.0f} % selectivity "
            f"({params.object_mb} MB object, {heaven.config.tape_profile.name})",
            ["query", "useful [MB]", "from tape [MB]", "virtual s"],
        )
        for index, report in enumerate(reports, 1):
            table.add(index, report.bytes_useful / MB,
                      report.bytes_from_tape / MB, report.virtual_seconds)
        table.print()
        stats = heaven.disk_cache.stats
        print(f"\ndisk cache: {stats.hits}/{stats.lookups} hits, "
              f"{stats.evictions} evictions; total virtual time "
              f"{heaven.clock.now:.1f} s")
        return 0


#: the ``chaos`` command's fault plan and library size
_FAULT_FLAGS = {
    "--seed": dict(type=int, default=0,
                   help="fault plan seed (same seed = same faults)"),
    "--mount-fail-rate": dict(type=float, default=0.2),
    "--media-error-rate": dict(type=float, default=0.05),
    "--robot-jam-rate": dict(type=float, default=0.05),
    "--drive-stall-rate": dict(type=float, default=0.1),
    "--drives": dict(type=int, default=2,
                     help="library drives (failover needs at least 2)"),
}


def _fault_plan(args: argparse.Namespace) -> FaultPlan:
    return FaultPlan(
        seed=args.seed,
        spec=FaultSpec(
            mount_failure_rate=args.mount_fail_rate,
            media_error_rate=args.media_error_rate,
            robot_jam_rate=args.robot_jam_rate,
            drive_stall_rate=args.drive_stall_rate,
        ),
    )


class Chaos(Retrieval):
    """The retrieval row under the ``chaos`` command's default plan, seed 7."""

    command = None

    def config(self, params: argparse.Namespace) -> HeavenConfig:
        faults = _parse(_FAULT_FLAGS, ["--seed", "7"])
        return dataclasses.replace(super().config(params), num_drives=faults.drives,
                                   fault_plan=_fault_plan(faults))


class Thrash(Scenario):
    """One ``read_many`` batch of about ``slabs`` first-axis slabs of an
    archived ``object_mb`` MB object, its staged bytes far above the disk
    cache.

    The wave-admitted, pinned staging pipeline must serve the batch without
    a single per-tile restage; ``tests/test_cli.py`` asserts
    ``repro_restages_total 0`` over this row's metrics dump.
    """

    object_mb, slabs = 64, 4

    def run(self, heaven: Heaven, _params: argparse.Namespace):
        mdd = _archive(heaven, zero_object(self.object_mb, 512, 3))
        first, *rest = mdd.domain.axes
        return heaven.read_many([
            ("c", "obj", MInterval.of((slab.lo, slab.hi), *rest))
            for slab in first.split_regular(max(1, first.extent // self.slabs))
        ])

    def config(self, _params: argparse.Namespace) -> HeavenConfig:
        return HeavenConfig(
            super_tile_bytes=4 * MB,
            disk_cache_bytes=8 * MB,
            memory_cache_bytes=128 * MB,
            retain_payload=False,
        )


class Parallel(Thrash):
    """The thrash row's slab batch, bigger, staged by several drives: small
    media force it across many tapes.

    With ``parallel_drives > 1`` each admission wave runs through the
    discrete-event :class:`~repro.core.scheduler.ParallelExecutor` — one
    virtual timeline per drive, the robot arm serialised between them —
    so the batch's staging makespan shrinks with the drive count while
    the streamed bytes stay identical.
    """

    command, help = "parallel", "stage one batch at several drive counts"
    flags = {"--drives": dict(
        type=int, default=4,
        help="largest drive count tried (1, 2, 4, 8 up to this)")}
    object_mb, slabs = 192, 6

    def config(self, params: argparse.Namespace) -> HeavenConfig:
        return HeavenConfig(
            tape_profile=scaled_profile(TAPE_PROFILES["DLT-7000"], 48 * MB),
            num_drives=params.drives,
            parallel_drives=params.drives,
            super_tile_bytes=8 * MB,
            disk_cache_bytes=1 * GB,
            retain_payload=False,
        )

    def report(self, heaven: Heaven, params: argparse.Namespace, _result) -> int:
        """The same batch at growing drive counts; executed numbers only."""
        table = ResultTable(
            "Parallel staging: executed cost by drive count",
            ["drives", "total [s]", "staging makespan [s]", "device work [s]",
             "executed speedup", "robot wait [s]", "exchanges"],
        )
        for drives in (d for d in (1, 2, 4, 8) if d <= params.drives):
            run = heaven
            if drives != params.drives:
                run = Heaven(self.config(argparse.Namespace(drives=drives)))
                self.run(run, params)
            stats = run.library.stats()
            speedup = (
                run.parallel_device_seconds / run.parallel_makespan_seconds
                if run.parallel_makespan_seconds > 0
                else 1.0
            )
            table.add(
                drives,
                f"{run.clock.now:.1f}",
                f"{run.parallel_makespan_seconds:.1f}",
                f"{run.parallel_device_seconds:.1f}",
                f"{speedup:.2f}x",
                f"{stats.time_robot_wait_s:.1f}",
                stats.exchanges,
            )
        table.print()
        print("\nspeedup = device work / makespan, measured from the event log "
              "(1-drive staging bypasses the executor: makespan 0 by design)")
        return 0


class MultiQuery(Scenario):
    """Thrash-plus-scan under concurrent users, through the admission
    layer: one full-archive scan plus periodic interactive subwindows
    arriving 4 virtual s apart."""

    command = "multiquery"
    help = "concurrent queries through the admission layer vs serial users"
    flags = {
        "--object-mb": dict(type=int, default=64),
        "--interactive": dict(type=int, default=4,
                              help="interactive subwindow queries beside the scan"),
        "--holdback": dict(type=float, default=0.0,
                           help="anticipatory hold-back window [virtual s]"),
    }

    def config(self, _params: argparse.Namespace) -> HeavenConfig:
        return HeavenConfig(
            super_tile_bytes=4 * MB,
            disk_cache_bytes=48 * MB,
            memory_cache_bytes=64 * MB,
            retain_payload=False,
        )

    def run(self, heaven: Heaven, params: argparse.Namespace):
        mdd = _archive(heaven, zero_object(params.object_mb, 512, 3))
        first, *rest = mdd.domain.axes
        now = heaven.clock.now
        specs = [QuerySpec(collection="c", object_name="obj", region=mdd.domain,
                           arrival_s=now, weight=0.5, name="scan")]
        for index in range(params.interactive):
            lo = first.lo + (index * first.extent) // max(1, params.interactive)
            hi = min(first.hi, lo + max(1, first.extent // 4) - 1)
            region = MInterval.of((lo, hi), *((a.lo, a.hi) for a in rest))
            specs.append(QuerySpec(collection="c", object_name="obj",
                                   region=region, arrival_s=now + 4.0 * index,
                                   weight=2.0, name=f"inter{index}"))
        controller = AdmissionController(
            heaven, holdback_s=params.holdback, aging_bound_s=3600.0
        )
        return specs, controller.run(specs)[1]

    def report(self, _heaven: Heaven, params: argparse.Namespace, result) -> int:
        """Fused admission run vs N independent serial users, side by side."""
        specs, fused = result
        # Baseline: each query is an independent user with its own HEAVEN
        # instance — everyone pays their own staging from tape.
        serial = []
        for spec in specs:
            solo = Heaven(self.config(params))
            _archive(solo, zero_object(params.object_mb, 512, 3))
            serial.append(solo.read_with_report("c", "obj", spec.region)[1])
        serial_bytes = sum(report.bytes_from_tape for report in serial)
        serial_exchanges = sum(report.exchanges for report in serial)

        per_query = ResultTable(
            "Per-query view (fused admission run)",
            ["query", "tape share [MB]", "latency [s]", "serial latency [s]"],
        )
        for spec, qreport, latency, solo_report in zip(
            specs, fused.queries, fused.latencies_s, serial
        ):
            per_query.add(
                spec.label,
                f"{qreport.bytes_from_tape / MB:.1f}",
                f"{latency:.1f}",
                f"{solo_report.virtual_seconds:.1f}",
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


class Service(Scenario):
    """Concurrent multi-tenant reads through the SN/DN service tier.

    The run's instance is data node ``dn0``; the other nodes are fresh
    instances of the row populated identically, so each works its
    hash-ring shard.  Open-loop tenant reads arrive 0.5 virtual s apart,
    then an over-budget tenant (a byte quota of about one read)
    demonstrates 429-style rejection.  The report checks every answer
    against a single-node reference read.
    """

    command = "serve"
    help = ("simulated SN/DN service cluster: concurrent multi-tenant "
            "reads over sharded data nodes")
    flags = {
        "--nodes": dict(type=int, default=4,
                        help="data nodes (each owns a hash-ring shard)"),
        "--requests": dict(type=int, default=8,
                           help="open-loop tenant reads to serve"),
        "--tenants": dict(type=int, default=2,
                          help="unconstrained tenants issuing the reads"),
        "--selectivity": dict(type=float, default=0.05,
                              help="subcube selectivity of each read"),
        "--seed": dict(type=int, default=0,
                       help="workload seed (regions and tenant order)"),
    }

    def config(self, _params: argparse.Namespace) -> HeavenConfig:
        # Small super-tiles: enough segments to spread across a hash ring.
        return HeavenConfig(
            super_tile_bytes=1 * MB,
            disk_cache_bytes=64 * MB,
            retain_payload=False,
        )

    @staticmethod
    def populate(heaven: Heaven) -> MDD:
        obj = climate_object("temp", ClimateGrid(120, 60, 6, 8), seed=2,
                             tiling=RegularTiling((30, 30, 3, 4)))
        return _archive(heaven, obj, "climate")

    def run(self, heaven: Heaven, params: argparse.Namespace):
        nodes = [heaven] + [Heaven(self.config(params)) for _ in range(params.nodes - 1)]
        domain = [self.populate(node) for node in nodes][0].domain
        cluster = ServiceCluster(nodes, objects=[("climate", "temp")])
        tenants = [f"tenant{index}" for index in range(max(1, params.tenants))]
        for tenant in tenants:
            cluster.register_tenant(tenant)
        quota_bytes = max(1, int(domain.cell_count * DOUBLE.size_bytes
                                 * params.selectivity))
        cluster.register_tenant("capped", max_bytes=quota_bytes)
        rng = np.random.default_rng(params.seed)
        regions = [subcube(domain, params.selectivity, rng)
                   for _ in range(params.requests)]
        served = list(zip(regions, cluster.read_many([
            (f"token-{tenants[index % len(tenants)]}", "climate", "temp",
             str(region), index * 0.5)
            for index, region in enumerate(regions)
        ])))
        rejected = 0
        for region in [subcube(domain, params.selectivity, rng) for _ in range(3)]:
            try:
                served.append((region, cluster.read(
                    "token-capped", "climate", "temp", str(region))))
            except QuotaExceededError:
                rejected += 1
        return cluster, quota_bytes, served, rejected

    def report(self, _heaven: Heaven, params: argparse.Namespace, result) -> int:
        cluster, quota_bytes, served, rejected = result
        reference = Heaven(self.config(params))
        self.populate(reference)
        identical = sum(
            np.array_equal(answer.cells, reference.read("climate", "temp", region))
            for region, answer in served
        )
        results = [answer for _region, answer in served]

        table = ResultTable(
            f"Service reads over {params.nodes} data node(s) "
            f"({max(1, params.tenants)} tenants + 1 capped)",
            ["request", "tenant", "shards", "useful [KB]", "latency [virtual s]"],
        )
        for answer in results:
            table.add(
                answer.request_id,
                answer.tenant,
                len(set(answer.shards)),
                f"{answer.bytes_useful / 1024:.0f}",
                f"{answer.latency_v:.2f}",
            )
        table.print()

        makespan = max((r.completion_v for r in results), default=0.0)
        qps = len(results) / makespan if makespan > 0 else 0.0
        latencies = sorted(r.latency_v for r in results)
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))] if latencies else 0.0
        print(f"\nserved {len(results)} request(s), {identical} byte-identical "
              f"to the single-node reference")
        print(f"virtual throughput: {qps:.2f} q/s over {makespan:.1f} s "
              f"makespan, p95 latency {p95:.2f} s")
        usage = cluster.tenants.usage("capped")
        print(f"quota: tenant 'capped' ({quota_bytes} bytes budget) had "
              f"{rejected} request(s) rejected 429-style "
              f"(registry counted {usage.rejected})")
        if identical != len(results):
            print("ERROR: service answers diverged from the reference read")
            return 1
        if rejected == 0:
            print("WARNING: quota demo produced no rejection")
        return 0


#: the scenario table, keyed by row class name in lower case: every command
#: that builds a HEAVEN instance runs one of these rows
_SCENARIOS: Dict[str, Scenario] = {
    type(row).__name__.lower(): row
    for row in (Demo(), Retrieval(), Thrash(), Parallel(), Chaos(), MultiQuery(),
                Service())
}


def _scenario(args: argparse.Namespace, observability=None, **changes: Any):
    """The row ``args.scenario`` names, its parameters (the flags given to
    the row's own command, else its defaults) and a fresh instance."""
    row = _SCENARIOS[args.scenario]
    params = args if args.command == row.command else _parse(row.flags)
    config = dataclasses.replace(row.config(params), **changes)
    return row, params, Heaven(config, observability=observability)


def cmd_scenario(args: argparse.Namespace) -> int:
    row, params, heaven = _scenario(args)
    return row.report(heaven, params, row.run(heaven, params))


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


def cmd_trace(args: argparse.Namespace) -> int:
    """run a scenario with tracing on and print the span tree"""
    row, params, heaven = _scenario(args, observability=True)
    with heaven.tracer.span(f"scenario.{args.scenario}"):
        row.run(heaven, params)
    roots = heaven.tracer.roots
    if args.jsonl:
        print(spans_to_jsonl(roots, include_wall=args.wall))
        return 0
    sections = [render_span_tree(roots), render_flamegraph(roots)]
    if args.wall:
        sections += [render_flamegraph(roots, clock="wall"), render_divergence(roots)]
    leaf_sum = sum(t.seconds for t in leaf_totals(roots).values())
    total = heaven.clock.now
    share = 100.0 * leaf_sum / total if total > 0 else 100.0
    sections += [render_leaf_table(roots),
                 f"leaf virtual seconds: {leaf_sum:.3f} of {total:.3f} total "
                 f"({share:.2f} % attributed)"]
    print("\n\n".join(sections))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """run a scenario and print Prometheus-style metrics"""
    row, params, heaven = _scenario(args, observability=True)
    row.run(heaven, params)
    print(prometheus_text(heaven.obs.metrics), end="")
    # Trailer: human-readable state the raw series don't make obvious, kept
    # as comments so the output stays valid Prometheus exposition text.
    log = heaven.clock.log
    print(f"# eventlog: {len(log)} events retained, "
          f"{log.dropped} dropped (bounded mode)")
    print(f"# metrics registry: {len(heaven.obs.metrics)} instruments")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """run a scenario under the wall-clock profiler and print hot
    functions, phase breakdown and wall/virtual divergence"""
    row, params, heaven = _scenario(args, observability=True)
    profiler = WallProfiler(
        heaven.tracer,
        mode=args.mode,
        interval_s=args.interval_ms / 1000.0,
    )
    with heaven.tracer.span(f"scenario.{args.scenario}"):
        with profiler:
            row.run(heaven, params)
    profile = profiler.profile
    print("\n\n".join([
        f"profiler mode: {profile.unit} "
        f"({'SIGALRM sampling' if profile.unit == 'seconds' else 'deterministic call ticks'}), "
        f"{profile.samples} samples",
        render_phase_breakdown(profile),
        render_hot_functions(profile, top=args.top),
        render_profile_flamegraph(profile),
        render_divergence(heaven.tracer.roots),
    ]))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """run a scenario under seeded fault injection"""
    plan = _fault_plan(args)
    row, params, heaven = _scenario(args, fault_plan=plan,
                                    num_drives=args.drives)
    outcome = 0
    try:
        row.run(heaven, params)
    except (StorageError, ServiceError) as error:
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


def cmd_export(args: argparse.Namespace) -> int:
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
        mdd = zero_object(args.object_mb, args.tile_kb, args.dims)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HEAVEN reproduction: simulated cost exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show modelled devices and knobs").set_defaults(
        handler=cmd_info)
    for name, row in _SCENARIOS.items():
        if row.command is not None:
            command = sub.add_parser(row.command, help=row.help)
            _add_flags(command, row.flags)
            command.set_defaults(handler=cmd_scenario, scenario=name)

    # Commands that run any row at its defaults.
    observers = {}
    for name, handler, default in (("trace", cmd_trace, "demo"),
                                   ("stats", cmd_stats, "demo"),
                                   ("profile", cmd_profile, "demo"),
                                   ("chaos", cmd_chaos, "retrieval")):
        observers[name] = sub.add_parser(name, help=handler.__doc__)
        observers[name].add_argument("scenario", nargs="?", default=default,
                                     choices=sorted(_SCENARIOS))
        observers[name].set_defaults(handler=handler)
    trace, profile = observers["trace"], observers["profile"]
    trace.add_argument("--jsonl", action="store_true",
                       help="dump spans as JSONL instead of ASCII rendering")
    trace.add_argument("--wall", action="store_true",
                       help="include host wall-clock times (JSONL fields, "
                            "wall flamegraph, divergence table)")
    profile.add_argument("--mode", default="auto",
                         choices=("auto", "signal", "deterministic"),
                         help="sampling mode (auto prefers SIGALRM, falls "
                              "back to deterministic call ticks)")
    profile.add_argument("--interval-ms", type=float, default=5.0,
                         help="sampling interval for signal mode")
    profile.add_argument("--top", type=int, default=10,
                         help="hot functions to list")
    _add_flags(observers["chaos"], _FAULT_FLAGS)

    simtest_cli.add_parser(sub)
    export = sub.add_parser("export", help="compare coupled vs TCT export")
    _add_flags(export, _OBJECT_FLAGS)
    export.set_defaults(handler=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
