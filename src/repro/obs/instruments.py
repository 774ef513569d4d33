"""Named instrument catalog for the storage hierarchy.

One place defines every metric the layers expose, so dashboards, tests and
docs agree on names.  Most instruments are *collected*: a callback reads
the counters the devices already maintain (drive/robot stats, cache stats,
WAL records) at snapshot time, keeping the simulated hot paths untouched.
Per-query histograms are the exception — HEAVEN observes them directly
when observability is enabled.

Catalog (all names prefixed ``repro_``):

=============================== ======= ====================================
name                            kind    meaning
=============================== ======= ====================================
virtual_seconds                 gauge   SimClock.now
eventlog_events_total           counter events ever appended to the clock log
tape_exchanges_total            counter robot media exchanges (mounts)
tape_seeks_total                counter drive positioning operations
tape_bytes_read_total           counter bytes streamed off media
tape_bytes_written_total        counter bytes streamed onto media
tape_time_seconds_total         counter seconds per phase {phase=exchange|seek|transfer}
tape_bytes_staged_total         counter bytes landed in the disk cache from tape
tape_media_erased_total         counter media erased when their last live segment was deleted
tape_bytes_reclaimed_total      counter dead media bytes those erasures gave back
drive_busy_seconds              gauge   per-drive device time {drive} (load+seek+transfer)
robot_wait_seconds              gauge   seconds drives waited for the shared arm
parallel_speedup                gauge   executed speedup of parallel staging (device work / makespan)
cache_lookups_total             counter cache probes {tier=memory|disk}
cache_hits_total                counter cache hits {tier}
cache_evictions_total           counter cache evictions {tier}
cache_admissions_rejected_total counter puts refused by the admission rule {tier=memory}
cache_used_bytes                gauge   bytes resident {tier}
cache_pins_total                counter disk-cache pin references taken
cache_pinned_bytes              gauge   disk-cache bytes currently pinned
cache_pin_evictions_blocked_total counter victim nominations skipped (pinned)
cache_written_through_total     counter fresh update segments inserted into the disk cache
cache_written_through_bytes_total counter bytes of those write-through insertions
restages_total                  counter per-tile restage fallbacks (thrash)
staging_waves_total             counter capacity-sized staging admission waves
segments_staged_total           counter super-tile segment runs staged from tape
read_tiles_needed_total         counter tiles demanded by reported reads
read_bytes_useful_total         counter bytes returned to read callers
assembly_bytes_copied_total     counter redundant bytes copied on the decode/assembly path (0 = zero-copy)
precomputed_edges_total         counter condenser edge overlaps {source=reused|read}
wal_records_total               counter WAL appends
wal_syncs_total                 counter WAL commit/checkpoint syncs
txns_total                      counter transactions {outcome=committed|rolled_back}
queries_total                   counter RasQL statements executed {kind=select|mutation}
tiles_materialised_total        counter decoded tile payloads cached in memory
super_tiles_built_total         counter super-tiles created by archive()
objects_archived                gauge   objects currently on tertiary storage
faults_injected_total           counter injected hardware faults {site=mount|robot|media|stall|hsm}
fault_penalty_seconds_total     counter virtual seconds charged by injected faults
retries_total                   counter recovery retries (library + HSM staging)
retries_exhausted_total         counter operations that spent the whole retry budget
drive_failovers_total           counter mounts re-targeted to another drive after a fault
backoff_seconds_total           counter virtual seconds spent in retry backoff
degraded_reads_total            counter offline reads served entirely from caches
admission_sweeps_total          counter fused cross-query sweeps dispatched
admission_fusion_saved_bytes_total counter tape bytes cross-query fusion avoided
admission_fusion_saved_exchanges_total counter media exchanges fusion avoided
admission_holdback_seconds_total counter virtual seconds in hold-back windows
admission_queue_depth           gauge   pending staging demands at dispatch time
admission_wait_virtual_seconds  histo   per-demand virtual wait (enqueue->satisfied)
read_virtual_seconds            histo   per-read virtual latency
read_tape_bytes                 histo   per-read bytes staged from tape
read_wall_seconds               histo   per-read host wall latency
assemble_wall_seconds           histo   per-assembly host wall latency
stage_wall_seconds              histo   per-staging-batch host wall latency
span_host_us_per_virtual_second gauge   host µs per virtual second {kind}
metrics_registered              gauge   instruments in this registry
=============================== ======= ====================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .metrics import (
    BYTE_BUCKETS,
    WALL_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiler import divergence_by_kind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.heaven import Heaven


class HeavenInstruments:
    """Instrument set bound to one :class:`~repro.core.heaven.Heaven`.

    Construction registers every catalog instrument on *registry* and a
    collector that refreshes the collected ones from live layer stats.
    """

    def __init__(self, registry: MetricsRegistry, heaven: "Heaven") -> None:
        self.registry = registry
        self._heaven = heaven

        self.virtual_seconds: Gauge = registry.gauge(
            "repro_virtual_seconds", "current simulated time", "s"
        )
        self.eventlog_events: Counter = registry.counter(
            "repro_eventlog_events_total", "events appended to the clock log"
        )
        self.tape_exchanges: Counter = registry.counter(
            "repro_tape_exchanges_total", "robot media exchanges"
        )
        self.tape_seeks: Counter = registry.counter(
            "repro_tape_seeks_total", "drive positioning operations"
        )
        self.tape_bytes_read: Counter = registry.counter(
            "repro_tape_bytes_read_total", "bytes streamed off media", "B"
        )
        self.tape_bytes_written: Counter = registry.counter(
            "repro_tape_bytes_written_total", "bytes streamed onto media", "B"
        )
        self.tape_time: Counter = registry.counter(
            "repro_tape_time_seconds_total",
            "virtual seconds per tertiary cost phase",
            "s",
        )
        self.tape_bytes_staged: Counter = registry.counter(
            "repro_tape_bytes_staged_total",
            "bytes landed in the disk cache from tape",
            "B",
        )
        self.tape_media_erased: Counter = registry.counter(
            "repro_tape_media_erased_total",
            "media erased when their last live segment was deleted",
        )
        self.tape_bytes_reclaimed: Counter = registry.counter(
            "repro_tape_bytes_reclaimed_total",
            "dead media bytes given back by erasing emptied media",
            "B",
        )
        self.drive_busy_seconds: Gauge = registry.gauge(
            "repro_drive_busy_seconds",
            "per-drive device time (load + seek + transfer)",
            "s",
        )
        self.robot_wait_seconds: Gauge = registry.gauge(
            "repro_robot_wait_seconds",
            "seconds drives waited for the shared robot arm",
            "s",
        )
        self.parallel_speedup: Gauge = registry.gauge(
            "repro_parallel_speedup",
            "executed speedup of parallel staging (device work over makespan)",
        )
        self.cache_lookups: Counter = registry.counter(
            "repro_cache_lookups_total", "cache probes by tier"
        )
        self.cache_hits: Counter = registry.counter(
            "repro_cache_hits_total", "cache hits by tier"
        )
        self.cache_evictions: Counter = registry.counter(
            "repro_cache_evictions_total", "cache evictions by tier"
        )
        self.cache_admissions_rejected: Counter = registry.counter(
            "repro_cache_admissions_rejected_total",
            "tiles the memory cache's cost/frequency rule declined to admit",
        )
        self.cache_used: Gauge = registry.gauge(
            "repro_cache_used_bytes", "bytes resident by tier", "B"
        )
        self.cache_pins: Counter = registry.counter(
            "repro_cache_pins_total",
            "disk-cache pin references taken by the staging pipeline",
        )
        self.cache_pinned_bytes: Gauge = registry.gauge(
            "repro_cache_pinned_bytes",
            "disk-cache bytes currently pinned (unevictable)",
            "B",
        )
        self.cache_pin_evictions_blocked: Counter = registry.counter(
            "repro_cache_pin_evictions_blocked_total",
            "eviction nominations skipped because the candidate was pinned",
        )
        self.cache_written_through: Counter = registry.counter(
            "repro_cache_written_through_total",
            "fresh segments an update wrote through to the disk cache",
        )
        self.cache_written_through_bytes: Counter = registry.counter(
            "repro_cache_written_through_bytes_total",
            "bytes an update wrote through to the disk cache (not staged from tape)",
            "B",
        )
        self.restages: Counter = registry.counter(
            "repro_restages_total",
            "per-tile restage fallbacks after batch staging (thrash)",
        )
        self.staging_waves: Counter = registry.counter(
            "repro_staging_waves_total",
            "capacity-sized admission waves dispatched by batch staging",
        )
        self.segments_staged: Counter = registry.counter(
            "repro_segments_staged_total",
            "super-tile segment runs streamed from tape by batch staging",
        )
        self.read_tiles_needed: Counter = registry.counter(
            "repro_read_tiles_needed_total",
            "tiles demanded by reported reads",
        )
        self.read_bytes_useful: Counter = registry.counter(
            "repro_read_bytes_useful_total",
            "bytes returned to callers by reported reads",
            "B",
        )
        self.assembly_bytes_copied: Counter = registry.counter(
            "repro_assembly_bytes_copied_total",
            "redundant bytes copied on the decode/assembly path "
            "(the zero-copy pipeline keeps this at 0)",
            "B",
        )
        self.precomputed_edges: Counter = registry.counter(
            "repro_precomputed_edges_total",
            "condenser edge overlaps answered from a remembered partial "
            "(reused) or reduced from decoded cells (read)",
        )
        self.wal_records: Counter = registry.counter(
            "repro_wal_records_total", "write-ahead-log appends"
        )
        self.wal_syncs: Counter = registry.counter(
            "repro_wal_syncs_total", "WAL commit/checkpoint syncs"
        )
        self.txns: Counter = registry.counter(
            "repro_txns_total", "transactions by outcome"
        )
        self.queries: Counter = registry.counter(
            "repro_queries_total", "RasQL statements executed"
        )
        self.tiles_materialised: Counter = registry.counter(
            "repro_tiles_materialised_total",
            "decoded tile payloads cached in memory",
        )
        self.super_tiles_built: Counter = registry.counter(
            "repro_super_tiles_built_total", "super-tiles created by archive()"
        )
        self.objects_archived: Gauge = registry.gauge(
            "repro_objects_archived", "objects currently on tertiary storage"
        )
        self.faults_injected: Counter = registry.counter(
            "repro_faults_injected_total", "injected hardware faults by site"
        )
        self.fault_penalty_seconds: Counter = registry.counter(
            "repro_fault_penalty_seconds_total",
            "virtual seconds charged by injected faults",
            "s",
        )
        self.retries: Counter = registry.counter(
            "repro_retries_total", "fault-recovery retries"
        )
        self.retries_exhausted: Counter = registry.counter(
            "repro_retries_exhausted_total",
            "operations that spent the whole retry budget",
        )
        self.drive_failovers: Counter = registry.counter(
            "repro_drive_failovers_total",
            "mounts re-targeted to another drive after a fault",
        )
        self.backoff_seconds: Counter = registry.counter(
            "repro_backoff_seconds_total",
            "virtual seconds spent in retry backoff",
            "s",
        )
        self.degraded_reads: Counter = registry.counter(
            "repro_degraded_reads_total",
            "offline reads served entirely from caches",
        )
        self.admission_sweeps: Counter = registry.counter(
            "repro_admission_sweeps_total",
            "fused cross-query sweeps dispatched by the admission layer",
        )
        self.admission_fusion_saved_bytes: Counter = registry.counter(
            "repro_admission_fusion_saved_bytes_total",
            "tape bytes cross-query fusion avoided",
            "B",
        )
        self.admission_fusion_saved_exchanges: Counter = registry.counter(
            "repro_admission_fusion_saved_exchanges_total",
            "media exchanges cross-query fusion avoided",
        )
        self.admission_holdback_seconds: Counter = registry.counter(
            "repro_admission_holdback_seconds_total",
            "virtual seconds spent in anticipatory hold-back windows",
            "s",
        )
        self.admission_queue_depth: Gauge = registry.gauge(
            "repro_admission_queue_depth",
            "pending staging demands at the last dispatch decision",
        )
        self.admission_wait_virtual_seconds: Histogram = registry.histogram(
            "repro_admission_wait_virtual_seconds",
            "per-demand virtual wait from enqueue to satisfaction",
            "s",
        )
        self.read_virtual_seconds: Histogram = registry.histogram(
            "repro_read_virtual_seconds", "per-read virtual latency", "s"
        )
        self.read_tape_bytes: Histogram = registry.histogram(
            "repro_read_tape_bytes",
            "per-read bytes staged from tape",
            "B",
            boundaries=BYTE_BUCKETS,
        )
        self.read_wall_seconds: Histogram = registry.histogram(
            "repro_read_wall_seconds",
            "per-read host wall-clock latency",
            "s",
            boundaries=WALL_TIME_BUCKETS_S,
        )
        self.assemble_wall_seconds: Histogram = registry.histogram(
            "repro_assemble_wall_seconds",
            "per-assembly host wall-clock latency",
            "s",
            boundaries=WALL_TIME_BUCKETS_S,
        )
        self.stage_wall_seconds: Histogram = registry.histogram(
            "repro_stage_wall_seconds",
            "per-staging-batch host wall-clock latency",
            "s",
            boundaries=WALL_TIME_BUCKETS_S,
        )
        self.span_host_us_per_virtual_second: Gauge = registry.gauge(
            "repro_span_host_us_per_virtual_second",
            "host microseconds spent per simulated virtual second, by span kind",
        )
        self.metrics_registered: Gauge = registry.gauge(
            "repro_metrics_registered",
            "instruments registered on this metrics registry",
        )

        registry.register_collector(self.collect)

    def collect(self) -> None:
        """Refresh collected instruments from live layer statistics."""
        heaven = self._heaven
        log = heaven.clock.log
        self.virtual_seconds.set(heaven.clock.now)
        self.eventlog_events.set(len(log))

        library = heaven.library.stats()
        self.tape_exchanges.set(library.exchanges)
        self.tape_seeks.set(library.seeks)
        self.tape_bytes_read.set(library.bytes_read)
        self.tape_bytes_written.set(library.bytes_written)
        self.tape_time.set(library.time_exchanging_s, phase="exchange")
        self.tape_time.set(library.time_seeking_s, phase="seek")
        self.tape_time.set(library.time_transferring_s, phase="transfer")
        self.tape_media_erased.set(library.media_erased)
        self.tape_bytes_reclaimed.set(library.bytes_reclaimed)
        for drive in heaven.library.drives:
            self.drive_busy_seconds.set(
                drive.stats.busy_time_s, drive=drive.drive_id
            )
        self.robot_wait_seconds.set(library.time_robot_wait_s)
        self.parallel_speedup.set(
            heaven.parallel_device_seconds / heaven.parallel_makespan_seconds
            if heaven.parallel_makespan_seconds > 0
            else 1.0
        )

        disk = heaven.disk_cache.stats
        memory = heaven.memory_cache.stats
        self.tape_bytes_staged.set(disk.bytes_inserted - disk.bytes_written_through)
        self.cache_lookups.set(disk.lookups, tier="disk")
        self.cache_lookups.set(memory.lookups, tier="memory")
        self.cache_hits.set(disk.hits, tier="disk")
        self.cache_hits.set(memory.hits, tier="memory")
        self.cache_evictions.set(disk.evictions, tier="disk")
        self.cache_evictions.set(memory.evictions, tier="memory")
        self.cache_admissions_rejected.set(memory.rejections, tier="memory")
        self.cache_used.set(heaven.disk_cache.used_bytes, tier="disk")
        self.cache_used.set(heaven.memory_cache.used_bytes, tier="memory")
        self.cache_pins.set(disk.pins)
        self.cache_pinned_bytes.set(heaven.disk_cache.pinned_bytes)
        self.cache_pin_evictions_blocked.set(disk.pin_evictions_blocked)
        self.cache_written_through.set(disk.written_through)
        self.cache_written_through_bytes.set(disk.bytes_written_through)
        self.restages.set(heaven.restages)
        self.staging_waves.set(heaven.staging_waves_admitted)
        self.segments_staged.set(heaven.segments_staged)
        self.read_tiles_needed.set(heaven.read_tiles_needed)
        self.read_bytes_useful.set(heaven.read_bytes_useful)
        self.assembly_bytes_copied.set(heaven.assembly_bytes_copied)
        self.tiles_materialised.set(memory.insertions)
        precomputed = heaven.precomputed.stats
        self.precomputed_edges.set(precomputed.edge_reused, source="reused")
        self.precomputed_edges.set(precomputed.edge_read, source="read")
        self.admission_sweeps.set(heaven.admission_sweeps)
        self.admission_fusion_saved_bytes.set(
            heaven.admission_fusion_saved_bytes
        )
        self.admission_fusion_saved_exchanges.set(
            heaven.admission_fusion_saved_exchanges
        )
        self.admission_holdback_seconds.set(heaven.admission_holdback_seconds)

        wal = heaven.db.wal
        self.wal_records.set(wal.appends)
        self.wal_syncs.set(wal.syncs)
        self.txns.set(heaven.db.txns_committed, outcome="committed")
        self.txns.set(heaven.db.txns_rolled_back, outcome="rolled_back")

        executor = heaven.executor
        self.queries.set(executor.queries_run, kind="select")
        self.queries.set(executor.statements_run, kind="mutation")

        self.super_tiles_built.set(heaven.super_tiles_built)
        self.objects_archived.set(len(heaven._archived))

        faults = heaven.library.faults.stats
        for site, injected in faults.injected.items():
            self.faults_injected.set(injected, site=site)
        self.fault_penalty_seconds.set(faults.penalty_seconds)
        recovery = heaven.library.recovery
        self.retries.set(recovery.retries)
        self.retries_exhausted.set(recovery.exhausted)
        self.drive_failovers.set(recovery.failovers)
        self.backoff_seconds.set(recovery.backoff_seconds)
        self.degraded_reads.set(heaven.degraded_reads_served)

        # Host-vs-virtual divergence over the retained span forest: kinds
        # that never accumulated virtual time (pure-software spans) are
        # skipped — their ratio is undefined, not zero.
        for kind, entry in sorted(
            divergence_by_kind(heaven.tracer.roots).items()
        ):
            ratio = entry.host_us_per_virtual_second
            if ratio is not None:
                self.span_host_us_per_virtual_second.set(ratio, kind=kind)
        self.metrics_registered.set(len(self.registry))

    def observe_read(
        self,
        virtual_seconds: float,
        tape_bytes: int,
        wall_seconds: Optional[float] = None,
    ) -> None:
        """Record one hierarchical read in the per-query histograms."""
        self.read_virtual_seconds.observe(virtual_seconds)
        self.read_tape_bytes.observe(float(tape_bytes))
        if wall_seconds is not None:
            self.read_wall_seconds.observe(wall_seconds)

    def observe_admission_wait(self, wait_seconds: float) -> None:
        """Record one staging demand's enqueue-to-satisfaction wait."""
        self.admission_wait_virtual_seconds.observe(wait_seconds)

    def observe_admission_queue_depth(self, depth: int) -> None:
        """Record the shared staging queue depth at a dispatch decision."""
        self.admission_queue_depth.set(float(depth))

    def observe_assemble_wall(self, wall_seconds: float) -> None:
        """Record one region/batch assembly's host wall latency."""
        self.assemble_wall_seconds.observe(wall_seconds)

    def observe_stage_wall(self, wall_seconds: float) -> None:
        """Record one staging batch's host wall latency."""
        self.stage_wall_seconds.observe(wall_seconds)
