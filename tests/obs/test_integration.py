"""End-to-end observability: span trees over real HEAVEN scenarios."""

import numpy as np
import pytest

from repro import Heaven, HeavenConfig, MInterval
from repro.obs import Observability, leaf_totals
from repro.tertiary import KB, MB
from repro.workloads import ClimateGrid, climate_object
from repro.arrays import RegularTiling

#: event kinds charged by the tape path (mount + seek + transfer phases)
TAPE_KINDS = {"exchange", "load", "seek", "rewind", "settle", "read"}


def _make_heaven(observability=None) -> Heaven:
    config = HeavenConfig(
        super_tile_bytes=512 * KB,
        disk_cache_bytes=16 * MB,
        memory_cache_bytes=4 * MB,
    )
    return Heaven(config, observability=observability)


def _load_object(heaven: Heaven) -> None:
    heaven.create_collection("climate")
    obj = climate_object(
        "temp", ClimateGrid(90, 45, 8, 6), seed=1,
        tiling=RegularTiling((30, 15, 4, 3)),
    )
    heaven.insert("climate", obj)
    heaven.archive("climate", "temp")
    heaven.library.unmount_all()


REGION = MInterval.of((0, 29), (0, 14), (0, 3), (0, 2))


class TestColdReadAttribution:
    def test_cold_read_time_is_mostly_tape(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        _cells, report = heaven.read_with_report("climate", "temp", REGION)
        root = next(r for r in heaven.tracer.roots if r.name == "heaven.read")
        assert root.virtual_elapsed == pytest.approx(report.virtual_seconds)
        tape_seconds = sum(
            totals.seconds
            for kind, totals in root.aggregate().items()
            if kind in TAPE_KINDS
        )
        # A cold read's cost is dominated by mount + seek + transfer: the
        # span tree must attribute at least 90 % of its virtual time there.
        assert tape_seconds >= 0.9 * root.virtual_elapsed

    def test_read_span_tree_shape(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        heaven.read("climate", "temp", REGION)
        root = next(r for r in heaven.tracer.roots if r.name == "heaven.read")
        names = [s.name for s in root.walk()]
        assert "heaven.stage" in names
        assert "cache.lookup" in names
        assert "scheduler.plan" in names
        assert "library.stage" in names
        assert "heaven.assemble" in names

    def test_query_parents_staging_spans(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        heaven.query("select c[0:29, 0:14, 0:3, 0:2] from climate as c")
        root = next(r for r in heaven.tracer.roots if r.name == "query")
        names = [s.name for s in root.walk()]
        assert "heaven.stage" in names
        assert "library.stage" in names

    def test_scenario_root_accounts_for_all_virtual_time(self):
        heaven = _make_heaven(observability=True)
        with heaven.tracer.span("scenario"):
            _load_object(heaven)
            heaven.read("climate", "temp", REGION)
            heaven.query("select avg_cells(c) from climate as c")
        totals = leaf_totals(
            [r for r in heaven.tracer.roots if r.name == "scenario"]
        )
        attributed = sum(t.seconds for t in totals.values())
        assert attributed == pytest.approx(heaven.clock.now, rel=0.01)


class TestExchangeAccounting:
    def test_span_exchanges_match_library_stats_diff(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        before = heaven.library.stats().exchanges
        _cells, report = heaven.read_with_report("climate", "temp", REGION)
        after = heaven.library.stats().exchanges
        assert report.exchanges == after - before
        assert report.exchanges >= 1  # cold read must mount

    def test_warm_read_needs_no_exchange(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        heaven.read("climate", "temp", REGION)
        _cells, warm = heaven.read_with_report("climate", "temp", REGION)
        assert warm.exchanges == 0
        assert warm.bytes_from_tape == 0

    def test_reports_identical_with_observability_on_and_off(self):
        reports = []
        for observability in (False, True):
            heaven = _make_heaven(observability=observability)
            _load_object(heaven)
            _cells, report = heaven.read_with_report("climate", "temp", REGION)
            reports.append(report)
        off, on = reports
        assert off.exchanges == on.exchanges
        assert off.virtual_seconds == pytest.approx(on.virtual_seconds)
        assert off.bytes_from_tape == on.bytes_from_tape
        assert off.bytes_useful == on.bytes_useful

    def test_read_many_batch_report(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        regions = [
            ("climate", "temp", REGION),
            ("climate", "temp", MInterval.of((30, 59), (15, 29), (0, 3), (0, 2))),
        ]
        outputs, report = heaven.read_many(regions)
        assert len(outputs) == 2
        assert report.exchanges >= 1
        assert report.virtual_seconds > 0


class TestObservabilityKnobs:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        heaven = _make_heaven()
        assert not heaven.obs.enabled
        assert heaven.instruments is None
        assert heaven.tracer.roots == []

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        heaven = _make_heaven()
        assert heaven.obs.enabled
        assert heaven.instruments is not None

    def test_env_var_zero_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        heaven = _make_heaven()
        assert not heaven.obs.enabled

    def test_prebuilt_observability_is_adopted(self):
        obs = Observability(enabled=True)
        heaven = _make_heaven(observability=obs)
        assert heaven.obs is obs
        assert obs.tracer.clock is heaven.clock

    def test_disabled_reads_retain_no_spans(self):
        heaven = _make_heaven(observability=False)
        _load_object(heaven)
        heaven.read("climate", "temp", REGION)
        assert heaven.tracer.roots == []


class TestInstruments:
    def test_metrics_reflect_activity(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        heaven.read("climate", "temp", REGION)
        heaven.query("select avg_cells(c) from climate as c")
        snapshot = heaven.obs.metrics.snapshot()
        assert snapshot["repro_tape_exchanges_total"][""] >= 1
        assert snapshot["repro_tape_bytes_written_total"][""] > 0
        assert snapshot["repro_cache_lookups_total"]["tier=disk"] >= 1
        assert snapshot["repro_super_tiles_built_total"][""] >= 1
        assert snapshot["repro_objects_archived"][""] == 1
        assert snapshot["repro_wal_records_total"][""] > 0
        assert snapshot["repro_txns_total"]["outcome=committed"] > 0
        assert snapshot["repro_queries_total"]["kind=select"] == 1
        assert snapshot["repro_virtual_seconds"][""] == pytest.approx(
            heaven.clock.now
        )
        assert snapshot["repro_read_virtual_seconds_count"][""] >= 1

    def test_write_through_is_counted_apart_from_tape_staging(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        heaven.read("climate", "temp", REGION)
        region = MInterval.of((0, 1), (0, 1), (0, 0), (0, 0))
        heaven.update("climate", "temp", region, np.zeros(region.shape))
        stats = heaven.disk_cache.stats
        assert stats.written_through == 1 and stats.bytes_written_through > 0
        snapshot = heaven.obs.metrics.snapshot()
        assert snapshot["repro_cache_written_through_total"][""] == 1
        assert snapshot["repro_cache_written_through_bytes_total"][""] == stats.bytes_written_through
        # Every byte staged came off tape; the written-through run did not.
        assert snapshot["repro_tape_bytes_staged_total"][""] == heaven.library.stats().bytes_read

    def test_erasing_an_emptied_medium_is_counted(self):
        heaven = _make_heaven(observability=True)
        _load_object(heaven)
        written = heaven.library.stats().bytes_written
        heaven.delete("climate", "temp")
        stats = heaven.library.stats()
        assert stats.media_erased == len(heaven.library.media()) >= 1
        assert stats.bytes_reclaimed == written
        assert all(m.used_bytes == 0 for m in heaven.library.media())
        snapshot = heaven.obs.metrics.snapshot()
        assert snapshot["repro_tape_media_erased_total"][""] == stats.media_erased
        assert snapshot["repro_tape_bytes_reclaimed_total"][""] == written
