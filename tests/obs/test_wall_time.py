"""Wall-clock paths of the exporters and the wall-latency instruments.

The virtual-time exports were covered from PR 2 on; these tests pin the
host-time side added with the profiler: JSONL wall fields, the wall-scaled
flamegraph, the wall-latency histograms and the divergence gauge.
"""

import json
import math

import pytest

from repro.core import Heaven, HeavenConfig
from repro.obs import (
    WALL_TIME_BUCKETS_S,
    Tracer,
    prometheus_text,
    render_flamegraph,
    spans_to_jsonl,
)
from repro.tertiary import MB, SimClock
from repro.workloads import ClimateGrid, climate_object
from repro.arrays import MInterval


def _sample_trace():
    clock = SimClock()
    tracer = Tracer(clock=clock, enabled=True)
    with tracer.span("read"):
        with tracer.span("stage"):
            clock.charge(2.0, "read", "drive0", nbytes=256)
    return tracer.roots


def _observed_read():
    heaven = Heaven(
        HeavenConfig(super_tile_bytes=4 * MB, disk_cache_bytes=64 * MB),
        observability=True,
    )
    heaven.create_collection("c")
    heaven.insert("c", climate_object("t", ClimateGrid(90, 45, 8, 6), seed=3))
    heaven.archive("c", "t")
    heaven.library.unmount_all()
    region = MInterval.of((10, 50), (10, 30), (0, 3), (0, 2))
    heaven.read_with_report("c", "t", region)
    return heaven


class TestJsonlWallFields:
    def test_include_wall_emits_wall_elapsed(self):
        roots = _sample_trace()
        records = [
            json.loads(line)
            for line in spans_to_jsonl(roots, include_wall=True).splitlines()
        ]
        assert records
        for record in records:
            assert "wall_elapsed_ms" in record
            assert record["wall_elapsed_ms"] >= 0.0

    def test_exclude_wall_strips_the_field(self):
        roots = _sample_trace()
        records = [
            json.loads(line)
            for line in spans_to_jsonl(roots, include_wall=False).splitlines()
        ]
        assert all("wall_elapsed_ms" not in record for record in records)


class TestWallFlamegraph:
    def test_wall_clock_scales_by_wall_time(self):
        roots = _sample_trace()
        text = render_flamegraph(roots, clock="wall")
        assert "ms" in text
        assert "read" in text and "stage" in text

    def test_virtual_clock_unchanged_default(self):
        roots = _sample_trace()
        assert render_flamegraph(roots) == render_flamegraph(
            roots, clock="virtual"
        )

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError):
            render_flamegraph(_sample_trace(), clock="lunar")


class TestWallHistograms:
    def test_bucket_boundaries_strictly_increasing(self):
        assert all(
            b2 > b1
            for b1, b2 in zip(WALL_TIME_BUCKETS_S, WALL_TIME_BUCKETS_S[1:])
        )
        assert all(math.isfinite(b) for b in WALL_TIME_BUCKETS_S)

    def test_read_path_populates_wall_histograms(self):
        heaven = _observed_read()
        registry = heaven.obs.metrics
        read_hist = registry.get("repro_read_wall_seconds")
        assemble_hist = registry.get("repro_assemble_wall_seconds")
        stage_hist = registry.get("repro_stage_wall_seconds")
        assert read_hist.count >= 1
        assert assemble_hist.count >= 1
        assert stage_hist.count >= 1
        # wall latencies are real perf_counter deltas: tiny but positive
        assert read_hist.sum > 0.0

    def test_every_admission_query_feeds_the_read_histograms(self):
        """A direct read and each query of an admission run are reads: one
        direct read plus a 2-query run observe three."""
        from repro.core.admission import AdmissionController, QuerySpec

        heaven = _observed_read()
        AdmissionController(heaven).run([
            QuerySpec("c", "t", MInterval.of((0, 20), (0, 20), (0, 3), (0, 2))),
            QuerySpec("c", "t", MInterval.of((40, 80), (20, 40), (4, 7), (3, 5))),
        ])
        registry = heaven.obs.metrics
        for name in (
            "repro_read_virtual_seconds",
            "repro_read_tape_bytes",
            "repro_read_wall_seconds",
        ):
            assert registry.get(name).count == 3, name

    def test_prometheus_text_exposes_bucket_series(self):
        heaven = _observed_read()
        text = prometheus_text(heaven.obs.metrics)
        assert 'repro_read_wall_seconds_bucket{le="+Inf"}' in text
        assert "repro_read_wall_seconds_sum" in text
        assert "repro_read_wall_seconds_count" in text


class TestDivergenceGauge:
    def test_collect_populates_per_kind_ratio(self):
        heaven = _observed_read()
        snapshot = heaven.obs.metrics.snapshot()
        series = snapshot.get("repro_span_host_us_per_virtual_second", {})
        # at least the read path's kinds are present with positive ratios
        assert any("heaven.read" in labels for labels in series)
        assert all(value > 0 for value in series.values())

    def test_registry_size_gauge_reports_instrument_count(self):
        heaven = _observed_read()
        snapshot = heaven.obs.metrics.snapshot()
        size = snapshot["repro_metrics_registered"][""]
        assert size == len(heaven.obs.metrics)
