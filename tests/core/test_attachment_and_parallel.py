"""Tests for the HSM attachment mode and the parallel-drive planner."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, TapeRequest, plan_parallel
from repro.errors import HeavenError
from repro.tertiary import DLT_7000, MB, TapeLibrary, scaled_profile


def build(attachment: str):
    heaven = Heaven(
        HeavenConfig(
            attachment=attachment,
            super_tile_bytes=256 * 1024,
            disk_cache_bytes=32 * MB,
            memory_cache_bytes=8 * MB,
        )
    )
    heaven.create_collection("col")
    mdd = MDD(
        "obj",
        MInterval.of((0, 127), (0, 127)),
        DOUBLE,
        tiling=RegularTiling((32, 32)),
        source=HashedNoiseSource(5, 0.0, 9.0),
    )
    heaven.insert("col", mdd)
    heaven.archive("col", "obj")
    return heaven, mdd


class TestHSMAttachment:
    REGION = MInterval.of((0, 40), (0, 40))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            HeavenConfig(attachment="carrier-pigeon")

    def test_drive_mode_has_no_hsm_disk(self):
        heaven, _ = build("drive")
        assert heaven.hsm_staging is None

    def test_reads_stay_correct_through_hsm(self):
        heaven, mdd = build("hsm")
        expect = mdd.source.region(self.REGION, mdd.cell_type)
        assert np.array_equal(heaven.read("col", "obj", self.REGION), expect)

    def test_hsm_mode_stages_whole_super_tiles(self):
        drive_heaven, _ = build("drive")
        hsm_heaven, _ = build("hsm")
        _c, drive_report = drive_heaven.read_with_report("col", "obj", self.REGION)
        _c, hsm_report = hsm_heaven.read_with_report("col", "obj", self.REGION)
        # File granularity: the HSM path cannot read partial runs.
        assert hsm_report.bytes_from_tape >= drive_report.bytes_from_tape
        for st in hsm_heaven.archived("obj").super_tiles:
            run = hsm_heaven.disk_cache.run(st.segment_name)
            assert run in (None, (0, st.size_bytes))

    def test_hsm_mode_charges_double_hop(self):
        heaven, _ = build("hsm")
        heaven.read("col", "obj", self.REGION)
        assert heaven.hsm_staging is not None
        assert heaven.hsm_staging.stats.bytes_written > 0
        assert heaven.hsm_staging.stats.bytes_read > 0

    def test_hsm_mode_slower_than_drive_mode(self):
        drive_heaven, _ = build("drive")
        hsm_heaven, _ = build("hsm")
        _c, drive_report = drive_heaven.read_with_report("col", "obj", self.REGION)
        _c, hsm_report = hsm_heaven.read_with_report("col", "obj", self.REGION)
        assert hsm_report.virtual_seconds > drive_report.virtual_seconds

    def test_hsm_migration_passes_through_staging(self):
        heaven, mdd = build("hsm")
        assert heaven.hsm_staging is not None
        assert heaven.hsm_staging.stats.bytes_written >= mdd.size_bytes


class TestParallelPlanner:
    PROFILE = scaled_profile(DLT_7000, 64 * MB)

    def build_requests(self, media=4, per_medium=4):
        library = TapeLibrary(self.PROFILE)
        requests = []
        for m in range(media):
            library.new_medium(f"m{m}")
            for s in range(per_medium):
                name = f"m{m}/s{s}"
                library.write_segment(name, 4 * MB, medium_id=f"m{m}")
                _mid, segment = library.segment(name)
                requests.append(
                    TapeRequest(name, f"m{m}", segment.offset, segment.length)
                )
        return library, requests

    def test_single_drive_makespan_equals_serial(self):
        library, requests = self.build_requests()
        plan = plan_parallel(requests, library, 1)
        assert plan.makespan_seconds == pytest.approx(plan.serial_seconds)
        assert plan.serial_seconds / plan.makespan_seconds == pytest.approx(1.0)

    def test_speedup_grows_with_drives(self):
        library, requests = self.build_requests(media=8)
        plans = [plan_parallel(requests, library, d) for d in (1, 2, 4)]
        speedups = [plan.serial_seconds / plan.makespan_seconds for plan in plans]
        assert speedups[0] < speedups[1] < speedups[2]

    def test_speedup_bounded_by_drives_and_media(self):
        library, requests = self.build_requests(media=4)
        plan = plan_parallel(requests, library, 8)
        # media are indivisible
        assert plan.serial_seconds / plan.makespan_seconds <= 4.001

    def test_media_never_split_across_drives(self):
        library, requests = self.build_requests(media=5)
        plan = plan_parallel(requests, library, 3)
        seen = {}
        for drive in plan.drives:
            for medium in drive.media:
                assert medium not in seen
                seen[medium] = drive.drive_index
        assert len(seen) == 5

    def test_all_requests_assigned(self):
        library, requests = self.build_requests(media=3, per_medium=5)
        plan = plan_parallel(requests, library, 2)
        assigned = sum(len(d.requests) for d in plan.drives)
        assert assigned == len(requests)

    def test_balanced_load(self):
        library, requests = self.build_requests(media=8, per_medium=2)
        # Uniform per-medium costs: return the write path's leftover mount
        # to the shelf, otherwise one medium is legitimately cheaper.
        library.unmount_all()
        plan = plan_parallel(requests, library, 4)
        busy = [d.busy_seconds for d in plan.drives]
        assert max(busy) <= min(busy) * 1.5  # LPT keeps it roughly even

    def test_mounted_medium_skips_exchange_cost(self):
        library, requests = self.build_requests(media=3, per_medium=1)
        holders = [d for d in library.drives if d.medium is not None]
        assert holders  # the write path left the last medium in a drive
        # The warm plan serves the mounted medium in place: it skips the
        # exchange+load but must wind the head back from where the write
        # path left it (the cold plan starts at 0 after loading), so the
        # saving is the full exchange minus that repositioning seek.
        expected = sum(
            library.profile.full_exchange_time()
            - library.profile.seek_time(d.head_position)
            for d in holders
        )
        warm = plan_parallel(requests, library, 1)
        library.unmount_all()
        cold = plan_parallel(requests, library, 1)
        assert cold.serial_seconds - warm.serial_seconds == pytest.approx(
            expected
        )
        assert warm.serial_seconds < cold.serial_seconds

    def test_zero_drives_rejected(self):
        library, requests = self.build_requests(media=1)
        with pytest.raises(HeavenError):
            plan_parallel(requests, library, 0)

    def test_empty_batch(self):
        library, _ = self.build_requests(media=1)
        plan = plan_parallel([], library, 2)
        assert plan.makespan_seconds == 0.0
