"""Tests for the HSM attachment mode and multi-drive batch execution."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import ElevatorScheduler, Heaven, HeavenConfig, ParallelExecutor, TapeRequest
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


class TestParallelDrives:
    """Multi-drive dispatch, executed by the :class:`ParallelExecutor` on
    real N-drive libraries over an elevator-ordered batch."""

    PROFILE = scaled_profile(DLT_7000, 64 * MB)

    def build_requests(self, media=4, per_medium=4, drives=1):
        library = TapeLibrary(self.PROFILE, num_drives=drives)
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

    def run(self, requests, library):
        ordered = ElevatorScheduler().order(requests, library)
        return ParallelExecutor(library).execute(ordered)

    def cold_run(self, drives, **batch):
        """The batch on a fresh *drives*-drive library, every medium shelved."""
        library, requests = self.build_requests(drives=drives, **batch)
        library.unmount_all()
        return self.run(requests, library)

    def test_single_drive_makespan_equals_serial(self):
        library, requests = self.build_requests()
        report = self.run(requests, library)
        assert report.makespan_seconds == pytest.approx(report.serial_device_seconds)
        assert report.speedup == pytest.approx(1.0)

    def test_speedup_grows_with_drives(self):
        speedups = [self.cold_run(d, media=8).speedup for d in (1, 2, 4)]
        assert speedups[0] < speedups[1] < speedups[2]

    def test_speedup_bounded_by_drives_and_media(self):
        report = self.cold_run(8, media=4)
        # media are indivisible
        assert report.speedup <= 4.001

    def test_media_never_split_across_drives(self):
        report = self.cold_run(3, media=5)
        seen = {}
        for share in report.drives:
            for medium in share.media:
                assert medium not in seen
                seen[medium] = share.drive_id
        assert len(seen) == 5

    def test_all_requests_assigned(self):
        library, requests = self.build_requests(media=3, per_medium=5, drives=2)
        report = self.run(requests, library)
        assert sum(share.requests for share in report.drives) == len(requests)

    def test_mounted_medium_skips_exchange_cost(self):
        warm_library, requests = self.build_requests(media=3, per_medium=1)
        holders = [d for d in warm_library.drives if d.medium is not None]
        assert holders  # the write path left the last medium in a drive
        # The warm run serves the mounted medium in place: it skips the
        # exchange+load but must wind the head back from where the write
        # path left it (the cold run starts at 0 after loading), so the
        # saving is the full exchange minus that repositioning seek.
        expected = sum(
            warm_library.profile.full_exchange_time()
            - warm_library.profile.seek_time(d.head_position)
            for d in holders
        )
        warm = self.run(requests, warm_library)
        cold = self.cold_run(1, media=3, per_medium=1)
        assert cold.serial_device_seconds - warm.serial_device_seconds == pytest.approx(
            expected
        )
        assert warm.serial_device_seconds < cold.serial_device_seconds

    def test_empty_batch(self):
        library, _ = self.build_requests(media=1, drives=2)
        report = self.run([], library)
        assert report.makespan_seconds == 0.0
