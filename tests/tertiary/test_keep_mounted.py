"""The append-medium keep: ``TapeLibrary.append_target`` and
``keep_mounted``, a drive preference that never blocks a mount."""

import numpy as np
import pytest

from repro import FaultPlan, RetryExhaustedError
from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.tertiary import DLT_7000, MB, TapeLibrary, scaled_profile

PROFILE = scaled_profile(DLT_7000, 50 * MB)


def library_with(num_drives, *media, faults=None):
    library = TapeLibrary(PROFILE, num_drives=num_drives, faults=faults)
    for medium_id in media:
        library.new_medium(medium_id)
    return library


def holders(library):
    return [d.medium.medium_id if d.medium is not None else None for d in library.drives]


class TestAppendTarget:
    def test_names_the_medium_allocate_would_fill(self):
        library = library_with(1, "a", "b")
        library.write_segment("s0", 45 * MB)
        assert library.append_target(10 * MB) == "b"
        assert library.allocate_medium(10 * MB).medium_id == "b"
        assert library.append_target(1 * MB) == "a"

    def test_is_pure_and_none_when_nothing_fits(self):
        library = library_with(1, "a")
        library.write_segment("s0", 45 * MB)
        assert library.append_target(10 * MB) is None
        assert [m.medium_id for m in library.media()] == ["a"]
        assert library.allocate_medium(10 * MB).medium_id != "a"


class TestKeepMounted:
    def test_lru_pick_is_diverted_off_the_kept_drive(self):
        library = library_with(2, "k", "x", "y")
        library.mount("k")  # drive-0, least recently used
        library.mount("x")  # drive-1
        with library.keep_mounted("k"):
            assert library.mount("y").drive_id == "drive-1"
        assert holders(library) == ["k", "y"]
        assert library.stats().kept_mounts == 1

    def test_a_free_drive_still_wins_and_counts_nothing(self):
        library = library_with(2, "k", "x")
        library.mount("k")
        with library.keep_mounted("k"):
            assert library.mount("x").drive_id == "drive-1"
        assert library.stats().kept_mounts == 0

    def test_the_kept_medium_is_still_read_on_its_drive(self):
        library = library_with(2, "k", "x")
        library.mount("k")
        library.mount("x")
        with library.keep_mounted("k"):
            assert library.drive_for("k").drive_id == "drive-0"
            library.read_extent("k", 0, 4096)
        assert library.robot.stats.exchanges == 2

    def test_a_shelved_medium_keeps_nothing(self):
        library = library_with(2, "k", "x", "y", "z")
        library.mount("x")
        library.mount("y")
        with library.keep_mounted("k"):
            assert library.mount("z").drive_id == "drive-0"
        assert library.stats().kept_mounts == 0

    def test_the_keep_ends_with_its_scope(self):
        library = library_with(2, "k", "j", "x", "y")
        library.mount("k")
        library.mount("x")
        with pytest.raises(RuntimeError):
            with library.keep_mounted("k"):
                with library.keep_mounted("j"):
                    pass
                # the inner scope restored the outer keep
                assert library.mount("y").drive_id == "drive-1"
                raise RuntimeError("boom")
        library.mount("j")  # no keep left: plain LRU takes k's drive
        assert holders(library) == ["j", "y"]
        assert library.stats().kept_mounts == 1


class TestKeepIsNeverABlock:
    def test_failover_bans_leaving_only_the_kept_drive_still_mount(self):
        plan = FaultPlan(seed=1)
        library = library_with(2, "k", "x", "y", faults=plan)
        library.mount("k")
        library.mount("x")
        # The keep diverts y to drive-1, which rejects the load: the
        # failover ban leaves only the kept drive, and y goes there.
        plan.fail_next("mount", device="drive-1")
        with library.keep_mounted("k"):
            assert library.mount("y").drive_id == "drive-0"
        assert library.recovery.failovers == 1
        # drive-1 stowed x before its load failed; the stow stands
        assert holders(library) == ["y", None]

    def test_one_drive_library_logs_the_same_events(self):
        def run(keep):
            library = library_with(1, "k", "x")
            library.mount("k")
            with library.keep_mounted(keep):
                library.read_extent("x", 8192, 4096)
                library.read_extent("k", 0, 4096)
            return list(library.clock.log), library.stats()

        plain, plain_stats = run(None)
        kept, kept_stats = run("k")
        assert kept == plain
        assert kept_stats == plain_stats and kept_stats.kept_mounts == 0

    def test_keep_is_released_when_an_update_raises_mid_stage(self):
        plan = FaultPlan()
        heaven = Heaven(
            HeavenConfig(
                num_drives=2,
                super_tile_bytes=32 * 1024,
                disk_cache_bytes=16 * MB,
                memory_cache_bytes=4 * MB,
                fault_plan=plan,
            )
        )
        heaven.create_collection("col")
        heaven.insert("col", MDD(
            "obj",
            MInterval.of((0, 127), (0, 127)),
            DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(3, 0.0, 50.0),
        ))
        heaven.archive("col", "obj")
        library = heaven.library
        (append_to,) = [m.medium_id for m in library.media()]
        library.unmount_all()
        plan.fail_next("media", count=50)
        with pytest.raises(RetryExhaustedError):
            heaven.update("col", "obj", MInterval.of((0, 3), (0, 3)), np.ones((4, 4)))
        plan.reset()
        # With no keep left, the LRU drive is picked even when it holds
        # the append medium.
        library.unmount_all()
        library.mount(append_to, library.drives[0])
        library.mount(library.new_medium().medium_id, library.drives[1])
        assert library.mount(library.new_medium().medium_id).drive_id == "drive-0"
        assert library.stats().kept_mounts == 0
