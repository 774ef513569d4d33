"""Tests for the file-level HSM (whole-file granularity baseline)."""

import pytest

from repro.errors import HSMError
from repro.tertiary import DLT_7000, HSMSystem, MB, TapeLibrary, scaled_profile

PROFILE = scaled_profile(DLT_7000, 100 * MB)


@pytest.fixture
def hsm():
    return HSMSystem(TapeLibrary(PROFILE), staging_capacity_bytes=30 * MB)


class TestArchive:
    def test_archive_registers_file(self, hsm):
        entry = hsm.archive_file("f", 5 * MB)
        assert entry.size == 5 * MB
        assert "f" in hsm.files()

    def test_duplicate_archive_rejected(self, hsm):
        hsm.archive_file("f", MB)
        with pytest.raises(HSMError):
            hsm.archive_file("f", MB)

    def test_payload_size_mismatch_rejected(self, hsm):
        with pytest.raises(HSMError):
            hsm.archive_file("f", 10, payload=b"xx")


class TestStaging:
    def test_whole_file_staged_even_for_tiny_read(self, hsm):
        hsm.archive_file("f", 20 * MB)
        hsm.read_file("f", offset=0, length=1024)
        # The paper's point: 1 KB requested, 20 MB moved from tape.
        assert hsm.stats.bytes_staged_from_tape == 20 * MB
        assert hsm.stats.bytes_served == 1024

    def test_second_read_hits_staging_area(self, hsm):
        hsm.archive_file("f", 10 * MB)
        hsm.read_file("f", 0, 100)
        tape_bytes = hsm.stats.bytes_staged_from_tape
        hsm.read_file("f", 5 * MB, 100)
        assert hsm.stats.bytes_staged_from_tape == tape_bytes  # no new tape I/O
        assert hsm.stats.stage_hits == 1

    def test_stage_hit_much_cheaper_than_miss(self, hsm):
        hsm.archive_file("f", 10 * MB)
        t0 = hsm.clock.now
        hsm.stage_file("f")
        miss_cost = hsm.clock.now - t0
        t1 = hsm.clock.now
        hsm.stage_file("f")
        hit_cost = hsm.clock.now - t1
        assert miss_cost > 100 * max(hit_cost, 1e-9)

    def test_read_outside_file_rejected(self, hsm):
        hsm.archive_file("f", MB)
        with pytest.raises(HSMError):
            hsm.read_file("f", offset=MB - 10, length=100)

    def test_unknown_file_rejected(self, hsm):
        with pytest.raises(HSMError):
            hsm.stage_file("ghost")

    def test_payload_roundtrip(self, hsm):
        payload = bytes(range(256)) * 4
        hsm.archive_file("f", len(payload), payload=payload)
        got = hsm.read_file("f", 16, 32)
        assert got == payload[16:48]


class TestStagingEviction:
    def test_lru_eviction_when_capacity_exceeded(self, hsm):
        hsm.archive_file("a", 15 * MB)
        hsm.archive_file("b", 15 * MB)
        hsm.archive_file("c", 15 * MB)
        hsm.stage_file("a")
        hsm.stage_file("b")
        hsm.stage_file("c")  # 45 MB > 30 MB capacity: evicts 'a'
        assert not hsm.is_staged("a")
        assert hsm.is_staged("b") and hsm.is_staged("c")
        assert hsm.stats.evictions == 1

    def test_access_refreshes_lru_position(self, hsm):
        hsm.archive_file("a", 15 * MB)
        hsm.archive_file("b", 15 * MB)
        hsm.archive_file("c", 15 * MB)
        hsm.stage_file("a")
        hsm.stage_file("b")
        hsm.stage_file("a")  # refresh a; b becomes LRU
        hsm.stage_file("c")
        assert hsm.is_staged("a")
        assert not hsm.is_staged("b")

    def test_file_larger_than_staging_rejected(self, hsm):
        hsm.archive_file("huge", 40 * MB)
        with pytest.raises(HSMError):
            hsm.stage_file("huge")

    def test_hit_ratio(self, hsm):
        hsm.archive_file("a", MB)
        hsm.stage_file("a")
        hsm.stage_file("a")
        hsm.stage_file("a")
        assert hsm.stats.stage_hits / hsm.stats.stage_requests == pytest.approx(2 / 3)
