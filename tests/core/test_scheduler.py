"""Tests for query scheduling over tape request batches."""

import pytest

from repro.core import ElevatorScheduler, FIFOScheduler, ParallelExecutor, TapeRequest
from repro.tertiary import DLT_7000, MB, TapeLibrary, scaled_profile

PROFILE = scaled_profile(DLT_7000, 64 * MB)


@pytest.fixture
def library_with_segments():
    """Two media, four segments each, in known positions."""
    library = TapeLibrary(PROFILE, num_drives=1)
    requests = []
    for m in range(2):
        medium = library.new_medium(f"m{m}")
        for s in range(4):
            name = f"m{m}s{s}"
            library.write_segment(name, 4 * MB, medium_id=f"m{m}")
            medium_id, segment = library.segment(name)
            requests.append(
                TapeRequest(
                    key=name,
                    medium_id=medium_id,
                    offset=segment.offset,
                    length=segment.length,
                )
            )
    library.unmount_all()
    library.clock.reset()
    return library, requests


class TestOrdering:
    def test_fifo_keeps_arrival_order(self, library_with_segments):
        library, requests = library_with_segments
        shuffled = [requests[5], requests[0], requests[6], requests[1]]
        ordered = FIFOScheduler().order(shuffled, library)
        assert ordered == shuffled

    def test_elevator_groups_by_medium(self, library_with_segments):
        library, requests = library_with_segments
        interleaved = [requests[0], requests[4], requests[1], requests[5]]
        ordered = ElevatorScheduler().order(interleaved, library)
        media_sequence = [r.medium_id for r in ordered]
        # One contiguous block per medium.
        changes = sum(
            1 for a, b in zip(media_sequence, media_sequence[1:]) if a != b
        )
        assert changes == 1

    def test_elevator_sorts_by_offset_within_medium(self, library_with_segments):
        library, requests = library_with_segments
        backwards = [requests[3], requests[1], requests[2], requests[0]]
        ordered = ElevatorScheduler().order(backwards, library)
        offsets = [r.offset for r in ordered]
        assert offsets == sorted(offsets)

    def test_elevator_prefers_mounted_medium(self, library_with_segments):
        library, requests = library_with_segments
        library.mount("m1")
        ordered = ElevatorScheduler().order([requests[0], requests[4]], library)
        assert ordered[0].medium_id == "m1"

    def test_elevator_prefers_denser_media(self, library_with_segments):
        library, requests = library_with_segments
        batch = [requests[0], requests[4], requests[5], requests[6]]
        ordered = ElevatorScheduler().order(batch, library)
        assert ordered[0].medium_id == "m1"  # 3 requests vs 1


def execute(requests, library, scheduler=None):
    """Run *requests* in *scheduler*'s order (elevator by default) through
    the executor, the one runner of a tape batch."""
    scheduler = scheduler if scheduler is not None else ElevatorScheduler()
    return ParallelExecutor(library).execute(scheduler.order(requests, library))


class TestExecution:
    def test_scheduled_fewer_exchanges_than_fifo(self, library_with_segments):
        library, requests = library_with_segments
        interleaved = [
            requests[0], requests[4], requests[1], requests[5],
            requests[2], requests[6], requests[3], requests[7],
        ]
        fifo_report = execute(interleaved, library, FIFOScheduler())
        library.unmount_all()
        library.clock.reset()
        for d in library.drives:
            d.stats.seeks = 0
        elevator_report = execute(interleaved, library, ElevatorScheduler())
        assert fifo_report.exchanges == 8
        assert elevator_report.exchanges == 2
        assert elevator_report.virtual_seconds < fifo_report.virtual_seconds

    def test_elevator_reduces_seek_distance(self, library_with_segments):
        library, requests = library_with_segments
        backwards = [requests[3], requests[2], requests[1], requests[0]]
        fifo_report = execute(backwards, library, FIFOScheduler())
        library.unmount_all()
        elevator_report = execute(backwards, library, ElevatorScheduler())
        assert (
            elevator_report.seek_distance_bytes < fifo_report.seek_distance_bytes
        )

    def test_report_counts_bytes(self, library_with_segments):
        library, requests = library_with_segments
        report = execute(requests[:3], library)
        assert report.bytes_read == 12 * MB
        assert report.requests == 3
        assert len(report.order) == 3

    def test_empty_batch(self, library_with_segments):
        library, _ = library_with_segments
        report = execute([], library)
        assert report.requests == 0
        assert report.virtual_seconds == 0
