"""Device cost-model profiles for the tertiary-storage simulator.

The HEAVEN dissertation (Kapitel 1.1/2.2) characterises the storage
hierarchy with a handful of numbers that every experiment depends on:

* tape media-exchange time 12 s – 40 s (robot swap + load),
* mean tape access (position to the middle of the tape) 27 s – 95 s,
* disk random access 10**3 – 10**4 times faster than tape,
* tape transfer rate only about 2x slower than disk transfer rate,
* tape per-gigabyte cost far below disk — the reason tertiary storage
  remains the only practical store for hundreds of TB.

The profiles below encode those ranges as concrete, internally consistent
devices.  Seek time on tape is modelled linearly in the byte distance the
tape must wind: positioning from the physical beginning to the middle of the
medium takes exactly ``avg_seek_time_s``, matching the paper's definition of
mean access time for magnetic tapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB


@dataclass(frozen=True)
class TapeProfile:
    """Cost model of one removable-medium drive technology.

    Attributes:
        name: technology label, e.g. ``"DLT-7000"``.
        media_capacity_bytes: native capacity of one medium.
        exchange_time_s: robot time to swap a medium into a drive
            (unload old + fetch + insert new).
        load_time_s: drive-internal thread/load time after insertion.
        avg_seek_time_s: time to position from beginning to the middle of
            the medium (the paper's mean access time definition).
        transfer_rate_bps: sustained sequential transfer rate, bytes/second.
        rewind_before_unload: whether the drive must rewind to the physical
            beginning before the medium can be ejected (true for tape,
            false for optical platters).
        seekable: random-positioning capability; optical media seek in
            near-constant time instead of winding.
        stop_start_penalty_s: repositioning cost charged per discrete write
            operation.  Streaming drives cannot keep the tape moving when
            data arrives as many small, individually committed chunks: each
            chunk ends the stream, the drive overshoots, stops and backs up
            ("shoe-shining").  One large streamed segment pays this once;
            a tile-by-tile export pays it per tile — the physical effect
            behind the coupled-vs-TCT export gap (Kapitel 4.3).
        locate_overhead_s: constant component of every repositioning (servo
            sync + locate command), paid on top of the distance-linear wind
            whenever the head moves.  This is why fetching many small
            pieces loses against fewer large ones even when the pieces are
            near each other — the left arm of the super-tile size U-curve
            (E7).
    """

    name: str
    media_capacity_bytes: int
    exchange_time_s: float
    load_time_s: float
    avg_seek_time_s: float
    transfer_rate_bps: float
    rewind_before_unload: bool = True
    seekable: bool = False
    stop_start_penalty_s: float = 0.8
    locate_overhead_s: float = 1.2

    @property
    def wind_rate_bps(self) -> float:
        """Tape wind speed implied by the average-seek definition.

        Positioning across half the medium takes ``avg_seek_time_s``
        including the constant locate overhead, so the wind rate is
        ``(capacity / 2) / (avg_seek_time_s - locate_overhead_s)``.
        """
        wind_seconds = max(1e-6, self.avg_seek_time_s - self.locate_overhead_s)
        return (self.media_capacity_bytes / 2.0) / wind_seconds

    def seek_time(self, distance_bytes: int) -> float:
        """Time to move the head across *distance_bytes* of medium.

        Zero distance is free; any movement pays the constant locate
        overhead plus distance-linear winding (tape) or a constant access
        (optical).
        """
        if distance_bytes < 0:
            distance_bytes = -distance_bytes
        if distance_bytes == 0:
            return 0.0
        if self.seekable:
            # Optical: essentially constant-time positioning.
            return self.avg_seek_time_s
        return self.locate_overhead_s + distance_bytes / self.wind_rate_bps

    def transfer_time(self, nbytes: int) -> float:
        """Time to stream *nbytes* sequentially."""
        return nbytes / self.transfer_rate_bps

    def full_exchange_time(self) -> float:
        """Robot exchange plus drive load — cost of one media change."""
        return self.exchange_time_s + self.load_time_s


@dataclass(frozen=True)
class DiskProfile:
    """Cost model of secondary storage (disk arrays, staging areas).

    Disk access is modelled as one average positioning latency per request
    plus sequential transfer, which preserves the paper's two headline
    ratios: random access 10**3-10**4 times faster than tape, transfer rate
    about 2x faster than tape.
    """

    name: str
    capacity_bytes: int
    avg_access_time_s: float
    transfer_rate_bps: float

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.transfer_rate_bps

    def io_time(self, nbytes: int) -> float:
        """One random access followed by a sequential transfer."""
        return self.avg_access_time_s + self.transfer_time(nbytes)


@dataclass(frozen=True)
class NetworkProfile:
    """Simple fixed-bandwidth network link (paper Kapitel 1.1 example)."""

    name: str
    bandwidth_bps: float
    latency_s: float = 0.05

    def transfer_time(self, nbytes: int) -> float:
        return self.latency_s + nbytes * 8.0 / self.bandwidth_bps


# --------------------------------------------------------------------------
# Concrete profiles.  Numbers sit inside the ranges quoted in the paper and
# are mutually consistent (tape transfer about half of disk transfer; tape
# random access >= 10**3 x disk random access).
# --------------------------------------------------------------------------

#: Fast DLT-class drive: 35 GB media, quick robot, mid-range seek.
DLT_7000 = TapeProfile(
    name="DLT-7000",
    media_capacity_bytes=35 * GB,
    exchange_time_s=12.0,
    load_time_s=8.0,
    avg_seek_time_s=45.0,
    transfer_rate_bps=15 * MB,
)

#: LTO-1 class drive: 100 GB media, slower robot, longer winds.
LTO_1 = TapeProfile(
    name="LTO-1",
    media_capacity_bytes=100 * GB,
    exchange_time_s=20.0,
    load_time_s=15.0,
    avg_seek_time_s=60.0,
    transfer_rate_bps=16 * MB,
)

#: Pessimistic archive drive at the slow end of the paper's ranges.
AIT_2 = TapeProfile(
    name="AIT-2",
    media_capacity_bytes=50 * GB,
    exchange_time_s=40.0,
    load_time_s=15.0,
    avg_seek_time_s=95.0,
    transfer_rate_bps=6 * MB,
)

#: Magneto-optical platter: small, seekable, no rewind on eject.
MO_5_2 = TapeProfile(
    name="MO-5.2GB",
    media_capacity_bytes=int(5.2 * GB),
    exchange_time_s=8.0,
    load_time_s=4.0,
    avg_seek_time_s=0.035,
    transfer_rate_bps=5 * MB,
    rewind_before_unload=False,
    seekable=True,
    stop_start_penalty_s=0.0,
    locate_overhead_s=0.0,
)

#: Staging/cache disk array: 30 MB/s, 6 ms access.  Random access is
#: (45 s / 6 ms) = 7500x faster than DLT-7000 — inside the paper's
#: 10**3-10**4 band; transfer is 2x the DLT rate.
DISK_ARRAY = DiskProfile(
    name="disk-array",
    capacity_bytes=2 * TB,
    avg_access_time_s=0.006,
    transfer_rate_bps=30 * MB,
)

#: The paper's example network: 8 Mbit/s asymmetric DSL.
DSL_8MBIT = NetworkProfile(name="adsl-8mbit", bandwidth_bps=8_000_000.0)

#: Registry used by benchmarks and the E1 environment table.
TAPE_PROFILES: Dict[str, TapeProfile] = {
    p.name: p for p in (DLT_7000, LTO_1, AIT_2, MO_5_2)
}


def scaled_profile(profile: TapeProfile, capacity_bytes: int) -> TapeProfile:
    """Return *profile* with a different media capacity, same mechanics.

    Useful for laptop-scale experiments: a smaller virtual medium keeps
    object counts manageable while the timing model (exchange, wind rate,
    transfer) stays identical, so relative results are unchanged.
    """
    scale = capacity_bytes / profile.media_capacity_bytes
    wind_seconds = max(1e-6, profile.avg_seek_time_s - profile.locate_overhead_s)
    return replace(
        profile,
        media_capacity_bytes=capacity_bytes,
        # Scale only the distance-linear wind component; the constant
        # locate overhead is a drive property, not a medium property.
        avg_seek_time_s=profile.locate_overhead_s + wind_seconds * scale,
    )


@dataclass(frozen=True)
class EnvironmentRow:
    """One row of the E1 test-environment characteristics table."""

    device: str
    capacity: str
    exchange_s: str
    avg_access_s: str
    transfer: str
    access_vs_disk: str


def environment_table(disk: DiskProfile = DISK_ARRAY) -> "list[EnvironmentRow]":
    """Build the E1 table comparing every tape profile against disk."""
    rows = []
    for profile in TAPE_PROFILES.values():
        ratio = profile.avg_seek_time_s / disk.avg_access_time_s
        rows.append(
            EnvironmentRow(
                device=profile.name,
                capacity=f"{profile.media_capacity_bytes / GB:.1f} GB",
                exchange_s=f"{profile.full_exchange_time():.0f}",
                avg_access_s=f"{profile.avg_seek_time_s:g}",
                transfer=f"{profile.transfer_rate_bps / MB:.0f} MB/s",
                access_vs_disk=f"{ratio:,.0f}x",
            )
        )
    rows.append(
        EnvironmentRow(
            device=disk.name,
            capacity=f"{disk.capacity_bytes / TB:.1f} TB",
            exchange_s="-",
            avg_access_s=f"{disk.avg_access_time_s:g}",
            transfer=f"{disk.transfer_rate_bps / MB:.0f} MB/s",
            access_vs_disk="1x",
        )
    )
    return rows
