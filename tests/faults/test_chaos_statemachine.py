"""Stateful chaos testing: random fault plans against HSM and HEAVEN.

Hypothesis drives arbitrary interleavings of reads, fault injections,
offline windows and cache churn, asserting the system-level invariants of
the fault model:

* **no data loss once archived** — whenever a read completes it returns
  exactly the archived bytes, and once all faults clear every archived
  object is fully readable again;
* **reads either succeed or raise a typed StorageError** — never a bare
  exception, never a partial/corrupt result;
* **virtual time is monotone** — faults and backoff only ever advance the
  clock.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import FaultPlan, FaultSpec, Heaven, HeavenConfig, MInterval
from repro.errors import StorageError
from repro.tertiary import DLT_7000, HSMSystem, SimClock, TapeLibrary
from repro.workloads import ClimateGrid, climate_object

#: only scheduled faults — zero random rates keep runs shrinkable and let
#: teardown verify full recoverability once the schedule is drained
SITES = ("mount", "robot", "media", "hsm")

REGIONS = [
    MInterval.of((0, 14), (0, 7), (0, 1), (0, 1)),
    MInterval.of((15, 29), (8, 14), (2, 3), (2, 2)),
    MInterval.of((5, 24), (3, 11), (1, 2), (0, 2)),
    MInterval.of((0, 29), (0, 14), (0, 3), (0, 2)),
]


class HeavenChaosMachine(RuleBasedStateMachine):
    """Random fault plans against the full HEAVEN read path."""

    def __init__(self) -> None:
        super().__init__()
        self.plan = FaultPlan(seed=0, spec=FaultSpec())
        self.heaven = Heaven(
            HeavenConfig(fault_plan=self.plan, num_drives=2)
        )
        self.heaven.create_collection("c")
        obj = climate_object("t", ClimateGrid(30, 15, 4, 3))
        self.heaven.insert("c", obj)
        # Ground truth read from disk BEFORE archiving.
        self.expected = {
            str(region): obj.read(region).copy() for region in REGIONS
        }
        self.heaven.archive("c", "t")
        self.last_now = self.heaven.clock.now

    @rule(index=st.integers(0, len(REGIONS) - 1))
    def read(self, index):
        region = REGIONS[index]
        try:
            cells = self.heaven.read("c", "t", region)
        except StorageError:
            return  # typed failure is an allowed outcome
        assert np.array_equal(cells, self.expected[str(region)])

    @rule(site=st.sampled_from(SITES), count=st.integers(1, 3))
    def inject(self, site, count):
        self.plan.fail_next(site, count=count)

    @rule()
    def go_offline(self):
        self.plan.set_offline(True)

    @rule()
    def back_online(self):
        self.plan.set_offline(False)

    @rule()
    def unmount(self):
        self.heaven.library.unmount_all()

    @rule(offset=st.integers(0, 1 << 20))
    def scratch_medium(self, offset):
        media = self.heaven.library.media()
        if not media:
            return
        medium = media[offset % len(media)]
        if medium.capacity > offset + 64:
            medium.add_bad_spot(offset, 64, transient=True)

    @rule()
    def drop_caches(self):
        self.heaven.memory_cache.invalidate_object("t")

    @invariant()
    def virtual_time_monotone(self):
        assert self.heaven.clock.now >= self.last_now
        self.last_now = self.heaven.clock.now

    @invariant()
    def drives_consistent(self):
        mounted = [
            d.medium.medium_id
            for d in self.heaven.library.drives
            if d.medium is not None
        ]
        assert len(mounted) == len(set(mounted))

    def teardown(self):
        """No data loss once archived: with all faults cleared every
        region reads back exactly as before archiving."""
        self.plan.reset()
        for medium in self.heaven.library.media():
            for spot in medium.bad_spots:
                medium.clear_bad_spot(spot)
        for region in REGIONS:
            cells = self.heaven.read("c", "t", region)
            assert np.array_equal(cells, self.expected[str(region)])


class HSMChaosMachine(RuleBasedStateMachine):
    """Random fault plans against the file-granular HSM baseline."""

    FILES = ("alpha", "beta", "gamma")

    def __init__(self) -> None:
        super().__init__()
        self.plan = FaultPlan(seed=0, spec=FaultSpec())
        library = TapeLibrary(
            DLT_7000, num_drives=2, clock=SimClock(), faults=self.plan
        )
        self.hsm = HSMSystem(library)
        self.payloads = {}
        self.last_now = self.hsm.clock.now

    @rule(name=st.sampled_from(FILES), size_kb=st.integers(1, 64))
    def archive(self, name, size_kb):
        if name in self.payloads:
            return
        payload = (name.encode() * (size_kb * 1024))[: size_kb * 1024]
        try:
            self.hsm.archive_file(name, len(payload), payload=payload)
        except StorageError:
            return  # e.g. library offline — the archive simply did not happen
        self.payloads[name] = payload

    @precondition(lambda self: self.payloads)
    @rule(name=st.sampled_from(FILES), offset=st.integers(0, 512))
    def read(self, name, offset):
        if name not in self.payloads:
            return
        payload = self.payloads[name]
        offset = min(offset, len(payload) - 1)
        try:
            data = self.hsm.read_file(name, offset, 1)
        except StorageError:
            return
        assert data == payload[offset : offset + 1]

    @rule(site=st.sampled_from(SITES), count=st.integers(1, 3))
    def inject(self, site, count):
        self.plan.fail_next(site, count=count)

    @rule()
    def toggle_offline(self):
        self.plan.set_offline(not self.plan.offline)

    @invariant()
    def virtual_time_monotone(self):
        assert self.hsm.clock.now >= self.last_now
        self.last_now = self.hsm.clock.now

    @invariant()
    def catalog_never_loses_files(self):
        assert set(self.payloads) <= set(self.hsm.files())

    def teardown(self):
        """Every archived file survives the chaos byte-for-byte, on tape
        and through the HSM."""
        self.plan.reset()
        for name, payload in self.payloads.items():
            assert self.hsm.library.read_segment(f"hsm/{name}") == payload
            assert self.hsm.read_file(name) == payload


TestHeavenChaos = HeavenChaosMachine.TestCase
TestHeavenChaos.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)

TestHSMChaos = HSMChaosMachine.TestCase
TestHSMChaos.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
