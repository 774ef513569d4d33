"""Tests for materialised scaling pyramids."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling, RGB
from repro.arrays.query.executor import MDDRef
from repro.core import Heaven, HeavenConfig, PyramidCatalog
from repro.errors import HeavenError
from repro.tertiary import MB


@pytest.fixture
def mdd():
    return MDD(
        "m",
        MInterval.of((0, 63), (0, 63)),
        DOUBLE,
        tiling=RegularTiling((32, 32)),
        source=HashedNoiseSource(31, 0.0, 10.0),
    )


@pytest.fixture
def catalog(mdd):
    cat = PyramidCatalog()
    cat.build(mdd, [2, 4])
    return cat


class TestBuild:
    def test_levels_registered(self, mdd, catalog):
        assert catalog.has_object("m")
        assert sorted(catalog._levels["m"]) == [2, 4]

    def test_level_cells_are_block_means(self, mdd, catalog):
        base = mdd.read_all()
        ref = MDDRef(mdd)
        answer = catalog.try_answer(ref, [2, 2])
        assert answer is not None
        expect = base.reshape(32, 2, 32, 2).mean(axis=(1, 3))
        assert np.allclose(answer.cells, expect)

    def test_pyramid_size_fraction(self, mdd, catalog):
        # 2-D levels at 2 and 4: 1/4 + 1/16 of the base size.
        expected = mdd.size_bytes * (1 / 4 + 1 / 16)
        assert catalog.total_bytes("m") == pytest.approx(expected, rel=0.01)

    def test_factors_below_two_rejected(self, mdd):
        with pytest.raises(HeavenError):
            PyramidCatalog().build(mdd, [1])

    def test_struct_cells_rejected(self):
        mdd = MDD("rgb", MInterval.of((0, 7), (0, 7)), RGB)
        with pytest.raises(HeavenError):
            PyramidCatalog().build(mdd, [2])

    def test_drop_and_invalidate(self, catalog):
        catalog.invalidate("m")
        assert not catalog.has_object("m")


class TestTryAnswer:
    def test_aligned_subregion(self, mdd, catalog):
        ref = MDDRef(mdd).subset([(0, 31, False), (32, 63, False)])
        answer = catalog.try_answer(ref, [2, 2])
        assert answer is not None
        assert answer.domain == MInterval.of((0, 15), (16, 31))
        expect = mdd.read(MInterval.of((0, 31), (32, 63)))
        assert np.allclose(
            answer.cells, expect.reshape(16, 2, 16, 2).mean(axis=(1, 3))
        )

    def test_unaligned_region_declined(self, mdd, catalog):
        ref = MDDRef(mdd).subset([(1, 32, False), (0, 63, False)])
        assert catalog.try_answer(ref, [2, 2]) is None
        assert catalog.stats.declined == 1

    def test_missing_factor_declined(self, mdd, catalog):
        assert catalog.try_answer(MDDRef(mdd), [8, 8]) is None

    def test_anisotropic_declined(self, mdd, catalog):
        assert catalog.try_answer(MDDRef(mdd), [2, 4]) is None

    def test_unknown_object_declined(self, catalog):
        other = MDD("other", MInterval.of((0, 7), (0, 7)))
        assert catalog.try_answer(MDDRef(other), [2, 2]) is None

    def test_sectioned_ref_declined(self, mdd, catalog):
        ref = MDDRef(mdd).subset([(3, 3, True), (0, 63, False)])
        assert catalog.try_answer(ref, [2]) is None

    def test_answer_is_a_copy(self, mdd, catalog):
        a = catalog.try_answer(MDDRef(mdd), [2, 2])
        b = catalog.try_answer(MDDRef(mdd), [2, 2])
        a.cells[0, 0] = 12345.0
        assert b.cells[0, 0] != 12345.0


class TestHeavenIntegration:
    def make_heaven(self, factors=(2, 4)):
        heaven = Heaven(
            HeavenConfig(
                super_tile_bytes=512 * 1024,
                disk_cache_bytes=32 * MB,
                memory_cache_bytes=8 * MB,
                pyramid_factors=factors,
            )
        )
        heaven.create_collection("col")
        mdd = MDD(
            "obj",
            MInterval.of((0, 127), (0, 127)),
            DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(8, 0.0, 1.0),
        )
        heaven.insert("col", mdd)
        heaven.archive("col", "obj")
        return heaven, mdd

    def test_scale_query_answered_without_tape(self):
        heaven, mdd = self.make_heaven()
        tape_before = heaven.library.stats().bytes_read
        results = heaven.query("select scale(c, 4, 4) from col as c")
        assert heaven.library.stats().bytes_read == tape_before
        assert heaven.pyramids.stats.answered == 1
        assert results[0].value.domain.shape == (32, 32)

    def test_scale_result_matches_direct_computation(self):
        heaven, mdd = self.make_heaven()
        results = heaven.query("select scale(c, 2, 2) from col as c")
        base = mdd.source.region(mdd.domain, mdd.cell_type)
        expect = base.reshape(64, 2, 64, 2).mean(axis=(1, 3))
        assert np.allclose(results[0].value.cells, expect)

    def test_unavailable_factor_falls_back_to_tape(self):
        heaven, mdd = self.make_heaven(factors=(2,))
        tape_before = heaven.library.stats().bytes_read
        heaven.query("select scale(c, 8, 8) from col as c")
        assert heaven.library.stats().bytes_read > tape_before

    def test_update_invalidates_pyramids(self):
        heaven, mdd = self.make_heaven()
        heaven.update(
            "col", "obj", MInterval.of((0, 3), (0, 3)), np.zeros((4, 4))
        )
        assert not heaven.pyramids.has_object("obj")

    def test_delete_drops_pyramids(self):
        heaven, _ = self.make_heaven()
        heaven.delete("col", "obj")
        assert not heaven.pyramids.has_object("obj")

    def test_pyramids_off_by_default(self, heaven_small, cube_mdd):
        heaven_small.create_collection("col")
        heaven_small.insert("col", cube_mdd)
        heaven_small.archive("col", "cube")
        assert not heaven_small.pyramids.has_object("cube")
