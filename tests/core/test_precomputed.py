"""Tests for the precomputed-results catalog."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling, RGB
from repro.arrays.query.executor import MDDRef
from repro.core import PrecomputedCatalog, TileAggregate
from repro.core.precomputed import EDGE_PARTIALS_PER_TILE
from repro.errors import HeavenError


@pytest.fixture
def mdd():
    return MDD(
        "m",
        MInterval.of((0, 39), (0, 39)),
        DOUBLE,
        tiling=RegularTiling((20, 20)),
        source=HashedNoiseSource(21, 0.0, 10.0),
    )


@pytest.fixture
def catalog(mdd):
    cat = PrecomputedCatalog()
    cat.register_object(mdd)
    return cat


class TestTileAggregate:
    def test_of_array(self):
        cells = np.array([[1.0, 2.0], [3.0, 4.0]])
        agg = TileAggregate.of(cells)
        assert agg.count == 4
        assert agg.total == 10.0
        assert agg.minimum == 1.0
        assert agg.maximum == 4.0

    def test_struct_rejected(self):
        cells = np.zeros((2, 2), dtype=RGB.dtype)
        with pytest.raises(HeavenError):
            TileAggregate.of(cells)


class TestRegistration:
    def test_register_counts_tiles(self, mdd):
        catalog = PrecomputedCatalog()
        assert catalog.register_object(mdd) == 4
        assert catalog.has_object("m")

    def test_struct_object_rejected(self):
        catalog = PrecomputedCatalog()
        mdd = MDD("rgb", MInterval.of((0, 3), (0, 3)), RGB)
        with pytest.raises(HeavenError):
            catalog.register_object(mdd)

    def test_drop_object(self, mdd, catalog):
        catalog.drop_object("m")
        assert not catalog.has_object("m")


class TestTryAnswer:
    def test_pure_answer_on_tile_aligned_region(self, mdd, catalog):
        ref = MDDRef(mdd).subset([(0, 19, False), (0, 39, False)])  # tiles 0,1
        expect = mdd.read(MInterval.of((0, 19), (0, 39)))
        assert catalog.try_answer("avg_cells", ref) == pytest.approx(expect.mean())
        assert catalog.try_answer("add_cells", ref) == pytest.approx(expect.sum())
        assert catalog.try_answer("max_cells", ref) == pytest.approx(expect.max())
        assert catalog.try_answer("min_cells", ref) == pytest.approx(expect.min())
        assert catalog.stats.answered_pure == 4
        assert catalog.stats.answered_hybrid == 0

    def test_pure_answer_reads_no_cells(self, mdd, catalog):
        reads = []
        original = mdd.read
        mdd.read = lambda region: (reads.append(region), original(region))[1]
        ref = MDDRef(mdd)  # whole object is tile-aligned
        catalog.try_answer("avg_cells", ref)
        assert reads == []

    def test_hybrid_answer_on_unaligned_region(self, mdd, catalog):
        region = MInterval.of((5, 33), (2, 37))
        ref = MDDRef(mdd).subset([(5, 33, False), (2, 37, False)])
        expect = mdd.read(region)
        assert catalog.try_answer("avg_cells", ref) == pytest.approx(expect.mean())
        assert catalog.stats.answered_hybrid == 1

    def test_hybrid_region_covering_one_full_tile(self, mdd, catalog):
        # Region covers tile 0 fully plus slivers of the others.
        region = MInterval.of((0, 24), (0, 24))
        ref = MDDRef(mdd).subset([(0, 24, False), (0, 24, False)])
        expect = mdd.read(region)
        assert catalog.try_answer("add_cells", ref) == pytest.approx(expect.sum())

    def test_declines_unknown_object(self, mdd):
        catalog = PrecomputedCatalog()
        assert catalog.try_answer("avg_cells", MDDRef(mdd)) is None
        assert catalog.stats.declined == 1

    def test_declines_nondecomposable_condenser(self, mdd, catalog):
        assert catalog.try_answer("var_cells", MDDRef(mdd)) is None

    def test_answer_with_sectioned_ref(self, mdd, catalog):
        ref = MDDRef(mdd).subset([(5, 5, True), (0, 39, False)])
        expect = mdd.read(MInterval.of((5, 5), (0, 39)))
        assert catalog.try_answer("avg_cells", ref) == pytest.approx(expect.mean())


class TestInvalidation:
    def test_refresh_tile_after_update(self, mdd, catalog):
        region = MInterval.of((0, 19), (0, 19))
        mdd.write(region, np.full((20, 20), 5.0))
        catalog.refresh_tile(mdd, 0)
        ref = MDDRef(mdd).subset([(0, 19, False), (0, 19, False)])
        assert catalog.try_answer("avg_cells", ref) == pytest.approx(5.0)


UNALIGNED = [(5, 33, False), (2, 37, False)]


def edge_partials(catalog, tile_id):
    return len(catalog._edges.get("m", {}).get(tile_id, ()))


class TestEdgePartials:
    def test_repeated_condenser_reuses_every_edge(self, mdd, catalog):
        ref = MDDRef(mdd).subset(UNALIGNED)
        first = catalog.try_answer("add_cells", ref)
        assert (catalog.stats.edge_read, catalog.stats.edge_reused) == (4, 0)
        reads = []
        original = mdd.materialize_tile
        mdd.materialize_tile = lambda tile: (reads.append(tile), original(tile))[1]
        assert catalog.try_answer("add_cells", ref) == first
        assert reads == []
        assert (catalog.stats.edge_read, catalog.stats.edge_reused) == (4, 4)
        assert catalog.stats.answered_hybrid == 2

    def test_answers_bit_identical_to_reading_the_overlaps(self, mdd, catalog):
        region = MInterval.of((5, 33), (2, 37))
        ref = MDDRef(mdd).subset(UNALIGNED)
        total = 0.0
        for tile in mdd.tiles_for(region):
            overlap = mdd.read(tile.domain.intersection(region))
            total += float(overlap.sum(dtype=np.float64))
        for _ in range(2):
            assert catalog.try_answer("add_cells", ref) == total

    def test_prepare_sees_only_unknown_edges(self, mdd, catalog):
        staged = []

        def prepare(_mdd, tile_ids, reduce):
            staged.append(list(tile_ids))
            return reduce()

        # Tiles 0 and 2 share this box's overlaps with UNALIGNED's.
        catalog.try_answer(
            "max_cells", MDDRef(mdd).subset([(5, 33, False), (2, 19, False)]), prepare
        )
        catalog.try_answer("max_cells", MDDRef(mdd).subset(UNALIGNED), prepare)
        assert staged == [[0, 2], [1, 3]]
        catalog.try_answer("max_cells", MDDRef(mdd).subset(UNALIGNED), prepare)
        assert staged == [[0, 2], [1, 3]]

    def test_prepare_context_wraps_edge_reads_and_exits_on_error(
        self, mdd, catalog, monkeypatch
    ):
        events = []

        def prepare(_mdd, tile_ids, reduce):
            events.append(("enter", list(tile_ids)))
            try:
                return reduce()
            finally:
                events.append(("exit",))

        # Tiles 0 and 2 share this box's overlaps with UNALIGNED's.
        catalog.try_answer(
            "add_cells", MDDRef(mdd).subset([(5, 33, False), (2, 19, False)]), prepare
        )
        assert events == [("enter", [0, 2]), ("exit",)]

        def failing_read(_tile):
            assert events[-1] == ("enter", [1, 3])  # edge reads run inside it
            raise RuntimeError("decode failed")

        monkeypatch.setattr(mdd, "materialize_tile", failing_read)
        with pytest.raises(RuntimeError, match="decode failed"):
            catalog.try_answer("add_cells", MDDRef(mdd).subset(UNALIGNED), prepare)
        assert events[2:] == [("enter", [1, 3]), ("exit",)]

    def test_refresh_tile_drops_its_edge_partials(self, mdd, catalog):
        ref = MDDRef(mdd).subset(UNALIGNED)
        catalog.try_answer("add_cells", ref)
        mdd.write(MInterval.of((0, 19), (0, 19)), np.full((20, 20), 5.0))
        catalog.refresh_tile(mdd, 0)
        assert edge_partials(catalog, 0) == 0
        assert edge_partials(catalog, 1) == 1
        expect = mdd.read(MInterval.of((5, 33), (2, 37)))
        assert catalog.try_answer("add_cells", ref) == pytest.approx(expect.sum())
        assert catalog.stats.edge_read == 5

    def test_register_and_drop_forget_edge_partials(self, mdd, catalog):
        ref = MDDRef(mdd).subset(UNALIGNED)
        catalog.try_answer("add_cells", ref)
        catalog.register_object(mdd)
        assert edge_partials(catalog, 0) == 0
        catalog.try_answer("add_cells", ref)
        catalog.drop_object("m")
        assert edge_partials(catalog, 0) == 0

    def test_partials_per_tile_are_bounded_oldest_first(self, mdd, catalog):
        def column(hi):
            return MDDRef(mdd).subset([(0, hi, False), (0, 0, False)])

        for hi in range(1, 10):  # nine distinct overlaps of tile 0
            catalog.try_answer("add_cells", column(hi))
        assert edge_partials(catalog, 0) == EDGE_PARTIALS_PER_TILE < 9
        catalog.try_answer("add_cells", column(9))  # newest: kept
        assert catalog.stats.edge_reused == 1
        catalog.try_answer("add_cells", column(1))  # oldest: dropped
        assert catalog.stats.edge_read == 10
