"""Edge-case and utility coverage across packages."""

import numpy as np
import pytest

from repro.arrays import (
    DOUBLE,
    ConstantSource,
    HashedNoiseSource,
    MDD,
    MInterval,
    QuantizedSource,
    RegularTiling,
)
from repro.bench import ResultTable, speedup
from repro.core import ScatterPlacement, star_partition
from repro.dbms import LogKind, WriteAheadLog
from repro.errors import HeavenError
from repro.tertiary import DLT_7000, MB, TapeLibrary, scaled_profile


class TestQuantizedSource:
    DOMAIN = MInterval.of((0, 15), (0, 15))

    def test_values_on_grid(self):
        source = QuantizedSource(HashedNoiseSource(1, 0.0, 10.0), step=0.25)
        cells = source.region(self.DOMAIN, DOUBLE)
        assert np.allclose(cells, np.round(cells / 0.25) * 0.25)

    def test_preserves_determinism(self):
        source = QuantizedSource(HashedNoiseSource(1), step=0.5)
        a = source.region(self.DOMAIN, DOUBLE)
        b = source.region(self.DOMAIN, DOUBLE)
        assert np.array_equal(a, b)

    def test_quantisation_improves_compressibility(self):
        import zlib

        raw = HashedNoiseSource(2, 0.0, 10.0)
        quantised = QuantizedSource(raw, step=0.25)
        domain = MInterval.of((0, 63), (0, 63))
        plain = raw.region(domain, DOUBLE).tobytes()
        stepped = quantised.region(domain, DOUBLE).tobytes()
        assert len(zlib.compress(stepped)) < len(zlib.compress(plain)) / 2

    def test_constant_passes_through(self):
        source = QuantizedSource(ConstantSource(3.1), step=0.5)
        cells = source.region(self.DOMAIN, DOUBLE)
        assert (cells == 3.0).all()

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            QuantizedSource(ConstantSource(1.0), step=0.0)

    def test_integer_cells_untouched(self):
        from repro.arrays import LONG

        source = QuantizedSource(ConstantSource(7), step=0.25)
        cells = source.region(self.DOMAIN, LONG)
        assert (cells == 7).all()


class TestInterleavedPlacement:
    PROFILE = scaled_profile(DLT_7000, 64 * MB)

    def test_scatter_spill_grows_media_set(self):
        library = TapeLibrary(self.PROFILE)
        obj = MDD(
            "big",
            MInterval.from_shape((1024, 1024)),  # 8 MB
            DOUBLE,
            tiling=RegularTiling((256, 256)),
        )
        sts = star_partition(obj, 512 * 1024)
        plan = ScatterPlacement(spread=2).plan(sts, library)
        assert len(plan) == len(sts)
        assert len(library.media()) >= 2

    def test_scatter_invalid_spread(self):
        with pytest.raises(HeavenError):
            ScatterPlacement(spread=0)


class TestResultTable:
    def test_render_aligns_columns(self):
        table = ResultTable("T", ["a", "long-column"])
        table.add(1, 2.5)
        table.add(100, 3.25)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[2]) for line in lines[2:5])

    def test_wrong_arity_rejected(self):
        table = ResultTable("T", ["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_notes_rendered(self):
        table = ResultTable("T", ["a"])
        table.add(1)
        table.note("hello")
        assert "note: hello" in table.render()

    def test_float_formatting(self):
        table = ResultTable("T", ["v"])
        table.add(12345.6)
        table.add(0.0)
        table.add(0.1234)
        rendered = table.render()
        assert "12,346" in rendered
        assert "0.123" in rendered

    def test_speedup_and_geomean(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(10.0, 0.0) == float("inf")


class TestWALUtilities:
    def test_records_for_and_truncate(self):
        wal = WriteAheadLog()
        wal.append(1, LogKind.BEGIN)
        wal.append(2, LogKind.BEGIN)
        wal.append(1, LogKind.COMMIT)
        assert len(wal.records_for(1)) == 2
        assert wal.committed_txns() == [1]
        assert wal.truncate() == 3
        assert len(wal) == 0


class TestMiscEdges:
    def test_mdd_from_array_default_origin(self):
        cells = np.ones((3, 3))
        mdd = MDD.from_array("a", cells)
        assert mdd.domain.origin == (0, 0)

    def test_collection_iteration(self):
        from repro.arrays import Collection

        coll = Collection("c")
        coll.add(MDD("b", MInterval.of((0, 1))))
        coll.add(MDD("a", MInterval.of((0, 1))))
        assert [o.name for o in coll] == ["a", "b"]

    def test_grid_arity_mismatch(self):
        from repro.errors import DomainError

        with pytest.raises(DomainError):
            MInterval.of((0, 9), (0, 9)).grid([5])

    def test_one_dimensional_tiling_and_star(self):
        mdd = MDD(
            "line",
            MInterval.of((0, 1023)),
            DOUBLE,
            tiling=RegularTiling((128,)),
        )
        sts = star_partition(mdd, 2 * 128 * 8)
        assert len(sts) == 4
        assert all(st.tile_count == 2 for st in sts)
