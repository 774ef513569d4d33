"""SN reassembly byte-identity against single-node ``Heaven.read``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import DOUBLE, MDD, HashedNoiseSource, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core.units import TilePayload
from repro.errors import HeavenError, ShardUnavailableError, WireFormatError
from repro.service import ServiceCluster, ShadowObject
from repro.tertiary import DLT_7000, MB, scaled_profile

SIDE = 96
TILE = 16


#: 16 KiB media: the 72 KiB object spans 5 of them
MEDIA_BYTES = 16 * 1024


def _make_config() -> HeavenConfig:
    # 8 KB super-tiles (4 tiles each) on 16 KiB media: 5 media dealt over
    # a 4-node cluster, so a full read splits across every data node.
    return HeavenConfig(
        tape_profile=scaled_profile(DLT_7000, MEDIA_BYTES),
        super_tile_bytes=8 * 1024,
        disk_cache_bytes=16 * MB,
        memory_cache_bytes=8 * MB,
    )


def _setup(heaven: Heaven) -> None:
    heaven.create_collection("c")
    mdd = MDD(
        "obj",
        MInterval.of((0, SIDE - 1), (0, SIDE - 1)),
        DOUBLE,
        tiling=RegularTiling((TILE, TILE)),
        source=HashedNoiseSource(11, -5.0, 5.0),
    )
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()


@pytest.fixture(scope="module")
def reference() -> Heaven:
    heaven = Heaven(_make_config())
    _setup(heaven)
    return heaven


@pytest.fixture(scope="module")
def cluster() -> ServiceCluster:
    built = ServiceCluster.build(
        _make_config, _setup, nodes=4, objects=[("c", "obj")]
    )
    built.register_tenant("alice")
    return built


windows = st.tuples(
    st.integers(0, SIDE - 1), st.integers(0, SIDE - 1),
    st.integers(0, SIDE - 1), st.integers(0, SIDE - 1),
)


class TestByteIdentity:
    def test_full_object_read(self, cluster, reference):
        region = f"0:{SIDE - 1},0:{SIDE - 1}"
        result = cluster.read("token-alice", "c", "obj", region)
        expected = reference.read("c", "obj", MInterval.parse(region))
        np.testing.assert_array_equal(result.cells, expected)
        assert result.bytes_useful > 0

    def test_multi_shard_read_reports_shards(self, cluster, reference):
        region = f"0:{SIDE - 1},0:{SIDE - 1}"
        media = set(cluster.catalog["c", "obj"].tile_media.values())
        assert len(media) >= 2
        result = cluster.read("token-alice", "c", "obj", region)
        # each medium routes to one node: the object's media reach them all
        assert len(set(result.shards)) > 1
        assert sorted(result.shards) == sorted(cluster.nodes)
        expected = reference.read("c", "obj", MInterval.parse(region))
        np.testing.assert_array_equal(result.cells, expected)

    @pytest.mark.property
    @given(window=windows)
    @settings(max_examples=25, deadline=None)
    def test_random_subwindows(self, cluster, reference, window):
        lo0, hi0, lo1, hi1 = window
        lo0, hi0 = min(lo0, hi0), max(lo0, hi0)
        lo1, hi1 = min(lo1, hi1), max(lo1, hi1)
        region = f"{lo0}:{hi0},{lo1}:{hi1}"
        result = cluster.read("token-alice", "c", "obj", region)
        expected = reference.read("c", "obj", MInterval.parse(region))
        np.testing.assert_array_equal(result.cells, expected)


class TestServeSubReads:
    def test_tile_subset_serves_exact_tiles(self, reference):
        from repro.core.units import SubReadRequest

        mdd = reference.collection("c").get("obj")
        region = MInterval.parse("0:47,0:47")
        tile_ids = tuple(t.tile_id for t in mdd.tiles_for(region))
        (response,) = reference.serve_sub_reads([
            SubReadRequest(
                request_id="q", tenant="t", collection="c",
                object_name="obj", region=str(region), tile_ids=tile_ids,
            )
        ])
        assert response.ok
        assert sorted(t.tile_id for t in response.tiles) == sorted(tile_ids)
        for tile in response.tiles:
            expected = mdd.materialize_tile(mdd.tiles[tile.tile_id])
            np.testing.assert_array_equal(tile.cells(), expected)

    def test_unknown_tile_id_rejected(self, reference):
        from repro.core.units import SubReadRequest

        with pytest.raises(HeavenError):
            reference.serve_sub_reads([
                SubReadRequest(
                    request_id="q", tenant="t", collection="c",
                    object_name="obj", region="0:1,0:1", tile_ids=(9999,),
                )
            ])


class TestShadowObject:
    def _descriptor(self, reference):
        return reference.describe_object("c", "obj")

    def test_shadow_matches_geometry(self, reference):
        shadow = ShadowObject(self._descriptor(reference))
        mdd = reference.collection("c").get("obj")
        assert str(shadow.domain) == str(mdd.domain)
        assert len(shadow.mdd.tiles) == len(mdd.tiles)
        for tile_id, tile in mdd.tiles.items():
            assert str(shadow.mdd.tiles[tile_id].domain) == str(tile.domain)

    def _clips(self, reference, region):
        """Tile id -> payload of the tile's overlap with *region*."""
        mdd = reference.collection("c").get("obj")
        payloads = {}
        for tile in mdd.tiles_for(region):
            clip = tile.domain.intersection(region)
            cells = mdd.materialize_tile(tile)[clip.to_slices(tile.domain)]
            payloads[tile.tile_id] = TilePayload.from_cells(
                tile.tile_id, clip, mdd.cell_type, cells
            )
        return payloads

    def test_clips_paste_into_the_region(self, reference):
        shadow = ShadowObject(self._descriptor(reference))
        region = MInterval.parse("5:40,9:20")
        cells = shadow.assemble(region, self._clips(reference, region))
        np.testing.assert_array_equal(cells, reference.read("c", "obj", region))

    def test_missing_tile_raises_typed(self, reference):
        shadow = ShadowObject(self._descriptor(reference))
        region = MInterval.parse("5:40,9:20")
        payloads = self._clips(reference, region)
        lost = sorted(payloads)[1]
        del payloads[lost]
        with pytest.raises(ShardUnavailableError, match=f"tile {lost} "):
            shadow.assemble(region, payloads)
        with pytest.raises(ShardUnavailableError):
            shadow.assemble(MInterval.parse("0:31,0:31"), payloads={})

    def test_payload_that_is_not_the_clip_is_rejected(self, reference):
        shadow = ShadowObject(self._descriptor(reference))
        region = MInterval.parse("5:40,9:20")
        payloads = self._clips(reference, region)
        # A whole tile where its overlap with the region was expected.
        whole = self._clips(reference, MInterval.parse(f"0:{SIDE - 1},0:{SIDE - 1}"))
        first = sorted(payloads)[0]
        payloads[first] = whole[first]
        with pytest.raises(WireFormatError, match=f"tile {first} "):
            shadow.assemble(region, payloads)

    def test_clip_of_the_wrong_size_is_rejected(self, reference):
        # the right box, but a payload one cell short of it: what a damaged
        # frame that still decodes delivers
        shadow = ShadowObject(self._descriptor(reference))
        region = MInterval.parse("5:40,9:20")
        payloads = self._clips(reference, region)
        first = sorted(payloads)[0]
        clip = payloads[first]
        payloads[first] = TilePayload(
            first, clip.domain, clip.dtype, memoryview(clip.payload)[8:]
        )
        with pytest.raises(WireFormatError, match=f"tile {first} "):
            shadow.assemble(region, payloads)
        with pytest.raises(WireFormatError):
            payloads[first].cells()

    def test_clip_of_another_cell_type_is_rejected(self, reference):
        # twice as many 4-byte longs as the clip has doubles: the right byte
        # count, so only the payload's cell type name tells them apart
        shadow = ShadowObject(self._descriptor(reference))
        region = MInterval.parse("5:40,9:20")
        payloads = self._clips(reference, region)
        first = sorted(payloads)[0]
        clip = payloads[first]
        longs = np.arange(2 * clip.cells().size, dtype=np.int32)
        payloads[first] = TilePayload(first, clip.domain, "long", longs.tobytes())
        with pytest.raises(WireFormatError, match=f"tile {first} .*long"):
            shadow.assemble(region, payloads)

    def test_missing_fill_degrades_instead(self, reference):
        shadow = ShadowObject(self._descriptor(reference))
        cells = shadow.assemble(
            MInterval.parse("0:31,0:31"), payloads={}, missing_fill=-3.0
        )
        assert cells.shape == (32, 32)
        assert np.all(cells == -3.0)

    def test_estimated_read_bytes_clips_to_domain(self, reference):
        shadow = ShadowObject(self._descriptor(reference))
        inside = shadow.estimated_read_bytes(MInterval.parse("0:9,0:9"))
        assert inside == 10 * 10 * 8
        past = shadow.estimated_read_bytes(
            MInterval.parse(f"0:{SIDE + 50},0:{SIDE + 50}")
        )
        assert past == SIDE * SIDE * 8


class TestRunUnits:
    def test_per_unit_byte_attribution_sums_exactly(self):
        from repro.core.admission import AdmissionController
        from repro.core.units import SubReadRequest

        heaven = Heaven(_make_config())
        _setup(heaven)
        mdd = heaven.collection("c").get("obj")
        regions = ["0:31,0:31", "32:63,0:95", "64:95,64:95"]
        units = [
            SubReadRequest(
                request_id=f"q{i}", tenant="t", collection="c",
                object_name="obj", region=region,
                tile_ids=tuple(
                    t.tile_id for t in mdd.tiles_for(MInterval.parse(region))
                ),
            )
            for i, region in enumerate(regions)
        ]
        responses, report = AdmissionController(heaven).run_units(units)
        assert len(responses) == 3
        assert all(r.ok for r in responses)
        total_tape = sum(r.stats.bytes_from_tape for r in responses)
        assert total_tape + report.unattributed_tape_bytes == pytest.approx(
            report.bytes_from_tape
        )
