"""The service tier routes by tape medium: each data node mounts only the
media dealt to it, and answers stay byte-identical to ``Heaven.read``."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, MDD, HashedNoiseSource, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.service import ServiceCluster
from repro.tertiary import DLT_7000, MB, scaled_profile

SIDE = 96
TILE = 16
FULL = f"0:{SIDE - 1},0:{SIDE - 1}"
REGIONS = [FULL, "0:47,0:95", "48:95,0:31", "10:70,20:90", "90:95,0:95"]


def _make_config() -> HeavenConfig:
    # 8 KB super-tiles on 16 KiB media: the 72 KiB object spans 5 media
    return HeavenConfig(
        tape_profile=scaled_profile(DLT_7000, 16 * 1024),
        super_tile_bytes=8 * 1024,
        disk_cache_bytes=16 * MB,
        memory_cache_bytes=8 * MB,
    )


def _setup(heaven: Heaven) -> None:
    heaven.create_collection("c")
    heaven.insert(
        "c",
        MDD(
            "obj",
            MInterval.of((0, SIDE - 1), (0, SIDE - 1)),
            DOUBLE,
            tiling=RegularTiling((TILE, TILE)),
            source=HashedNoiseSource(23, -5.0, 5.0),
        ),
    )
    heaven.archive("c", "obj")
    heaven.library.unmount_all()


@pytest.fixture(scope="module")
def reference() -> Heaven:
    heaven = Heaven(_make_config())
    _setup(heaven)
    return heaven


def _mounts(heaven: Heaven):
    return {m.medium_id: m.mount_count for m in heaven.library.media()}


class TestBuildModeMountsOnlyDealtMedia:
    def test_each_node_mounts_only_its_media(self, reference):
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        cluster.register_tenant("alice")
        media = [m.medium_id for m in cluster.heavens[0].library.media()]
        assert len(media) >= 4
        dealt = {"dn0": set(media[0::2]), "dn1": set(media[1::2])}
        # mounts made by setup (archive writes) are not the reads' mounts
        after_setup = {
            node_id: _mounts(node.heaven) for node_id, node in cluster.nodes.items()
        }
        results = cluster.read_many(
            [("token-alice", "c", "obj", region, 0.0) for region in REGIONS]
        )
        for region, result in zip(REGIONS, results):
            expected = reference.read("c", "obj", MInterval.parse(region))
            np.testing.assert_array_equal(result.cells, expected)
        for node_id, node in cluster.nodes.items():
            now = _mounts(node.heaven)
            mounted = {m for m in now if now[m] > after_setup[node_id][m]}
            assert mounted == dealt[node_id], node_id

    def test_catalog_routes_tiles_by_medium(self):
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        heaven = cluster.heavens[0]
        descriptor = cluster.catalog["c", "obj"]
        entry = heaven.archived("obj")
        for tile_id, super_tile in entry.tile_to_st.items():
            medium = heaven.library.locate(super_tile.segment_name)
            assert descriptor.shard_key(tile_id) == medium


class TestRoutingIsOnlyAHint:
    def test_unarchived_object_routes_per_tile(self):
        def setup(heaven: Heaven) -> None:
            heaven.create_collection("c")
            heaven.insert(
                "c",
                MDD(
                    "disk",
                    MInterval.of((0, 31), (0, 31)),
                    DOUBLE,
                    tiling=RegularTiling((TILE, TILE)),
                    source=HashedNoiseSource(5, -1.0, 1.0),
                ),
            )

        heaven = Heaven(_make_config())
        setup(heaven)
        cluster = ServiceCluster.over(heaven, nodes=2, objects=[("c", "disk")])
        descriptor = cluster.catalog["c", "disk"]
        assert not descriptor.archived and not descriptor.tile_media
        assert descriptor.shard_key(0) == "c/disk/t0"
        cluster.register_tenant("alice")
        result = cluster.read("token-alice", "c", "disk", "0:31,0:31")
        np.testing.assert_array_equal(
            result.cells, heaven.read("c", "disk", MInterval.parse("0:31,0:31"))
        )

    def test_stale_catalog_changes_cost_never_bytes(self):
        # An update rewrites segments to other media after the cluster
        # dealt and described them; the stale routing still answers right.
        heaven = Heaven(_make_config())
        _setup(heaven)
        cluster = ServiceCluster.over(heaven, nodes=2, objects=[("c", "obj")])
        cluster.register_tenant("alice")
        region = MInterval.parse("0:40,0:40")
        heaven.update("c", "obj", region, np.full((41, 41), 7.5))
        moved = {
            tile_id: heaven.library.locate(st.segment_name)
            for tile_id, st in heaven.archived("obj").tile_to_st.items()
        }
        assert moved != cluster.catalog["c", "obj"].tile_media
        result = cluster.read("token-alice", "c", "obj", FULL)
        np.testing.assert_array_equal(
            result.cells, heaven.read("c", "obj", MInterval.parse(FULL))
        )
        assert np.all(result.cells[:41, :41] == 7.5)
