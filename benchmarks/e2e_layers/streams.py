"""Seeded inputs, op streams and numpy oracles of ``e2e_layers``.

Nothing here imports ``repro``: the program under test receives only
what this module generates from ``numpy.random.default_rng(seed)``, and
every expected answer is computed from the source ndarrays alone.

A *region* is a tuple of inclusive ``(lo, hi)`` pairs, one per axis.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Region = Tuple[Tuple[int, int], ...]

#: Generator seed of the *hot sets*: the positions of archive_read's hot
#: regions and of query_hot's query cycle.  Like the Zipf exponent they
#: define the workload rather than sample it — two dozen positions decide
#: how many tiles half of all reads touch, and drawn per seed they moved
#: every metric by 10-30 % between seeds.  The seed still draws every
#: cell, the object sequence, the fresh regions and the op order.
HOT_SET_SEED = 2004

#: clients (and tenants) of ``service_read``; ``archive_read`` replays the
#: same stream with one client, so op *i* belongs to client ``i % CLIENTS``
CLIENTS = 4
TENANTS = 3


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; the mixes never depend on it."""

    name: str
    tile: int                       #: tile edge in cells (float32 cells)
    read_shape: Tuple[int, ...]     #: each archive_read/service_read object
    read_objects: int
    query_shape: Tuple[int, ...]    #: each of query_hot's three objects
    base_objects: int               #: pre-archived objects of ingest_update
    fresh_shape: Tuple[int, ...]    #: each object ingest_update inserts
    update_box: Tuple[int, ...]
    super_tile_bytes: int
    media_bytes: int
    read_disk_cache: int            #: a quarter of the read archive
    read_memory_cache: int
    query_disk_cache: int           #: holds query_hot's whole archive
    query_memory_cache: int         #: far smaller than one query cycle
    warmup_ops: int
    #: timed ops per second of ``--seconds`` (fixed, so op counts — and
    #: with them every virtual and count metric — depend on the seed and
    #: ``--seconds`` only, never on how fast the host happens to be)
    ops_per_second: Dict[str, float]

    def timed_ops(self, workload: str, seconds: float) -> int:
        # service_read replays archive_read's stream, so it shares its rate
        rate = self.ops_per_second["archive_read" if workload == "service_read" else workload]
        return max(8, int(round(rate * seconds)))


KIB = 1024
MIB = 1024 * KIB

SCALES = {
    "full": Scale(
        name="full",
        tile=32,
        read_shape=(128, 128, 64),
        read_objects=6,
        query_shape=(128, 128, 64),
        base_objects=4,
        fresh_shape=(64, 64, 64),
        update_box=(16, 32, 32),
        super_tile_bytes=512 * KIB,
        media_bytes=4 * MIB,
        read_disk_cache=6 * MIB,
        read_memory_cache=2 * MIB,
        query_disk_cache=16 * MIB,
        query_memory_cache=1 * MIB,
        warmup_ops=100,
        ops_per_second={
            "archive_read": 140.0,
            "query_hot": 200.0,
            "ingest_update": 11.7,
        },
    ),
    "smoke": Scale(
        name="smoke",
        tile=8,
        read_shape=(32, 32, 16),
        read_objects=6,
        query_shape=(32, 32, 16),
        base_objects=4,
        fresh_shape=(16, 16, 16),
        update_box=(4, 8, 8),
        super_tile_bytes=8 * KIB,
        media_bytes=64 * KIB,
        read_disk_cache=96 * KIB,
        read_memory_cache=32 * KIB,
        query_disk_cache=256 * KIB,
        query_memory_cache=16 * KIB,
        warmup_ops=16,
        ops_per_second={
            "archive_read": 6.0,
            "query_hot": 5.0,
            "ingest_update": 7.0,
        },
    ),
}


# -- arrays ----------------------------------------------------------------------


def make_array(rng: np.random.Generator, shape: Sequence[int], quantised: bool) -> np.ndarray:
    """One float32 object: *quantised* cells DEFLATE to ~0.3, noise not at all.

    The noise spans 17 decades so that sign, exponent and mantissa bytes
    are all high-entropy: zlib saves under 1/16 and the codec keeps such
    tiles as stored frames.  (A float32 random walk still DEFLATEs to
    ~0.8, which would never reach the stored-frame decode path.)
    """
    if quantised:
        return rng.integers(0, 64, size=shape).astype(np.float32)
    noise = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, size=shape))
    return noise.astype(np.float32)


def make_objects(
    rng: np.random.Generator, prefix: str, count: int, shape: Sequence[int]
) -> Dict[str, np.ndarray]:
    """*count* objects, alternating quantised and float-noise payloads."""
    return {
        f"{prefix}{index}": make_array(rng, shape, quantised=index % 2 == 0)
        for index in range(count)
    }


# -- regions -----------------------------------------------------------------------


def subcube(at: Sequence[float], shape: Sequence[int], selectivity: float) -> Region:
    """Subcube holding *selectivity* of the cells, with the object's aspect ratio.

    *at* places it: one fraction in [0, 1) per axis of the room it has to move.
    """
    side = selectivity ** (1.0 / len(shape))
    return _place(at, shape, [max(1, int(round(side * n))) for n in shape])


def slab(at: Sequence[float], shape: Sequence[int], axis: int, thickness: int) -> Region:
    """Slice *thickness* cells thick along *axis*, whole on the other axes."""
    extents = list(shape)
    extents[axis] = thickness
    return _place(at, shape, extents)


def region_at(point: Sequence[float], shape: Sequence[int]) -> Region:
    """The region distribution as a map of the unit cube (2 + one per axis).

    80 % subcubes of selectivity U(1 %, 10 %), 20 % slabs 1-4 cells thick
    along a random axis.
    """
    kind, size, at = point[0], point[1], point[2:]
    if kind < 0.8:
        return subcube(at, shape, 0.01 + 0.09 * size)
    axis = size * len(shape)
    return slab(at, shape, int(axis), 1 + int(axis % 1.0 * 4))


class Quasi:
    """Points of a Kronecker low-discrepancy sequence, shifted by the seed.

    Point *k* is ``frac(k * steps + shift)`` with the steps of the R_d
    sequence (powers of 1/g, g the root of x^(d+1) = x + 1) and a shift
    drawn from the seed.  Any run of consecutive points covers the unit
    cube evenly, so a stream mapped from them has the same share of hot
    and fresh reads, of each object, of slabs and of tile-straddling
    positions for every seed — what differs between seeds is which come
    when and where.  Free draws made the virtual metrics differ by 6-15 %
    between seeds on a sample of 100 updates or 2 500 reads.
    """

    def __init__(self, rng: np.random.Generator, dimensions: int) -> None:
        g = 2.0
        for _ in range(64):
            g = (1.0 + g) ** (1.0 / (dimensions + 1))
        self.steps = g ** -np.arange(1.0, dimensions + 1)
        self.shift = rng.random(dimensions)
        self.index = 0

    def point(self) -> np.ndarray:
        self.index += 1
        return (self.index * self.steps + self.shift) % 1.0


def quantile_selectivity(index: int, count: int) -> float:
    """The *index*-th of *count* evenly spaced quantiles of U(1 %, 10 %)."""
    return 0.01 + 0.09 * (index + 0.5) / count


def stratified_regions(rng: np.random.Generator, shape: Sequence[int], count: int) -> List[Region]:
    """*count* regions that cover :func:`region_at`'s distribution evenly.

    A small fixed set of regions (hot sets, the query cycle) sampled
    freely would make every metric depend on whether the seed happened
    to draw large or small ones.  So the *shapes* are stratified — every
    fifth region a slab, axes and thicknesses in rotation, the subcubes
    at evenly spaced quantiles of the selectivity range — and only the
    positions come from the seed.
    """
    slabs = [index for index in range(count) if index % 5 == 2]
    cubes = count - len(slabs)
    regions, cube = [], 0
    for index in range(count):
        if index in slabs:
            turn = slabs.index(index)
            regions.append(slab(rng.random(len(shape)), shape, turn % len(shape), 1 + turn % 4))
        else:
            regions.append(subcube(rng.random(len(shape)), shape, quantile_selectivity(cube, cubes)))
            cube += 1
    return regions


def _place(at: Sequence[float], shape: Sequence[int], extents: Sequence[int]) -> Region:
    region = []
    for fraction, n, extent in zip(at, shape, extents):
        lo = int(fraction * (n - extent + 1))
        region.append((lo, lo + extent - 1))
    return tuple(region)


def region_text(region: Region) -> str:
    """``"lo:hi,lo:hi"`` — what ``MInterval.parse`` and RasQL trims accept."""
    return ",".join(f"{lo}:{hi}" for lo, hi in region)


def region_slices(region: Region) -> Tuple[slice, ...]:
    return tuple(slice(lo, hi + 1) for lo, hi in region)


# -- archive_read / service_read -------------------------------------------------------


def read_stream(
    rng: np.random.Generator, scale: Scale, count: int
) -> List[dict]:
    """The op stream ``archive_read`` and ``service_read`` both replay.

    Zipf(1.2) over objects; each read reuses one of its object's 4 hot
    regions with p = 0.5, else draws a fresh region; 75 % of ops are one
    read, 25 % a batch of 4.  The draws are points of :class:`Quasi`.
    """
    names = [f"r{index}" for index in range(scale.read_objects)]
    weights = 1.0 / np.arange(1, len(names) + 1) ** 1.2
    weights /= weights.sum()
    # dealt round-robin, so every object's hot set spans small to large
    pool = stratified_regions(np.random.default_rng(HOT_SET_SEED), scale.read_shape, 4 * len(names))
    hot = {name: pool[index :: len(names)] for index, name in enumerate(names)}

    cdf = np.cumsum(weights)
    reads, kinds = Quasi(rng, 5 + len(scale.read_shape)), Quasi(rng, 1)

    def one_read() -> Tuple[str, Region]:
        which, reuse, slot, *region = reads.point()
        name = names[min(int(np.searchsorted(cdf, which, side="right")), len(names) - 1)]
        if reuse < 0.5:
            return name, hot[name][int(slot * 4)]
        return name, region_at(region, scale.read_shape)

    ops = []
    for op_id in range(count):
        batch = kinds.point()[0] < 0.25
        ops.append(
            {
                "op": op_id,
                "kind": "batch" if batch else "read",
                "client": op_id % CLIENTS,
                "reads": [one_read() for _ in range(4 if batch else 1)],
            }
        )
    return ops


# -- query_hot ------------------------------------------------------------------------

#: one cycle of the hot query set: 40 % trims/sections, 20 % induced
#: arithmetic under a condenser, 20 % catalog condensers, 10 % two-box
#: frames, 10 % scale() (answered from a pyramid level, or not)
QUERY_CYCLE = (
    ["trim"] * 14 + ["section"] * 6 + ["induced"] * 10
    + ["condenser"] * 10 + ["frame"] * 5 + ["scale_hit"] * 3 + ["scale_miss"] * 2
)
CONDENSERS = ("avg_cells", "add_cells", "min_cells", "max_cells")


def _grow_to_grid(region: Region, factor: int) -> Region:
    """*region* grown outwards onto the *factor* grid (a pyramid hit).

    Every axis length of every scale is a multiple of 4, so rounding the
    upper bound up never leaves the object.
    """
    return tuple((lo - lo % factor, hi + (-(hi + 1)) % factor) for lo, hi in region)


def _at_least(region: Region, shape: Sequence[int], extent: int) -> Region:
    """*region* with every axis widened to *extent* cells (scale needs a block)."""
    out = []
    for (lo, hi), n in zip(region, shape):
        hi = max(hi, lo + extent - 1)
        out.append((lo, hi) if hi < n else (n - extent, n - 1))
    return tuple(out)


def _tiles_touched(boxes: Sequence[Region], tile: int) -> int:
    """Tiles of a regular *tile* grid inside the hull of *boxes*."""
    count = 1
    for axis in range(len(boxes[0])):
        lo = min(box[axis][0] for box in boxes) // tile
        hi = max(box[axis][1] for box in boxes) // tile
        count *= hi - lo + 1
    return count


def query_stream(rng: np.random.Generator, scale: Scale, count: int) -> List[dict]:
    """RasQL ops over collections ``qa``/``qb`` (plain) and ``qp`` (pyramid).

    One cycle of :data:`QUERY_CYCLE` distinct queries, shuffled and repeated:
    cyclic reuse of more cells than the memory tile cache holds defeats
    its LRU, so every op decodes, while the disk cache holds everything.
    Region shapes are stratified per kind, objects taken in rotation and
    positions drawn from :data:`HOT_SET_SEED`; the seed shuffles the cycle.
    """
    shape = scale.query_shape
    order = rng.permutation(len(QUERY_CYCLE))
    rng = np.random.default_rng(HOT_SET_SEED)
    trims = stratified_regions(rng, shape, QUERY_CYCLE.count("trim"))
    cycle = []
    turn: Dict[str, int] = {}
    for kind in QUERY_CYCLE:
        index = turn[kind] = turn.get(kind, -1) + 1
        of_kind = QUERY_CYCLE.count(kind)
        name = ("a", "b", "p")[index % 3]
        cube = subcube(rng.random(len(shape)), shape, quantile_selectivity(index, of_kind))
        op: dict = {"kind": kind, "client": 0}
        if kind == "trim":
            op.update(object=name, region=trims[index])
            op["text"] = f"select {name}[{region_text(trims[index])}] from q{name} as {name}"
        elif kind == "section":
            axis = index % len(shape)
            at = int(rng.integers(shape[axis]))
            region = tuple((at, at) if i == axis else bounds for i, bounds in enumerate(cube))
            parts = [str(lo) if i == axis else f"{lo}:{hi}" for i, (lo, hi) in enumerate(region)]
            op.update(object=name, region=region, axis=axis)
            op["text"] = f"select {name}[{','.join(parts)}] from q{name} as {name}"
        elif kind == "induced":
            op.update(region=cube)
            op["text"] = (
                f"select max_cells(a[{region_text(cube)}] - b[{region_text(cube)}]) "
                "from qa as a, qb as b"
            )
        elif kind == "condenser":
            # a tile-aligned core plus partial edge tiles on every side:
            # 1.5 to 3 tiles per axis
            extent = int(scale.tile * (1.5 + 1.5 * (index + 0.5) / of_kind))
            region = _place(rng.random(len(shape)), shape, [min(extent, n) for n in shape])
            condenser = CONDENSERS[index % len(CONDENSERS)]
            op.update(object=name, region=region, condenser=condenser)
            op["text"] = f"select {condenser}({name}[{region_text(region)}]) from q{name} as {name}"
        elif kind == "frame":
            boxes = [cube, subcube(rng.random(len(shape)), shape,
                                   quantile_selectivity(of_kind - 1 - index, of_kind))]
            spec = "; ".join(region_text(box) for box in boxes)
            op.update(object=name, boxes=boxes, hull_tiles=_tiles_touched(boxes, scale.tile))
            op["text"] = f'select frame({name}, "{spec}") from q{name} as {name}'
        else:
            factor = (2, 4)[index % 2]
            if kind == "scale_hit":
                name, region = "p", _grow_to_grid(cube, factor)
            else:
                name, region = ("a", "b")[index % 2], _at_least(cube, shape, factor)
            factors = ",".join([str(factor)] * len(shape))
            op.update(object=name, region=region, factor=factor)
            op["text"] = (
                f"select scale({name}[{region_text(region)}], {factors}) from q{name} as {name}"
            )
        cycle.append(op)
    # the first pass runs in canonical order, so what the warm-up stages from
    # tape does not depend on the seed's shuffle; then the shuffled cycle repeats
    shuffled = [cycle[i] for i in order]
    sequence = cycle + [shuffled[i % len(cycle)] for i in range(max(0, count - len(cycle)))]
    return [dict(op, op=i) for i, op in enumerate(sequence[:count])]


def scale_down(cells: np.ndarray, factor: int) -> np.ndarray:
    """Block-average *cells* by *factor* per axis, dropping partial blocks."""
    work = cells[tuple(slice(0, n - n % factor) for n in cells.shape)].astype(np.float64)
    for axis in range(work.ndim):
        shape = list(work.shape)
        shape[axis] //= factor
        shape.insert(axis + 1, factor)
        work = work.reshape(shape).mean(axis=axis + 1)
    return work.astype(np.float32)


def expected_query(op: dict, arrays: Dict[str, np.ndarray]):
    """The numpy answer to one query op: an ndarray or a float."""
    kind = op["kind"]
    if kind == "induced":
        cut = region_slices(op["region"])
        return float(np.max(arrays["a"][cut] - arrays["b"][cut]))
    source = arrays[op["object"]]
    if kind == "trim":
        return source[region_slices(op["region"])]
    if kind == "section":
        cut = list(region_slices(op["region"]))
        cut[op["axis"]] = op["region"][op["axis"]][0]
        return source[tuple(cut)]
    if kind == "condenser":
        cells = source[region_slices(op["region"])].astype(np.float64)
        reduce = {"avg_cells": np.mean, "add_cells": np.sum, "min_cells": np.min, "max_cells": np.max}
        return float(reduce[op["condenser"]](cells))
    if kind == "frame":
        boxes = op["boxes"]
        hull = [
            (min(box[axis][0] for box in boxes), max(box[axis][1] for box in boxes))
            for axis in range(source.ndim)
        ]
        out = np.zeros([hi - lo + 1 for lo, hi in hull], dtype=np.float32)
        for box in boxes:
            inner = tuple(slice(lo - base, hi - base + 1) for (lo, hi), (base, _) in zip(box, hull))
            out[inner] = source[region_slices(box)]
        return out
    return scale_down(source[region_slices(op["region"])], op["factor"])


def query_matches(op: dict, arrays: Dict[str, np.ndarray], got) -> bool:
    """Compare one query answer with the oracle.

    Trims, sections and frames must be byte-identical.  Condensers and
    ``scale()`` accumulate in an order the engine is free to choose
    (catalog partials, pyramid levels), so they get a tolerance fixed
    here from the cell type: float32 epsilon is 1.2e-7, and 1e-5 of the
    magnitude accumulated covers any summation order over these sizes.
    """
    expected = expected_query(op, arrays)
    if isinstance(expected, float):
        if not isinstance(got, (int, float)):
            return False
        scale = 1.0
        if op["kind"] == "condenser" and op["condenser"] in ("avg_cells", "add_cells"):
            cells = np.abs(arrays[op["object"]][region_slices(op["region"])].astype(np.float64))
            scale = float(cells.mean() if op["condenser"] == "avg_cells" else cells.sum())
        return abs(got - expected) <= 1e-5 * max(scale, 1e-30)
    if not isinstance(got, np.ndarray) or got.shape != expected.shape:
        return False
    if op["kind"].startswith("scale"):
        return bool(np.allclose(got, expected, rtol=1e-5, atol=1e-5))
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# -- ingest_update ----------------------------------------------------------------------


def ingest_stream(
    rng: np.random.Generator, scale: Scale, rounds: int
) -> Tuple[List[dict], Dict[int, np.ndarray]]:
    """Write-side ops plus their payloads (keyed by op id).

    One round = 1 ``ingest`` (insert + archive of a fresh object) and 10
    ``update`` ops on pre-archived base objects, each an update plus the
    read-after-write of a box overlapping it; every 2nd round deletes and
    every 6th reimports an earlier fresh object.  12 rounds reproduce the
    issue's 12 / 120 / 6 / 2 mix.

    Update boxes are placed at points of :class:`Quasi`: how many tiles
    (and super-tiles) a box straddles decides how much an update rewrites.
    """
    ops: List[dict] = []
    payloads: Dict[int, np.ndarray] = {}
    live: List[str] = []
    places = Quasi(rng, len(scale.update_box))
    updates = 0

    def add(op: dict, payload: Optional[np.ndarray] = None) -> None:
        op.update(op=len(ops), client=0)
        if payload is not None:
            payloads[op["op"]] = payload
            op["crc32"] = zlib.crc32(payload.tobytes())
        ops.append(op)

    base_shape = scale.read_shape
    for round_index in range(rounds):
        name = f"f{round_index}"
        add({"kind": "ingest", "object": name},
            make_array(rng, scale.fresh_shape, quantised=round_index % 2 == 0))
        live.append(name)
        for _ in range(10):
            # base objects in rotation: equal update load on each payload kind
            target = f"b{updates % scale.base_objects}"
            box = _place(places.point(), base_shape, scale.update_box)
            updates += 1
            # the read overlaps the box: the box shifted by half its extent
            shifted = tuple(
                (max(0, lo - (hi - lo + 1) // 2), min(n - 1, hi - (hi - lo + 1) // 2))
                for (lo, hi), n in zip(box, base_shape)
            )
            add({"kind": "update", "object": target, "region": box, "read_region": shifted},
                rng.integers(0, 64, size=scale.update_box).astype(np.float32))
        if round_index % 2 == 1 and len(live) > 1:
            add({"kind": "delete", "object": live.pop(int(rng.integers(len(live) - 1)))})
        if round_index % 6 == 5 and len(live) > 1:
            add({"kind": "reimport", "object": live.pop(int(rng.integers(len(live) - 1)))})
    return ops, payloads
