"""Seeded workload programs for whole-system simulation testing.

A :class:`WorkloadProgram` is a deterministic, JSON-serialisable recipe:
one :class:`SimConfig` describing the simulated environment (drive count,
media size, cache budgets, eviction policy, fault mixins) plus a flat list
of :class:`Op` steps — the randomized multi-user operation sequence the
:class:`~repro.simtest.runner.SimRunner` executes against the full HEAVEN
stack and, in lockstep, against the trivial in-memory reference model.

Programs are *closed under deletion*: every op carries everything needed
to apply it, and the runner skips ops whose preconditions no longer hold
(e.g. a read of an object whose ``ingest`` was shrunk away).  That is what
lets the shrinker minimise a failing program by deleting operations.

``generate_program(seed, num_ops)`` with the same arguments always emits
the same program: all randomness comes from one ``random.Random(seed)``.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

KB = 1024

#: operation kinds a program may contain
OP_KINDS: Tuple[str, ...] = (
    "ingest",
    "archive",
    "read",
    "frame_read",
    "read_many",
    "concurrent",
    "service",
    "update",
    "reimport",
    "delete",
    "cache_resize",
    "fault",
    "offline",
)

#: fault mixin names composable into a program's random fault spec
FAULT_MIXINS: Tuple[str, ...] = ("mount", "media", "stall")

#: one-shot fault sites the ``fault`` op may schedule
FAULT_SITES: Tuple[str, ...] = ("mount", "robot", "media", "stall")

#: memory tile cache sizes a program may draw (KiB).  Tiles are 2 KiB, an
#: object up to 72 KiB: the small sizes make the tile cache evict and
#: refuse admissions (and hold a batch's drained tiles pinned); 4096 never
#: evicts.
MEMORY_CACHE_KB: Tuple[int, ...] = (32, 64, 4096)


@dataclass(frozen=True)
class Op:
    """One step of a workload program (kind + JSON-able parameters)."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Op":
        return cls(kind=str(data["kind"]), params=dict(data.get("params", {})))

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class SimConfig:
    """Environment knobs of one simulated run (all JSON-able scalars)."""

    num_drives: int = 2
    media_kb: int = 128
    super_tile_kb: int = 24
    disk_cache_kb: int = 96
    memory_cache_kb: int = 4096
    policy: str = "lru"
    compression: str = "none"
    partial_reads: bool = True
    scheduling: bool = True
    prefetch: str = "none"
    #: random fault mixins composed into the plan's spec (see repro.faults)
    fault_mixins: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["fault_mixins"] = list(self.fault_mixins)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimConfig":
        data = dict(data)
        data["fault_mixins"] = tuple(data.get("fault_mixins", ()))
        return cls(**data)


@dataclass
class WorkloadProgram:
    """A seed, an environment and the operation sequence to run in it."""

    seed: int
    config: SimConfig
    ops: List[Op]

    def __len__(self) -> int:
        return len(self.ops)

    def replace_ops(self, ops: Sequence[Op]) -> "WorkloadProgram":
        return WorkloadProgram(seed=self.seed, config=self.config, ops=list(ops))

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "config": self.config.to_dict(),
                "ops": [op.to_dict() for op in self.ops],
            },
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkloadProgram":
        data = json.loads(text)
        return cls(
            seed=int(data["seed"]),
            config=SimConfig.from_dict(data["config"]),
            ops=[Op.from_dict(op) for op in data["ops"]],
        )


# -- generation ---------------------------------------------------------------


@dataclass
class _ObjectState:
    """Generator-side bookkeeping of one simulated object."""

    collection: str
    side: int
    archived: bool = False


def _draw_config(rng: random.Random) -> SimConfig:
    mixins: Tuple[str, ...] = ()
    if rng.random() < 0.25:
        mixins = tuple(
            sorted(rng.sample(FAULT_MIXINS, rng.randint(1, len(FAULT_MIXINS))))
        )
    drives = rng.choice([1, 1, 2, 2, 4, 8])
    return SimConfig(
        num_drives=drives,
        media_kb=rng.choice([96, 128, 256]),
        super_tile_kb=rng.choice([16, 24, 32]),
        disk_cache_kb=rng.choice([64, 96, 160, 256]),
        policy=rng.choice(["lru", "fifo", "lfu", "size", "gds"]),
        compression=rng.choice(["none", "none", "none", "zlib"]),
        partial_reads=rng.random() < 0.8,
        scheduling=rng.random() < 0.9,
        prefetch="sequential" if rng.random() < 0.15 else "none",
        fault_mixins=mixins,
    )


def _region_str(rng: random.Random, side: int) -> str:
    axes = []
    for _dim in range(2):
        lo = rng.randrange(0, side - 1)
        hi = rng.randrange(lo, side)
        axes.append(f"{lo}:{hi}")
    return ",".join(axes)


def _box_str(rng: random.Random, side: int) -> str:
    return _region_str(rng, side)


def generate_program(seed: int, num_ops: int) -> WorkloadProgram:
    """Emit a randomized multi-user operation sequence for *seed*.

    The generator keeps a symbolic model of which objects exist and which
    are archived, so the emitted sequence is *plausible* (reads target
    live objects, reimports target archived ones) — but the runner never
    relies on that: shrunk subsequences stay executable.
    """
    rng = random.Random(seed)
    config = _draw_config(rng)
    ops: List[Op] = []
    objects: Dict[str, _ObjectState] = {}
    next_object = 0
    offline = False
    offline_ttl = 0

    def ingest_op() -> Op:
        nonlocal next_object
        name = f"o{next_object}"
        next_object += 1
        collection = f"u{rng.randrange(3)}"
        side = rng.choice([48, 64, 80, 96])
        objects[name] = _ObjectState(collection=collection, side=side)
        return Op(
            "ingest",
            {
                "collection": collection,
                "object": name,
                "side": side,
                "tile": 16,
                "source_seed": rng.randrange(1_000_000),
            },
        )

    while len(ops) < num_ops:
        if offline:
            offline_ttl -= 1
            if offline_ttl <= 0:
                ops.append(Op("offline", {"offline": False}))
                offline = False
                continue
        live = sorted(objects)
        archived = [n for n in live if objects[n].archived]
        choices: List[Tuple[str, float]] = []
        if len(objects) < 4:
            choices.append(("ingest", 3.0))
        if any(not objects[n].archived for n in live):
            choices.append(("archive", 3.0))
        if live:
            choices.append(("read", 6.0))
            choices.append(("frame_read", 2.0))
            choices.append(("read_many", 3.0))
            choices.append(("concurrent", 2.5))
            choices.append(("service", 2.0))
            choices.append(("update", 2.0))
            choices.append(("delete", 0.8))
        if archived:
            choices.append(("reimport", 1.5))
        choices.append(("cache_resize", 1.0))
        choices.append(("fault", 1.5))
        if not offline:
            choices.append(("offline", 0.6))
        kinds = [kind for kind, _w in choices]
        weights = [w for _kind, w in choices]
        kind = rng.choices(kinds, weights=weights, k=1)[0]

        if kind == "ingest":
            ops.append(ingest_op())
        elif kind == "archive":
            name = rng.choice([n for n in live if not objects[n].archived])
            state = objects[name]
            state.archived = True
            ops.append(
                Op(
                    "archive",
                    {
                        "collection": state.collection,
                        "object": name,
                        "keep_disk_copy": rng.random() < 0.2,
                    },
                )
            )
        elif kind == "read":
            name = rng.choice(live)
            state = objects[name]
            ops.append(
                Op(
                    "read",
                    {
                        "collection": state.collection,
                        "object": name,
                        "region": _region_str(rng, state.side),
                    },
                )
            )
        elif kind == "frame_read":
            name = rng.choice(live)
            state = objects[name]
            boxes = [
                _box_str(rng, state.side) for _b in range(rng.randint(1, 2))
            ]
            ops.append(
                Op(
                    "frame_read",
                    {
                        "collection": state.collection,
                        "object": name,
                        "boxes": boxes,
                        "fill": float(rng.choice([0.0, -1.0, 7.5])),
                    },
                )
            )
        elif kind == "read_many":
            count = rng.randint(2, min(4, max(2, len(live) + 1)))
            requests = []
            for _r in range(count):
                name = rng.choice(live)
                state = objects[name]
                requests.append(
                    [state.collection, name, _region_str(rng, state.side)]
                )
            ops.append(Op("read_many", {"requests": requests}))
        elif kind == "concurrent":
            # 2-8 overlapping queries, each with its own arrival offset,
            # weight, and a seeded interleaving schedule — the admission
            # layer fuses their staging into shared sweeps.
            count = rng.randint(2, 8)
            queries = []
            for _q in range(count):
                name = rng.choice(live)
                state = objects[name]
                queries.append(
                    [
                        state.collection,
                        name,
                        _region_str(rng, state.side),
                        round(rng.choice([0.0, 0.0, rng.uniform(0.0, 20.0)]), 3),
                        rng.choice([0.5, 1.0, 1.0, 2.0]),
                    ]
                )
            ops.append(
                Op(
                    "concurrent",
                    {
                        "queries": queries,
                        "schedule_seed": rng.randrange(1_000_000),
                        "holdback_s": rng.choice([0.0, 0.0, 0.0, 2.0, 5.0]),
                        "aging_bound_s": rng.choice([0.0, 0.0, 3600.0]),
                    },
                )
            )
        elif kind == "service":
            # Concurrent multi-tenant reads through the SN/DN service
            # tier (data nodes share the run's HEAVEN instance, so the
            # oracle still describes the bytes they must serve).
            count = rng.randint(2, 6)
            queries = []
            for _q in range(count):
                name = rng.choice(live)
                state = objects[name]
                queries.append(
                    [state.collection, name, _region_str(rng, state.side)]
                )
            ops.append(
                Op(
                    "service",
                    {
                        "queries": queries,
                        "nodes": rng.choice([1, 2, 2, 4]),
                        "tenants": rng.randint(1, 3),
                    },
                )
            )
        elif kind == "update":
            name = rng.choice(live)
            state = objects[name]
            lo0 = rng.randrange(0, state.side - 8)
            lo1 = rng.randrange(0, state.side - 8)
            extent = rng.choice([4, 8])
            region = (
                f"{lo0}:{lo0 + extent - 1},{lo1}:{lo1 + extent - 1}"
            )
            ops.append(
                Op(
                    "update",
                    {
                        "collection": state.collection,
                        "object": name,
                        "region": region,
                        "value_seed": rng.randrange(1_000_000),
                    },
                )
            )
        elif kind == "reimport":
            name = rng.choice(archived)
            state = objects[name]
            state.archived = False
            ops.append(
                Op(
                    "reimport",
                    {"collection": state.collection, "object": name},
                )
            )
        elif kind == "delete":
            name = rng.choice(live)
            state = objects.pop(name)
            ops.append(
                Op("delete", {"collection": state.collection, "object": name})
            )
        elif kind == "cache_resize":
            ops.append(
                Op(
                    "cache_resize",
                    {"disk_cache_kb": rng.choice([64, 96, 160, 256, 512])},
                )
            )
        elif kind == "fault":
            ops.append(
                Op(
                    "fault",
                    {
                        "site": rng.choice(FAULT_SITES),
                        "count": rng.randint(1, 2),
                    },
                )
            )
        elif kind == "offline":
            offline = True
            offline_ttl = rng.randint(1, 3)
            ops.append(Op("offline", {"offline": True}))

    if offline:
        ops.append(Op("offline", {"offline": False}))
    # Drawn after everything else, so a seed keeps its knobs and op stream.
    config = replace(config, memory_cache_kb=rng.choice(MEMORY_CACHE_KB))
    return WorkloadProgram(seed=seed, config=config, ops=ops)
