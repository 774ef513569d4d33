"""Workload program generation: determinism, closure and serialization."""

from __future__ import annotations

import pytest

from repro.simtest import (
    FAULT_MIXINS,
    OP_KINDS,
    SimConfig,
    WorkloadProgram,
    generate_program,
)

pytestmark = pytest.mark.simtest


def test_generation_is_deterministic():
    first = generate_program(31, 80)
    second = generate_program(31, 80)
    assert first.to_json() == second.to_json()


def test_different_seeds_differ():
    assert generate_program(1, 80).to_json() != generate_program(2, 80).to_json()


def test_requested_length_and_known_kinds():
    program = generate_program(9, 120)
    assert len(program.ops) == 120
    assert all(op.kind in OP_KINDS for op in program.ops)


def test_json_round_trip():
    program = generate_program(17, 60)
    restored = WorkloadProgram.from_json(program.to_json())
    assert restored.seed == program.seed
    assert restored.config == program.config
    assert restored.ops == program.ops
    assert restored.to_json() == program.to_json()


def test_replace_ops_preserves_seed_and_config():
    program = generate_program(5, 40)
    sliced = program.replace_ops(list(program.ops[:7]))
    assert sliced.seed == program.seed
    assert sliced.config == program.config
    assert len(sliced.ops) == 7


def test_config_fields_stay_in_generator_ranges():
    for seed in range(40):
        config = generate_program(seed, 1).config
        assert config.num_drives in (1, 2, 4, 8)
        assert config.policy in ("lru", "fifo", "lfu", "size", "gds")
        assert config.compression in ("none", "zlib")
        assert all(mixin in FAULT_MIXINS for mixin in config.fault_mixins)


def test_offline_pulses_always_close():
    """Every generated program ends with the library back online, so the
    quiescence sweep at the end of a run is meaningful."""
    for seed in range(25):
        online = True
        for op in generate_program(seed, 100).ops:
            if op.kind == "offline":
                online = not op.params["offline"]
        assert online


def test_sim_config_round_trip():
    config = SimConfig.from_dict(generate_program(3, 1).config.to_dict())
    assert config == generate_program(3, 1).config
