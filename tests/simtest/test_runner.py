"""SimRunner: clean fixed seeds, determinism, and replay round trips."""

from __future__ import annotations

import pytest

from repro.core import ZlibCodec
from repro.simtest import generate_program, replay_json, run_program

pytestmark = pytest.mark.simtest

#: small fixed subset of the CI seed matrix, kept fast for tier-1
SMOKE_SEEDS = (1, 2, 3, 4, 5)


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_fixed_seed_runs_clean(seed):
    result = run_program(generate_program(seed, 40))
    assert result.ok, "\n".join(v.describe() for v in result.violations)
    assert len(result.steps) == 40


def test_same_seed_same_digests():
    program = generate_program(7, 80)
    first = run_program(program)
    second = run_program(program)
    assert first.event_digest == second.event_digest
    assert first.report_digest == second.report_digest
    assert first.final_virtual_seconds == second.final_virtual_seconds
    assert [s.status for s in first.steps] == [s.status for s in second.steps]


def test_replay_json_matches_direct_run():
    program = generate_program(13, 40)
    direct = run_program(program)
    replayed = replay_json(program.to_json())
    assert replayed.event_digest == direct.event_digest
    assert replayed.report_digest == direct.report_digest


def test_failed_mutation_keeps_its_object_in_play():
    """A failed mutation rolls back inside the stack, so the oracle keeps
    the old value and later ops on that object still run and are checked.
    Seed 2's archive at op 41 exhausts its mount retries; nothing after it
    is skipped."""
    result = run_program(generate_program(2, 60))
    statuses = [step.status for step in result.steps]
    assert result.ok, "\n".join(v.describe() for v in result.violations)
    assert statuses.count("ok") == 59
    assert statuses.count("skipped") == 0


def test_virtual_time_advances():
    result = run_program(generate_program(3, 40))
    assert result.final_virtual_seconds > 0


def test_faulted_seed_still_clean():
    """A seed whose config draws fault mixins must absorb every injected
    fault through retry/failover without tripping an invariant."""
    for seed in range(1, 30):
        program = generate_program(seed, 40)
        if program.config.fault_mixins:
            result = run_program(program)
            assert result.ok, "\n".join(
                v.describe() for v in result.violations
            )
            return
    pytest.fail("no seed in 1..29 drew fault mixins")


def test_zlib_seed_reads_inflated_frames(monkeypatch):
    """Seed 11 draws ``compression="zlib"``.  Its ``HashedNoiseSource``
    doubles deflate as shuffled frames (a stored frame under plain DEFLATE),
    so the oracle checks bytes that went through inflate and unshuffle."""
    program = generate_program(11, 60)
    assert program.config.compression == "zlib"
    markers, inflated = [], []
    compress, decompress_view = ZlibCodec.compress, ZlibCodec.decompress_view

    def counting_compress(self, raw, *itemsize):
        frame = compress(self, raw, *itemsize)
        markers.append(frame[0])
        return frame

    def counting_view(self, stored, expected_size):
        if not self.decodes_to_view(stored):
            inflated.append(expected_size)
        return decompress_view(self, stored, expected_size)

    monkeypatch.setattr(ZlibCodec, "compress", counting_compress)
    monkeypatch.setattr(ZlibCodec, "decompress_view", counting_view)
    result = run_program(program)
    assert result.ok, "\n".join(v.describe() for v in result.violations)
    assert 1 in markers
    assert inflated
