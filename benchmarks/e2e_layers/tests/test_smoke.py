"""Smoke tests of the e2e_layers benchmark (sub-second ``--scale smoke`` runs).

Run with ``python -m pytest benchmarks/e2e_layers/tests -q``; tier-1's
``testpaths`` does not include this directory.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = list(spec.WORKLOADS)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def bench(capsys, *extra, workload, seed=7, trace=0):
    """One in-process smoke run: (exit status, last-line report)."""
    status = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "10",
                       "--scale", "smoke", "--trace", str(trace), *extra])
    return status, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_is_the_spec():
    with open(spec.BENCHMARK_JSON) as handle:
        assert json.load(handle) == spec.benchmark_json()
    names = [m.name for m in spec.END_TO_END] + [m.name for m in spec.PER_LAYER] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_and_repeats(workload, capsys, tmp_path):
    streams = [str(tmp_path / f"stream{i}.jsonl") for i in range(3)]
    status, first = bench(capsys, "--dump-stream", streams[0], workload=workload)
    _status, again = bench(capsys, "--dump-stream", streams[1], workload=workload)
    _status, other = bench(capsys, "--dump-stream", streams[2], workload=workload, seed=8)
    assert status == 0 and first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert list(first["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        assert first["metrics"][metric.name]["unit"] == metric.unit
        if metric.exact:
            assert first["metrics"][metric.name] == again["metrics"][metric.name], metric.name
    rows = [open(path).read() for path in streams]
    assert rows[0] == rows[1] and rows[0] != rows[2]
    assert other["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, capsys, tmp_path):
    spans = str(tmp_path / "spans.jsonl")
    status, first = bench(capsys, "--spans", spans, workload=workload, trace=1)
    _status, again = bench(capsys, workload=workload, trace=1)
    assert status == 0 and first["correct"] and first["failed"] == 0
    assert list(first["metrics"]) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        if metric.source == "stats":
            assert first["metrics"][metric.name] == again["metrics"][metric.name], metric.name
    values = {name: metric["value"] for name, metric in first["metrics"].items()}
    # the query layer is entered by query_hot only, the service tier by service_read only
    assert (values["arrays.query.execute_self_ms_per_op"] > 0) == (workload == "query_hot")
    assert (values["service.sn.self_ms_per_op"] > 0) == (workload == "service_read")
    assert (values["service.wall_tax"] > 0) == (workload == "service_read")
    assert values["bench.unattributed_pct"] < 25.0
    segment = json.loads(open(spans).readline())
    assert {"span", "name", "layer", "start", "end", "parent", "op"} <= set(segment)


def test_both_read_workloads_replay_one_stream(capsys, tmp_path):
    paths = {w: str(tmp_path / f"{w}.jsonl") for w in ("archive_read", "service_read")}
    for workload, path in paths.items():
        bench(capsys, "--dump-stream", path, workload=workload)
    assert open(paths["archive_read"]).read() == open(paths["service_read"]).read()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_oracle_fails_the_command(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "10", "--scale", "smoke", "--trace", "0", "--corrupt-oracle"],
        capture_output=True, text=True, timeout=120)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert not report["correct"] and report["failed"] > 0


def test_self_time_is_duration_minus_direct_children():
    read, get = (next(i for i, t in enumerate(tracing.TABLE) if t.name == name)
                 for name in ("MDD.read", "MemoryTileCache.get"))
    segments = [
        (2, get, 1.0, 2.0, 1, 0, 0),      # child of span 1
        (3, get, 3.0, 3.5, 1, 0, 0),      # child of span 1
        (1, read, 0.0, 4.0, 0, 0, 4096),  # recorded last: it ends last
        (4, get, 5.0, 6.0, 0, 1, 0),      # top level
    ]
    summary = tracing.summarise(segments, {})
    assert summary.name("MDD.read").self_s == pytest.approx(2.5)
    assert summary.name("MDD.read").inclusive_s == pytest.approx(4.0)
    assert summary.name("MDD.read").amount == 4096
    assert summary.name("MemoryTileCache.get").self_s == pytest.approx(2.5)
    assert summary.name("MemoryTileCache.get").calls == 3
    assert summary.covered_s == pytest.approx(5.0)


def test_compare_verdicts():
    def result(**overrides):
        run_row = {m.name: 100.0 for m in spec.END_TO_END}
        run_row.update(attempted=10, failed=0)
        run_row.update(overrides)
        return {"workloads": {w: {"runs": [dict(run_row), dict(run_row)]} for w in spec.WORKLOADS}}

    def verdicts(a, b):
        return {(row[0], row[1]): row[-1] for row in compare.compare(a, b)}

    assert set(verdicts(result(), result()).values()) == {"ok"}
    slower = verdicts(result(), result(wall_mid_ms=150.0))
    assert slower[("archive_read", "wall_mid_ms")] == "worse"
    assert slower[("archive_read", "wall_mb_s")] == "ok"
    moved = verdicts(result(), result(tape_amplification=100.5))
    assert moved[("query_hot", "tape_amplification")] == "worse"   # exact: any worsening counts
    assert verdicts(result(), result(failed=1))[("ingest_update", "failed_share")] == "worse"
    noisy = result()
    for entry in noisy["workloads"].values():
        entry["runs"][1]["wall_mb_s"] = 300.0
    assert verdicts(noisy, result())[("service_read", "wall_mb_s")] == "unresolved"
