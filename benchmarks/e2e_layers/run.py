#!/usr/bin/env python3
"""``e2e_layers``: one four-workload benchmark on both clocks.

Driver contract (see ``/BENCHMARK.json``)::

    python3 benchmarks/e2e_layers/run.py --workload NAME --seed N --seconds S --trace 0|1

prints human-readable context and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--all`` runs every workload in a fresh subprocess and writes a result
file ``compare.py`` understands.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.exit(f"e2e_layers: the program under test is missing: no {SOURCE}/repro")
sys.path[:0] = [SOURCE, HERE]

import numpy as np  # noqa: E402

import spec  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIB = float(1 << 20)
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = {"archive_read": 3, "service_read": 2, "query_hot": 3, "ingest_update": 3}
#: the untraced run checks every 16th op against the oracle, the traced run all
VERIFY_EVERY = 16
#: the traced run replays this leading share of the timed ops
TRACED_SHARE = 1.0 / 3.0


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def mid_mean(values: List[float]) -> float:
    """Mean of the middle half of *values* (the interquartile mean)."""
    ordered = sorted(values)
    middle = ordered[len(ordered) // 4: max(len(ordered) // 4 + 1, 3 * len(ordered) // 4)]
    return sum(middle) / len(middle)


def tail_mean(values: List[float]) -> float:
    """Mean of the slowest 5 % of *values* (at least one)."""
    slowest = sorted(values)[-max(1, len(values) // 20):]
    return sum(slowest) / len(slowest)


#: seconds one :func:`reference_s` iteration takes on the development host when quiet
REFERENCE_S = 0.00285
_REFERENCE_BLOB = zlib.compress(
    np.random.default_rng(0).integers(0, 64, size=16384).astype(np.float32).tobytes(), 6)
_REFERENCE_OUT = np.empty((16, 16384), dtype=np.float32)


def reference_s(repeats: int = 50) -> float:
    """Median seconds of a fixed computation that shares no code with ``repro``.

    This host is shared: for minutes at a time everything on it runs 10-30 %
    slower (CPU time rises with wall time, so it is contention, not
    preemption).  The reference — inflate, array copies, an interpreter
    loop: the blend the workloads are made of, in buffers small enough that
    the allocator's state does not matter — is timed right before and after
    whatever is measured, and host times are reported scaled by
    ``REFERENCE_S / reference`` (the faster of the two readings): what they
    would have been had the host run at its quiet speed throughout.  Below
    ~5 % the reference and the workloads do not move together, so on a quiet
    host the scaling adds about as much noise as it removes (3 % -> 5 %); in
    a slow period it takes 17-22 % down to 6-11 %.  Raw values go on the
    context line.
    """
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for row in range(0, 16, 2):
            cells = np.frombuffer(zlib.decompress(_REFERENCE_BLOB), dtype=np.float32)
            _REFERENCE_OUT[row] = cells
            _REFERENCE_OUT[row + 1] = cells
        total = 0
        for value in range(20000):
            total += value * value
        times.append(perf_counter() - start)
    return statistics.median(times)


def calibration_s() -> float:
    """The repo's calibration loop (``repro.bench.suite``), as context only."""
    times = []
    for _ in range(5):
        start = perf_counter()
        array = np.arange(262_144, dtype=np.float64)
        for _ in range(24):
            array = np.sqrt(array * 1.000001 + 1.0)
        checksum = 0
        for value in range(120_000):
            checksum += value * value
        times.append(perf_counter() - start)
    return statistics.median(times)


def context(args, workload: Optional[workloads.Workload] = None) -> dict:
    info = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "calibration_s": calibration_s(),
    }
    if workload is not None:
        info.update(workload=workload.name, warmup_ops=workload.warmup_ops,
                    timed_ops=workload.timed_ops)
    return info


def prepared(args, corrupt: bool = False) -> workloads.Workload:
    workload = workloads.WORKLOADS[args.workload](args.seed, streams.SCALES[args.scale], args.seconds)
    workload.prepare()
    if corrupt:
        # self-test: with every oracle cell wrong (2x + 1 moves any trim,
        # minimum, maximum, sum and mean), every verified op must fail
        for cells in workload.oracle.values():
            cells[...] = 2.0 * cells + 1.0
    gc.collect()
    return workload


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- untraced run: end-to-end metrics -------------------------------------------------------


def run_end_to_end(args) -> dict:
    setups: List[float] = []
    speed = reference_s()
    for _ in range(SETUP_REPEATS[args.workload] if args.scale == "full" else 1):
        workload = None  # free the previous build before timing the next
        gc.collect()
        start = perf_counter()
        workload = prepared(args, corrupt=args.corrupt_oracle)
        elapsed = perf_counter() - start
        before, speed = speed, reference_s()
        setups.append(elapsed * REFERENCE_S / min(before, speed))
    if args.dump_stream:
        with open(args.dump_stream, "w") as handle:
            for row in workload.stream_rows():
                handle.write(json.dumps(row) + "\n")
    before = workload.counters()
    measured = workload.run(workload.timed(), verify_every=VERIFY_EVERY)
    counts = delta(workload.counters(), before)
    #: factor taking host times of the timed section to the quiet host's speed;
    #: the faster of the two readings, so that a burst which hits only one of
    #: them cannot make the section look better than it was
    quiet = REFERENCE_S / min(speed, reference_s())
    ops, payload = measured.attempted, measured.payload_bytes
    correct = measured.failed == 0
    if args.workload == "query_hot":
        # bypass check: the hot set never goes back to tape once staged ...
        correct &= counts["tape.bytes_read"] == 0 and counts["tape.exchanges"] == 0
        # ... so the two tape metrics amortise the warm-up's staging instead
        counts = delta(workload.counters(), workload.before_warmup)
        ops += workload.warmup.attempted
        payload += workload.warmup.payload_bytes
    tape_bytes = counts["tape.bytes_written" if args.workload == "ingest_update" else "tape.bytes_read"]
    values = {
        "wall_mb_s": measured.payload_bytes / MIB / (measured.section_wall_s * quiet),
        "wall_mid_ms": 1e3 * mid_mean(measured.op_wall_s) * quiet,
        "wall_tail_ms": 1e3 * tail_mean(measured.op_wall_s) * quiet,
        "virtual_makespan_s": measured.virtual_makespan_s,
        "virtual_p95_s": percentile(measured.op_virtual_s, 95),
        "tape_amplification": tape_bytes / payload,
        "exchanges_per_100_ops": 100.0 * counts["tape.exchanges"] / ops,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stored_ratio": workload.footprint()["stored_ratio"],
    }
    print(json.dumps({"context": context(args, workload), "verified_ops": measured.verified,
                      "latency_samples": len(measured.op_wall_s),
                      "host_factor": quiet, "raw_section_wall_s": measured.section_wall_s,
                      "wall_p50_ms": 1e3 * percentile(measured.op_wall_s, 50),
                      "wall_p95_ms": 1e3 * percentile(measured.op_wall_s, 95),
                      "failed_share": measured.failed / measured.attempted}))
    return {
        "correct": bool(correct),
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in spec.END_TO_END},
    }


# -- traced run: per-layer metrics ----------------------------------------------------------


def run_traced(args) -> dict:
    # 1. the prefix untraced, for the tracing overhead
    workload = prepared(args)
    untraced = workload.run(workload.timed(TRACED_SHARE), verify_every=VERIFY_EVERY)
    del workload
    # 2. the same prefix with the wrappers installed, every op verified
    workload = prepared(args)
    before = workload.counters()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        traced = workload.run(workload.timed(TRACED_SHARE), verify_every=1)
    finally:
        recorder.uninstall()
    counts = delta(workload.counters(), before)
    summary = tracing.summarise(recorder.segments, recorder.tags)
    if args.spans:
        recorder.write_jsonl(args.spans)
    # tracing must not change what the program does
    correct = (
        traced.failed == 0 and untraced.failed == 0
        and traced.virtual_makespan_s == untraced.virtual_makespan_s
        and traced.payload_bytes == untraced.payload_bytes
    )
    # bypass check: the query layer is entered by query_hot and by nothing else
    query_calls = summary.layer("arrays.query").calls
    correct &= (query_calls > 0) == (args.workload == "query_hot")
    wall_tax = 0.0
    if args.workload == "service_read":
        # the same prefix through the direct API: the service tier's wall tax,
        # and byte-identity of the two paths' answers op by op
        direct_args = argparse.Namespace(**{**vars(args), "workload": "archive_read"})
        direct = prepared(direct_args)
        answer = direct.run(direct.timed(TRACED_SHARE), verify_every=VERIFY_EVERY)
        wall_tax = (answer.payload_bytes / answer.section_wall_s) / (
            untraced.payload_bytes / untraced.section_wall_s)
        correct &= answer.failed == 0 and all(
            untraced.digests.get(op) == crc for op, crc in answer.digests.items())
    values = layer_values(workload, traced, untraced, summary, counts, wall_tax)
    print(json.dumps({"context": context(args, workload), "traced_ops": traced.attempted,
                      "segments": len(recorder.segments), "verified_ops": traced.verified}))
    return {
        "correct": bool(correct),
        "attempted": traced.attempted,
        "failed": traced.failed + untraced.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in spec.PER_LAYER},
    }


def layer_values(workload, traced, untraced, summary, counts, wall_tax) -> Dict[str, float]:
    """Every metric of spec.PER_LAYER; a layer the workload never enters reports 0."""
    ops = max(1, traced.attempted)
    name, layer = summary.name, summary.layer

    def self_ms(*names: str) -> float:
        return 1e3 * sum(name(n).self_s for n in names) / ops

    def rate(amount: float, seconds: float) -> float:
        return amount / MIB / seconds if seconds > 0 else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    entry_points = ("Heaven.read_with_report", "Heaven.read_many", "Heaven.query",
                    "Heaven.serve_sub_reads", "Heaven.insert", "Heaven.archive",
                    "Heaven.update", "Heaven.reimport", "Heaven.delete")
    decode = [name("ZlibCodec.decompress_view"), name("ZlibCodec.decompress_into")]
    encode = name("ZlibCodec.compress")
    node_for, materialize = name("HashRing.node_for"), name("MDD.materialize_tile")
    return {
        "service.sn.self_ms_per_op": self_ms("ServiceNode.read"),
        "service.sn.shards_per_op": traced.counts["shards"] / ops,
        "service.sn.tiles_per_op": node_for.calls / ops,
        "service.sn.retries": traced.counts["retries"],
        "service.auth.self_us_per_op": 1e6 * layer("service.auth").self_s / ops,
        "service.hashring.node_for_us_per_tile": 1e6 * ratio(node_for.self_s, node_for.calls),
        "service.node.wait_ms_p50": 1e3 * percentile(summary.node_waits_s, 50),
        "service.node.batch_size_mean": ratio(counts.get("node.requests", 0), counts.get("node.batches", 0)),
        "service.node.batches": counts.get("node.batches", 0),
        "core.units.encode_ms_per_op": self_ms("SubReadRequest.encode", "SubReadResponse.encode"),
        "core.units.decode_ms_per_op": self_ms("SubReadRequest.decode", "SubReadResponse.decode"),
        "core.units.wire_bytes_per_returned_byte": ratio(counts.get("node.wire_bytes", 0), traced.payload_bytes),
        "service.assemble.self_ms_per_op": self_ms("ShadowObject.assemble"),
        "service.assemble.mb_s": rate(name("ShadowObject.assemble").amount, name("ShadowObject.assemble").inclusive_s),
        "core.admission.self_ms_per_op": 1e3 * layer("core.admission").self_s / ops,
        "core.admission.sweeps": counts["admission.sweeps"],
        "core.admission.fusion_saved_bytes": counts["admission.fusion_saved_bytes"],
        "core.heaven.collect_needs_ms_per_op": self_ms("Heaven.collect_needs"),
        "core.heaven.plan_requests_ms_per_op": self_ms("Heaven.plan_requests"),
        "core.heaven.execute_staging_self_ms_per_op": self_ms("Heaven.execute_staging"),
        "core.heaven.read_self_ms_per_op": self_ms(*entry_points),
        "core.heaven.waves": counts["heaven.waves"],
        "core.heaven.restages": counts["heaven.restages"],
        "core.heaven.super_tiles_staged": counts["heaven.segments_staged"],
        "core.scheduler.order_ms_per_op": self_ms("ElevatorScheduler.order"),
        "core.scheduler.requests_per_op": name("ElevatorScheduler.order").amount / ops,
        "tertiary.self_ms_per_op": 1e3 * layer("tertiary").self_s / ops,
        "tertiary.virtual_exchange_s": counts["tape.time_exchanging_s"],
        "tertiary.virtual_seek_s": counts["tape.time_seeking_s"],
        "tertiary.virtual_transfer_s": counts["tape.time_transferring_s"],
        "tertiary.bytes_read": counts["tape.bytes_read"],
        "tertiary.bytes_written": counts["tape.bytes_written"],
        "core.cache.self_ms_per_op": 1e3 * layer("core.cache").self_s / ops,
        "core.cache.disk_hit_ratio": ratio(counts["disk.hits"], counts["disk.lookups"]),
        "core.cache.disk_bytes_evicted": counts["disk.bytes_evicted"],
        "core.cache.mem_hit_ratio": ratio(counts["mem.hits"], counts["mem.lookups"]),
        "core.cache.mem_evictions": counts["mem.evictions"],
        "core.cache.pin_evictions_blocked": counts["disk.pin_evictions_blocked"],
        "core.compression.decode_ms_per_op": 1e3 * sum(t.self_s for t in decode) / ops,
        "core.compression.decode_mb_s": rate(sum(t.amount for t in decode), sum(t.self_s for t in decode)),
        "core.compression.encode_ms_per_op": 1e3 * encode.self_s / ops,
        "core.compression.encode_mb_s": rate(encode.amount, encode.self_s),
        "core.compression.stored_frame_share": workload.footprint()["stored_frame_share"],
        "arrays.mdd.read_self_ms_per_op": self_ms("MDD.read"),
        "arrays.mdd.materialize_self_ms_per_op": self_ms("MDD.materialize_tile"),
        "arrays.mdd.assemble_mb_s": rate(name("MDD.read").amount, name("MDD.read").self_s),
        "arrays.mdd.tiles_for_us_per_op": 1e3 * self_ms("MDD.tiles_for"),
        "arrays.mdd.tiles_per_op": materialize.calls / ops,
        "arrays.query.parse_us_per_op": 1e3 * self_ms("parse"),
        "arrays.query.execute_self_ms_per_op": self_ms("QueryExecutor.execute"),
        "core.precomputed.answered_share": ratio(counts["precomputed.answered"], counts["precomputed.lookups"]),
        # tiles_in_frame runs more than once per frame() op: compare per-call means
        "core.framing.tiles_skipped_share": (
            1.0 - ratio(name("tiles_in_frame").amount, name("tiles_in_frame").calls)
            / ratio(traced.counts["hull_tiles"], traced.counts["frame_ops"])
            if traced.counts["frame_ops"] else 0.0),
        "core.pyramid.hits": counts["pyramid.answered"],
        "core.export.self_ms_per_mb": 1e3 * ratio(name("TCTExporter.export").self_s,
                                                  name("TCTExporter.export").amount / MIB),
        "core.estar.partition_ms_per_object": 1e3 * ratio(layer("core.estar").self_s, layer("core.estar").calls),
        "dbms.blob.self_ms_per_op": 1e3 * layer("dbms.blob").self_s / ops,
        "core.export.virtual_s_per_gb": ratio(traced.counts["export_virtual_s"],
                                              traced.counts["export_bytes"] / float(1 << 30)),
        "bench.unattributed_pct": 100.0 * max(0.0, 1.0 - summary.covered_s / traced.section_wall_s),
        "bench.trace_overhead_pct": 100.0 * (traced.section_wall_s / untraced.section_wall_s - 1.0),
        "bench.verify_s": traced.verify_s,
        "service.wall_tax": wall_tax,
    }


# -- all workloads, one result file -----------------------------------------------------------


def run_all(args) -> int:
    """Every workload in a fresh subprocess, ``--repeats`` untraced + 1 traced."""
    result = {"context": context(args), "bounds": {m.name: m.bound for m in spec.END_TO_END},
              "workloads": {}}
    status = 0
    for workload in spec.WORKLOADS:
        entry = result["workloads"][workload] = {"runs": [], "per_layer": None}
        for trace in [0] * args.repeats + [1]:
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--scale", args.scale, "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} --trace {trace} failed:\n{done.stdout}\n{done.stderr}", file=sys.stderr)
                status = 1
                if not lines:
                    continue
            report = json.loads(lines[-1])
            flat = {name: metric["value"] for name, metric in report["metrics"].items()}
            if not trace:
                flat["host_factor"] = json.loads(lines[0])["host_factor"]
            flat.update(correct=report["correct"], attempted=report["attempted"], failed=report["failed"])
            if trace:
                entry["per_layer"] = flat
            else:
                entry["runs"].append(flat)
            print(f"{workload} --trace {trace}: correct={report['correct']} "
                  f"attempted={report['attempted']} failed={report['failed']}", flush=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=20040314)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=list(streams.SCALES), default="full")
    parser.add_argument("--dump-stream", metavar="FILE", help="write the generated op stream as JSONL")
    parser.add_argument("--spans", metavar="FILE", help="traced run: write every segment as JSONL")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: damage the oracle; the run must report failures")
    parser.add_argument("--all", action="store_true", help="every workload, each in a fresh subprocess")
    parser.add_argument("--repeats", type=int, default=3, help="--all: untraced runs per workload")
    parser.add_argument("--out", metavar="FILE", help="--all: result file for compare.py")
    parser.add_argument("--write-spec", action="store_true", help="rewrite /BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    if args.write_spec:
        spec.write_benchmark_json()
        return 0
    if args.all:
        if not args.out:
            parser.error("--all needs --out FILE")
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required")
    report = run_traced(args) if args.trace else run_end_to_end(args)
    for name, metric in report["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(report))
    return 0 if report["correct"] and report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
