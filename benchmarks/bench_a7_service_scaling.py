"""A7 (ablation) — service-tier scaling: virtual q/s vs data-node count.

The same seeded open-loop request stream is served through the SN/DN
tier at 1, 2 and 4 data nodes, each node a fresh HEAVEN holding a full
copy of the archive.  Series: virtual throughput, p95 sojourn and
makespan per node count.  The object is spread over eight small media,
dealt round-robin over the nodes; the service node routes each tile to
its medium's node, so every medium is mounted exactly once in the run,
on one node only, and the mount bill — the dominant cost — splits N
ways.  Throughput scales slightly above linearly because a node's first
mount finds its drive empty and stows nothing: four nodes make four such
mounts where one node makes one.
"""

import numpy as np

from repro.bench import ResultTable
from repro.core import Heaven, HeavenConfig
from repro.service import ServiceCluster
from repro.tertiary import DLT_7000, MB, scaled_profile
from repro.workloads import zero_object

from _rigs import poisson_slabs

OBJECT_MB = 16
REQUESTS = 12
NODE_COUNTS = [1, 2, 4]
SEED = 23
#: arrivals an order of magnitude faster than the single-node service
#: rate: the makespan is work-dominated and the node count is what moves it
OFFERED_QPS = 4.0
#: committed scaling floors (measured 2.047 and 4.297)
MIN_SPEEDUP_2V1 = 2.0
MIN_SPEEDUP_4V1 = 4.2


def make_config() -> HeavenConfig:
    # 16 super-tile segments over 8 media.
    return HeavenConfig(
        tape_profile=scaled_profile(DLT_7000, OBJECT_MB * MB // 8),
        super_tile_bytes=OBJECT_MB * MB // 16,
        disk_cache_bytes=64 * MB,
        retain_payload=False,
    )


def build_object():
    return zero_object(OBJECT_MB, tile_kb=32, dims=3)


def setup(heaven: Heaven) -> None:
    heaven.create_collection("c")
    heaven.insert("c", build_object())
    heaven.archive("c", "obj")
    heaven.library.unmount_all()


def run_nodes(nodes: int, stream):
    cluster = ServiceCluster.build(
        make_config, setup, nodes=nodes, objects=[("c", "obj")]
    )
    cluster.register_tenant("bench")
    results = cluster.read_many(
        [("token-bench", "c", "obj", str(region), arrival)
         for region, arrival in stream]
    )
    makespan = max(r.completion_v for r in results)
    p95 = np.percentile([r.latency_v for r in results], 95)
    return len(results) / makespan, p95, makespan


def run_sweep():
    stream = poisson_slabs(build_object().domain, REQUESTS, OFFERED_QPS, SEED)
    return [(nodes, *run_nodes(nodes, stream)) for nodes in NODE_COUNTS]


def build_table(rows) -> ResultTable:
    table = ResultTable(
        f"A7  Service-tier scaling: {REQUESTS} open-loop reads of a "
        f"{OBJECT_MB} MB object (seed {SEED})",
        ["data nodes", "virtual q/s", "p95 [s]", "makespan [s]",
         "speedup vs 1"],
    )
    base_qps = rows[0][1]
    for nodes, qps, p95, makespan in rows:
        table.add(
            nodes, f"{qps:.4f}", f"{p95:.3f}", f"{makespan:.3f}",
            f"{qps / base_qps:.3f}",
        )
    table.note(f"offered load {OFFERED_QPS:g} q/s (saturating); each data "
               "node a fresh HEAVEN with one drive")
    return table


def test_a7_service_scaling(benchmark, report_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report_table("a7_service_scaling", build_table(rows))

    qps = [row[1] for row in rows]
    # Shape: throughput grows with every doubling of the data nodes ...
    assert qps == sorted(qps)
    # ... and two and four nodes clear the committed scaling floors.
    assert qps[1] / qps[0] >= MIN_SPEEDUP_2V1
    assert qps[2] / qps[0] >= MIN_SPEEDUP_4V1
