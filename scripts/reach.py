#!/usr/bin/env python
"""Reach audit: which ``src/repro`` functions does no system harness run?

A *harness* is a way the system is driven as a whole, not a unit test:
the experiments, the end-to-end workloads, the simtest sweeps, the
examples and every CLI command at its defaults (``HARNESSES`` below).
``run`` starts each in a fresh subprocess with a ``sys.settrace`` hook
loaded through a temporary ``sitecustomize`` directory; at exit each
child dumps the ``(file, first line, name)`` of every ``src/repro`` code
object that ran (a call event: a ``def`` line runs at import, so line
hits say nothing about reach) and the lines those code objects ran.
``report`` maps the dumps onto an ``ast`` walk of ``src/repro`` (a code
object's first line is its first decorator line) and prints every
function no harness reached, per module, with its line count (``def``
line through last line; nested functions count on their own too).
``report --lines`` also lists, per reached function, the statements no
harness ran, as line ranges: modes and branches inside live code.  The
line listing is a report only; ``--check`` does not gate on it.

A function that nothing reaches is deleted, or named in ``ALLOWLIST``
with a one-line reason (and the ROADMAP item it waits on, if any).
``--check`` runs both steps and exits 1 when

* the unreached lines outside the allowlist exceed ``LIMIT``,
* an allowlist entry names no function in ``src/repro``, or
* every function an allowlist entry covers is reached (a stale entry).

An entry is ``module:Qualified.name`` (covers that function and what it
nests; a class covers its methods) or a bare module (covers all of it).

Usage::

    python scripts/reach.py run [--dumps DIR]
    python scripts/reach.py report [--lines] [--dumps DIR]
    python scripts/reach.py --check [--lines] [--dumps DIR]

Stdlib only; the harnesses themselves need numpy, pytest and
pytest-benchmark.  About 2 minutes on 2 vCPUs (two harnesses at a time).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
DEFAULT_DUMPS = os.path.join(REPO_ROOT, ".reach")

#: most function lines that may stay unreached outside ``ALLOWLIST``
#: (the measured remainder; lower it with every sweep)
LIMIT = 326

E2E_WORKLOADS = ("archive_read", "service_read", "query_hot", "ingest_update")
EXAMPLES = ("cache_tuning.py", "climate_archive.py", "genome_browser.py",
            "quickstart.py", "satellite_shop.py")
CLI_COMMANDS = ("info", "demo", "retrieval", "parallel", "multiquery", "serve",
                "trace", "stats", "profile", "chaos", "simtest", "export")

#: (label, argv after ``python``), each run from the repo root
HARNESSES: List[Tuple[str, List[str]]] = [
    # pytest-benchmark switches the trace hook off inside timed calls
    ("experiments", ["-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e_layers",
                     "--benchmark-disable", "-q", "-p", "no:cacheprovider"]),
    *((f"e2e-{workload}-trace{trace}",
       ["benchmarks/e2e_layers/run.py", "--workload", workload,
        "--seconds", "3", "--trace", str(trace)])
      for workload in E2E_WORKLOADS for trace in (0, 1)),
    ("simtest-sweep", ["scripts/simtest_digests.py", "--seeds", "1-25", "--ops", "60"]),
    ("simtest-determinism", ["scripts/simtest_digests.py", "--determinism",
                             "7,10,11,17,59", "--ops", "200"]),
    *((f"example-{name[:-3]}", [f"examples/{name}"]) for name in EXAMPLES),
    *((f"cli-{command}", ["-m", "repro", command]) for command in CLI_COMMANDS),
]

#: group -> {entry: reason}; see the module docstring for the entry forms
ALLOWLIST: Dict[str, Dict[str, str]] = {
    "fault, recovery and rejection paths": {
        "repro.core.export:recover_incomplete_exports":
            "crash recovery of half-written TCT exports; tests inject the crash",
        "repro.dbms.transaction:Transaction.rollback":
            "runs when a transaction body raises; tests inject the failure",
        "repro.dbms.engine:Database.rollback":
            "runs when a transaction body raises; tests inject the failure",
        "repro.dbms.table:Table.restore": "undo image applied by a rollback",
        "repro.dbms.blob:BlobStore.restore": "undo image applied by a rollback",
        "repro.dbms.wal:WriteAheadLog":
            "log inspection and truncation for recovery; item 1 replays it",
        "repro.faults.plan:FaultPlan":
            "scripted fault plans; harnesses draw seeded faults, tests script them",
        "repro.service.faults:ServiceFaultPlan":
            "service-tier fault injection; tests inject the faults",
        "repro.service.faults:ServiceFaultSpec":
            "service-tier fault injection; tests inject the faults",
        "repro.service.node:DataNode._serve_one":
            "per-unit fallback when a data-node batch fails; tests inject the failure",
        "repro.tertiary.media:BadSpot": "media bad spots; tests inject them",
        "repro.tertiary.media:Medium.add_bad_spot": "media bad spots; tests inject them",
        "repro.tertiary.media:Medium.clear_bad_spot": "media bad spots; tests inject them",
        "repro.tertiary.media:Medium.bad_spots": "media bad spots; tests inject them",
        "repro.core.units:_dtype_for":
            "wire dtype names, resolved only by TilePayload.cells; item 2 frames the wire",
        "repro.core.units:WireError": "wire decoder of typed errors; item 2 frames the wire",
        "repro.core.units:TilePayload.cells":
            "wire decoder of tile payloads; item 2 frames the wire",
    },
    "simtest failure path": {
        "repro.simtest.shrink": "shrinks a failing seed; runs only when a seed fails",
        "repro.simtest.artifacts": "writes a failing seed's repro files; runs only then",
        "repro.simtest.program:Op.to_dict": "program (de)serialiser for failure artifacts",
        "repro.simtest.program:Op.from_dict": "program (de)serialiser for failure artifacts",
        "repro.simtest.program:SimConfig.to_dict": "program (de)serialiser for failure artifacts",
        "repro.simtest.program:SimConfig.from_dict":
            "program (de)serialiser for failure artifacts",
        "repro.simtest.program:WorkloadProgram.to_json":
            "program (de)serialiser for failure artifacts",
        "repro.simtest.program:WorkloadProgram.from_json":
            "program (de)serialiser for failure artifacts",
        "repro.simtest.runner:replay_json": "`simtest --replay` of a failure artifact",
    },
    "platform fallbacks and abstract bases": {
        "repro.core.compression:_zlib_inflate":
            "decodes DEFLATE frames, which hosts write when libzstd does not load",
        "repro.core.compression:_zlib_deflate": "zlib encoder when libzstd does not load",
        "repro.core.compression:_load_libzstd.Context.__del__":
            "frees a thread's zstd context when the thread ends, after the audit's exit dump",
        "repro.core.compression:NoneCodec":
            "compression='none' paths the harnesses reach only in part",
        "repro.core.compression:Codec": "abstract codec base",
        "repro.core.cache:EvictionPolicy": "abstract eviction-policy base",
        "repro.core.clustering:PlacementPolicy": "abstract placement base",
        "repro.core.framing:Frame": "abstract frame base",
    },
    "frozen tracing.py:TABLE rows": {
        "repro.core.heaven:Heaven.serve_sub_reads":
            "named by benchmarks/e2e_layers/tracing.py:TABLE, which is frozen",
        "repro.core.compression:ZlibCodec.decompress_into":
            "named by benchmarks/e2e_layers/tracing.py:TABLE, which is frozen",
        "repro.core.units:SubReadRequest.encode": "request framing; item 2 frames requests",
        "repro.core.units:SubReadRequest.decode": "request framing; item 2 frames requests",
        "repro.core.units:SubReadRequest.to_header": "request framing; item 2 frames requests",
        "repro.core.units:SubReadRequest.from_header": "request framing; item 2 frames requests",
    },
    "items that decide later": {
        "repro.arrays.query.executor:QueryExecutor.run_statement":
            "RasQL statements; item 7 decides",
        "repro.arrays.query.executor:QueryExecutor._subset_marray":
            "RasQL evaluation; item 7 decides",
        "repro.arrays.query.executor:QueryExecutor._eval_field":
            "RasQL struct fields; item 7 decides",
        "repro.arrays.query.executor:QueryExecutor._to_bool": "RasQL evaluation; item 7 decides",
        "repro.core.heaven:Heaven._drop_collection_everywhere":
            "RasQL `drop collection` chain; item 7 decides",
        "repro.arrays.storage:ArrayStorage.drop_collection":
            "RasQL `drop collection` chain; item 7 decides",
        "repro.arrays.celltype:register": "struct cell types; item 7 decides",
        "repro.arrays.celltype:struct_type": "struct cell types; item 7 decides",
        "repro.arrays.celltype:lookup":
            "cell type by name, for struct types, catalog reload and wire dtype names",
        "repro.core.heaven:Heaven.persist_access_statistics":
            "catalog persistence; item 1 decides",
        "repro.core.heaven:Heaven.restore_access_statistics":
            "catalog persistence; item 1 decides",
        "repro.arrays.storage:ArrayStorage._rebuild_mdd": "catalog reload; item 1 decides",
        "repro.obs.profiler:Profile.to_dict": "profiler export; item 9 decides",
        "repro.obs.profiler:Profile.total_weight": "profiler helper; item 9 decides",
        "repro.obs.profiler:profile_call": "profiler helper; item 9 decides",
        "repro.obs.profiler:WallProfiler._on_profile_event":
            "deterministic profiler hook (signal mode runs instead); item 9 decides",
        "repro.obs.exporters:spans_to_jsonl": "`trace --jsonl` exporter; item 9 decides",
        "repro.workloads.cfd": "paper Fig. 1.1 access generator; item 6 decides",
        "repro.workloads.climate:monthly_series":
            "paper Fig. 1.1 access generator; item 6 decides",
        "repro.workloads.access:cross_series_regions":
            "paper Fig. 1.1 access generator; item 6 decides",
    },
    "accessors tests use as oracles": {
        "repro.arrays.mdd:MDD.read_all": "whole-object oracle read",
        "repro.arrays.mdd:MDD.materialize_all": "whole-object oracle read",
        "repro.core.cache:DiskCache.is_pinned": "pin-state oracle",
        "repro.core.precomputed:PrecomputedCatalog.has_object": "catalog-membership oracle",
        "repro.core.pyramid:PyramidCatalog.has_object": "catalog-membership oracle",
        "repro.core.admission:MultiQueryReport.total_bytes_attributed":
            "tape-byte attribution oracle",
        "repro.tertiary.clock:EventLog.count": "event-log oracle",
        "repro.tertiary.clock:EventLog.time_in": "event-log oracle",
        "repro.tertiary.clock:EventLog.bytes_in": "event-log oracle",
        "repro.obs.trace:Span.events": "span-window oracle",
        "repro.obs.trace:Span.count": "span-window oracle",
        "repro.obs.trace:Span.time_in": "span-window oracle",
        "repro.obs.trace:Span.bytes_in": "span-window oracle",
        "repro.tertiary.hsm:HSMSystem.files": "HSM catalog oracle",
        "repro.tertiary.hsm:HSMSystem.is_staged": "HSM staging-area oracle",
    },
}

HOOK = '''\
import atexit, json, os, sys, threading

_root = os.environ["REACH_SRC"] + os.sep
_codes = {}  # id(code) -> every code object that ran (kept, so ids stay unique)
_lines = {}  # id(code) -> the lines it ran, for src/repro code objects only


def _reach_lines(frame, event, arg):
    if event == "line":
        _lines[id(frame.f_code)].add(frame.f_lineno)
    return _reach_lines


def _reach_hook(frame, event, arg):
    code = frame.f_code
    key = id(code)
    if key not in _codes:
        _codes[key] = code
        if code.co_filename.startswith(_root):
            _lines[key] = set()
    return _reach_lines if key in _lines else None


def _reach_dump():
    sys.settrace(None)
    threading.settrace(None)
    reached, lines = set(), {}
    for key, hits in list(_lines.items()):
        code = _codes[key]
        path = code.co_filename[len(_root):]
        reached.add((path, code.co_firstlineno, code.co_name))
        lines.setdefault(path, set()).update(hits)
    name = "%s.%d.json" % (os.environ["REACH_LABEL"], os.getpid())
    with open(os.path.join(os.environ["REACH_DUMPS"], name), "w") as handle:
        json.dump({"functions": sorted(reached),
                   "lines": {path: sorted(hits) for path, hits in lines.items()}}, handle)


atexit.register(_reach_dump)
threading.settrace(_reach_hook)
sys.settrace(_reach_hook)
'''


class Function(NamedTuple):
    module: str  # dotted, e.g. ``repro.core.heaven``
    qualname: str  # ``Class.method`` / ``outer.inner``
    path: str  # relative to ``src/repro``
    first: int  # first decorator line (a code object's ``co_firstlineno``)
    name: str
    lines: int  # ``def`` line through last line
    body: Tuple[ast.stmt, ...]  # its own statements (``report --lines``)


def functions() -> List[Function]:
    """Every function and method in ``src/repro``, nested ones included."""
    found: List[Function] = []
    for directory, _dirs, files in sorted(os.walk(SRC_ROOT)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            full = os.path.join(directory, filename)
            path = os.path.relpath(full, SRC_ROOT)
            parts = ["repro", *path[:-3].split(os.sep)]
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            with open(full, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), full)
            found.extend(_walk(tree, module, path, ""))
    return found


def _walk(node: ast.AST, module: str, path: str, prefix: str) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield Function(module, qualname, path, _first_line(child), child.name,
                           child.end_lineno - child.lineno + 1, tuple(child.body))
            yield from _walk(child, module, path, qualname + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, module, path, prefix + child.name + ".")
        else:
            yield from _walk(child, module, path, prefix)


def _first_line(node: ast.AST) -> int:
    """A statement's first line: its first decorator line, if it has any."""
    return min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])


def _bodies(node: ast.AST) -> List[List[ast.AST]]:
    """The statement lists *node* holds (an ``except`` clause counts as a
    statement of its ``try``); a nested function's body is its own."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    return [getattr(node, field) for field in ("body", "handlers", "orelse", "finalbody")
            if getattr(node, field, None)]


def _ran(node: ast.AST, hits: Set[int]) -> bool:
    """Whether a harness ran *node*: a line of its header (the whole
    statement for a simple one) was hit, or a statement it holds ran."""
    first, last = _first_line(node), node.end_lineno
    if isinstance(getattr(node, "body", None), list):  # compound: its header lines
        last = max(first, node.body[0].lineno - 1)
    return any(line in hits for line in range(first, last + 1)) or any(
        _ran(child, hits) for body in _bodies(node) for child in body)


def unrun(body: Sequence[ast.AST], hits: Set[int]) -> List[Tuple[int, int]]:
    """``(first, last)`` line ranges of the statements in *body* that no
    harness ran: each maximal run of unrun neighbours is one range, and
    what an unrun statement holds is not listed again.  String statements
    (docstrings) and ``global``/``nonlocal`` run no code and are skipped."""
    ranges: List[Tuple[int, int]] = []
    extend = False  # the previous statement was unrun: grow its range
    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        if _ran(node, hits):
            extend = False
            for inner in _bodies(node):
                ranges.extend(unrun(inner, hits))
        elif extend:
            ranges[-1] = (ranges[-1][0], node.end_lineno)
        else:
            ranges.append((_first_line(node), node.end_lineno))
            extend = True
    return ranges


def covers(entry: str, function: Function) -> bool:
    module, _colon, qualname = entry.partition(":")
    if module != function.module:
        return False
    return not qualname or function.qualname == qualname or \
        function.qualname.startswith(qualname + ".")


def allowlist_entries() -> Iterator[Tuple[str, str, str]]:
    """``(group, entry, reason)`` for every allowlist entry."""
    for group, entries in ALLOWLIST.items():
        for entry, reason in entries.items():
            yield group, entry, reason


def _run_one(label: str, argv: List[str], env: Dict[str, str]) -> Tuple[str, int, float, str]:
    started = time.monotonic()
    done = subprocess.run([sys.executable, *argv], cwd=REPO_ROOT, env={**env, "REACH_LABEL": label},
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return label, done.returncode, time.monotonic() - started, done.stderr


def run(dumps: str) -> int:
    """Run every harness under the hook; 1 if any harness failed."""
    os.makedirs(dumps, exist_ok=True)
    for stale in os.listdir(dumps):
        if stale.endswith(".json"):
            os.remove(os.path.join(dumps, stale))
    with tempfile.TemporaryDirectory() as hook_dir:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([hook_dir, os.path.join(REPO_ROOT, "src")]),
               "REACH_SRC": SRC_ROOT, "REACH_DUMPS": os.path.abspath(dumps)}
        # which harnesses trace is the harness list's choice, not the caller's
        env.pop("REPRO_TRACE", None)
        failed = 0
        with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
            jobs = [pool.submit(_run_one, label, argv, env) for label, argv in HARNESSES]
            for job in jobs:
                label, status, seconds, stderr = job.result()
                print(f"{label:40s} exit {status}  {seconds:6.1f} s", flush=True)
                if status != 0:
                    failed += 1
                    print("\n".join(stderr.splitlines()[-20:]), file=sys.stderr)
    return 1 if failed else 0


class Reach(NamedTuple):
    functions: Set[Tuple[str, int, str]]  # ``(path, first line, name)`` that ran
    lines: Dict[str, Set[int]]  # path -> the lines that ran


def reached(dumps: str) -> Reach:
    seen = Reach(set(), defaultdict(set))
    for name in sorted(os.listdir(dumps)):
        if name.endswith(".json"):
            with open(os.path.join(dumps, name)) as handle:
                dump = json.load(handle)
            seen.functions.update((path, first, code) for path, first, code in dump["functions"])
            for path, lines in dump["lines"].items():
                seen.lines[path].update(lines)
    return seen


def report_lines(every: Sequence[Function], unreached: Set[Function],
                 lines: Dict[str, Set[int]]) -> None:
    """Print, per reached function, the line ranges of its statements that
    no harness ran (nested functions are listed on their own)."""
    by_module: Dict[str, List[Tuple[Function, List[Tuple[int, int]]]]] = defaultdict(list)
    for function in every:
        if function not in unreached:
            ranges = unrun(function.body, lines.get(function.path, set()))
            if ranges:
                by_module[function.path].append((function, ranges))
    rows = [row for path in sorted(by_module) for row in by_module[path]]
    total = sum(last - first + 1 for _function, ranges in rows for first, last in ranges)
    print()
    print(f"statements no harness ran inside reached functions: {len(rows)} functions, "
          f"{total} lines")
    for path in sorted(by_module):
        print(path)
        for function, ranges in by_module[path]:
            spans = ", ".join(str(first) if first == last else f"{first}-{last}"
                              for first, last in ranges)
            count = sum(last - first + 1 for first, last in ranges)
            print(f"  {count:4d}  {function.qualname}  (line {function.first}): {spans}")


def report(dumps: str, lines: bool = False) -> int:
    """Print the unreached functions (and with *lines* the unrun statements
    of reached ones); 1 if the ``--check`` conditions fail."""
    every = functions()
    seen = reached(dumps)
    if not seen.functions:
        print(f"no dumps in {dumps}: run `reach.py run` first", file=sys.stderr)
        return 1
    unreached = [f for f in every if (f.path, f.first, f.name) not in seen.functions]
    missed = set(unreached)
    excused: Set[Function] = set()
    group_lines: Dict[str, int] = defaultdict(int)
    errors: List[str] = []
    for group, entry, _reason in allowlist_entries():
        covered = [f for f in every if covers(entry, f)]
        if not covered:
            errors.append(f"allowlist entry {entry!r} names no function in src/repro")
            continue
        left = [f for f in covered if f in missed and f not in excused]
        if not any(f in missed for f in covered):
            errors.append(f"allowlist entry {entry!r} is stale: a harness reaches it")
        for function in left:
            excused.add(function)
            group_lines[group] += function.lines

    total = sum(f.lines for f in every)
    lost = sum(f.lines for f in unreached)
    outside = [f for f in unreached if f not in excused]
    outside_lines = sum(f.lines for f in outside)
    print(f"{len(every)} functions, {total} lines; harnesses reach "
          f"{len(every) - len(unreached)} functions ({total - lost} lines)")
    print(f"reached by no harness: {len(unreached)} functions ({lost} lines); "
          f"allowlisted {len(excused)} ({lost - outside_lines} lines), "
          f"outside the allowlist {len(outside)} ({outside_lines} lines; LIMIT {LIMIT})")
    print()
    print("allowlisted lines per group:")
    for group in ALLOWLIST:
        print(f"  {group_lines[group]:5d}  {group}")
    by_module: Dict[str, List[Function]] = defaultdict(list)
    for function in unreached:
        by_module[function.path].append(function)
    print()
    print("reached by no harness, per module (* = allowlisted):")
    for path in sorted(by_module):
        rows = by_module[path]
        print(f"{path}  ({len(rows)} functions, {sum(f.lines for f in rows)} lines)")
        for function in rows:
            mark = "*" if function in excused else " "
            print(f"  {mark} {function.lines:4d}  {function.qualname}  (line {function.first})")
    if lines:
        report_lines(every, missed, seen.lines)
    if outside_lines > LIMIT:
        errors.append(f"{outside_lines} unreached lines outside the allowlist > LIMIT {LIMIT}")
    for error in errors:
        print(f"reach: {error}", file=sys.stderr)
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=("run", "report"))
    parser.add_argument("--check", action="store_true",
                        help="run, then report; exit 1 on a failed harness or condition")
    parser.add_argument("--lines", action="store_true",
                        help="also list the statements no harness ran in reached functions")
    parser.add_argument("--dumps", default=DEFAULT_DUMPS,
                        help="directory of the per-process dumps (default: .reach/)")
    args = parser.parse_args(argv)
    if args.check:
        return run(args.dumps) | report(args.dumps, args.lines)
    if args.command == "run":
        return run(args.dumps)
    if args.command == "report":
        return report(args.dumps, args.lines)
    parser.error("give `run`, `report` or --check")
    return 2


if __name__ == "__main__":
    sys.exit(main())
