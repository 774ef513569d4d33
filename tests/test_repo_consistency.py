"""Repository self-consistency checks.

Keeps the documentation honest: every experiment DESIGN.md promises has a
benchmark module, every example the README lists exists and is runnable
Python, and the public API exports resolve.
"""

import ast
import importlib
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path: str) -> str:
    with open(os.path.join(REPO_ROOT, path)) as handle:
        return handle.read()


class TestExperimentIndex:
    def test_every_design_bench_target_exists(self):
        design = read("DESIGN.md")
        targets = set(re.findall(r"`(bench_[a-z0-9_]+\.py)`", design))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            path = os.path.join(REPO_ROOT, "benchmarks", target)
            assert os.path.exists(path), f"DESIGN.md references missing {target}"

    def test_every_bench_module_has_a_test_function(self):
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        modules = [
            name for name in os.listdir(bench_dir) if name.startswith("bench_")
        ]
        assert len(modules) >= 20
        for name in modules:
            tree = ast.parse(read(os.path.join("benchmarks", name)))
            test_functions = [
                node.name
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
            ]
            assert test_functions, f"{name} has no test function"

    def test_result_tables_match_experiments_and_docs(self):
        """Every table an experiment writes is committed (CI diffs the
        directory after running them all), none is an orphan, and
        EXPERIMENTS.md cites exactly the committed set."""
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        sources = "".join(
            read(os.path.join("benchmarks", name))
            for name in os.listdir(bench_dir)
            if name.startswith("bench_") and name.endswith(".py")
        )
        reported = set(re.findall(r'report_table\(\s*"([a-z0-9_]+)"', sources))
        committed = {
            name[: -len(".txt")]
            for name in os.listdir(os.path.join(bench_dir, "results"))
            if name.endswith(".txt")
        }
        cited = set(re.findall(r"`([a-z0-9_]+)\.txt`", read("EXPERIMENTS.md")))
        assert reported == committed
        assert cited == committed

    def test_experiments_md_covers_e1_to_e13(self):
        experiments = read("EXPERIMENTS.md")
        for number in range(1, 14):
            assert f"## E{number} " in experiments or f"## E{number}—" in experiments or f"## E{number} —" in experiments, (
                f"EXPERIMENTS.md misses E{number}"
            )


class TestExamples:
    def test_readme_examples_exist(self):
        readme = read("README.md")
        listed = re.findall(r"python (examples/[a-z_]+\.py)", readme)
        assert len(set(listed)) >= 4
        for example in listed:
            assert os.path.exists(os.path.join(REPO_ROOT, example)), example

    def test_examples_are_valid_python_with_main(self):
        examples_dir = os.path.join(REPO_ROOT, "examples")
        files = [f for f in os.listdir(examples_dir) if f.endswith(".py")]
        assert len(files) >= 4
        for name in files:
            tree = ast.parse(read(os.path.join("examples", name)))
            functions = [
                node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            ]
            assert "main" in functions, f"{name} has no main()"

    def test_quickstart_exists(self):
        assert os.path.exists(os.path.join(REPO_ROOT, "examples", "quickstart.py"))


class TestPublicAPI:
    @pytest.mark.parametrize(
        "module_name",
        ["repro", "repro.arrays", "repro.core", "repro.dbms",
         "repro.tertiary", "repro.workloads", "repro.bench"],
    )
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version_declared(self):
        import repro

        assert re.match(r"\d+\.\d+\.\d+", repro.__version__)


class TestPayloadDecision:
    #: "sizes only" is decided once, at ingest, by ArrayStorage: config.py
    #: holds the knob, heaven.py hands it to ArrayStorage, and cli.py picks
    #: it for its scenario rows and the export command.  Every layer below
    #: stores what it is handed (None bytes mean sizes only).
    ALLOWED = {"core/config.py", "core/heaven.py", "arrays/storage.py", "cli.py"}

    def test_retain_payload_stays_at_the_ingest_decision(self):
        package = os.path.join(REPO_ROOT, "src", "repro")
        mentions = set()
        for dirpath, _dirs, files in os.walk(package):
            for name in files:
                path = os.path.join(dirpath, name)
                if name.endswith(".py") and "retain_payload" in read(path):
                    mentions.add(os.path.relpath(path, package).replace(os.sep, "/"))
        assert "arrays/storage.py" in mentions
        assert mentions <= self.ALLOWED, sorted(mentions - self.ALLOWED)


class TestOneReadDriver:
    """Every read is an admission query, and one builder writes its report."""

    def test_retrieval_report_is_built_in_one_place(self):
        package = os.path.join(REPO_ROOT, "src", "repro")
        sites = []
        for dirpath, _dirs, files in os.walk(package):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                for number, line in enumerate(read(path).splitlines(), 1):
                    if "RetrievalReport(" in line:
                        sites.append(f"{os.path.relpath(path, package)}:{number}")
        assert len(sites) == 1, sites

    def test_sub_read_stats_have_no_shared_flag(self):
        from dataclasses import fields

        from repro.core.units import SubReadStats

        assert "shared" not in {f.name for f in fields(SubReadStats)}


class TestOneStagingDriver:
    """Every staging is an admission query, the sweep is the one staging
    pass, and the pass lives in one module, ``core/staging.py``."""

    CORE = os.path.join(REPO_ROOT, "src", "repro", "core")

    @staticmethod
    def calls(name: str):
        """``file:function`` of every call to *name* (bare or as an
        attribute) in src/."""
        package = os.path.join(REPO_ROOT, "src", "repro")
        sites = []
        for dirpath, _dirs, files in os.walk(package):
            for file_name in files:
                if not file_name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, file_name)
                tree = ast.parse(read(path))
                for function in ast.walk(tree):
                    if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    for node in ast.walk(function):
                        if isinstance(node, ast.Call) and name in (
                            getattr(node.func, "attr", None),
                            getattr(node.func, "id", None),
                        ):
                            sites.append(f"{file_name}:{function.name}")
        return sorted(set(sites))

    def test_no_second_staging_entry(self):
        package = os.path.join(REPO_ROOT, "src", "repro")
        for dirpath, _dirs, files in os.walk(package):
            for name in files:
                if name.endswith(".py"):
                    text = read(os.path.join(dirpath, name))
                    assert not re.search(r"\b_staged\(", text), name

    def test_stage_sweep_has_one_caller(self):
        assert self.calls("stage_sweep") == ["admission.py:_execute_sweep"]
        assert self.calls("_stage_many") == []

    def test_no_active_ticket(self):
        package = os.path.join(REPO_ROOT, "src", "repro")
        for dirpath, _dirs, files in os.walk(package):
            for name in files:
                if name.endswith(".py"):
                    assert "_active_ticket" not in read(os.path.join(dirpath, name)), name

    @pytest.mark.parametrize("module", ["admission.py", "staging.py"])
    def test_no_run_time_import_of_heaven(self, module):
        """Both import ``heaven`` for annotations only, under
        ``TYPE_CHECKING``; ``heaven`` imports them at module top."""
        tree = ast.parse(read(os.path.join(self.CORE, module)))
        guarded = {
            id(node)
            for block in tree.body
            if isinstance(block, ast.If) and getattr(block.test, "id", None) == "TYPE_CHECKING"
            for node in ast.walk(block)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in guarded:
                modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any(m.endswith("heaven") for m in modules), (module, node.lineno)

    def test_heaven_module_stays_a_facade(self):
        from repro.core.heaven import Heaven

        with open(os.path.join(self.CORE, "heaven.py")) as handle:
            assert len(handle.readlines()) < 900
        assert Heaven.__mro__ == (Heaven, object)


class TestOneOwnerPerFact:
    """Each catalog or staging fact has one owner: the staged run its
    disk-cache entry, a tile's on-tape size its extent, a segment's medium
    the library, a request's queries ``query_ids``, an object's collection
    the storage catalog."""

    def test_archived_object_holds_only_durable_facts(self):
        from dataclasses import fields

        from repro.core.heaven import ArchivedObject

        names = [f.name for f in fields(ArchivedObject)]
        assert names == ["mdd", "super_tiles", "tile_to_st", "disk_copy", "version"]

    def test_no_duplicate_fields(self):
        from dataclasses import fields

        from repro.core.scheduler import TapeRequest
        from repro.core.super_tile import SuperTile

        assert "medium_id" not in {f.name for f in fields(SuperTile)}
        assert "query_id" not in {f.name for f in fields(TapeRequest)}

    def test_disk_cache_has_no_eviction_hook(self):
        import inspect

        from repro.core.cache import DiskCache

        assert "on_evict" not in inspect.signature(DiskCache.__init__).parameters

    @pytest.mark.parametrize(
        "name", ["staged_runs", "on_cache_evict", "sharing_queries", "storage._collections"]
    )
    def test_copy_is_gone_from_core(self, name):
        core = os.path.join(REPO_ROOT, "src", "repro", "core")
        for file_name in sorted(os.listdir(core)):
            if file_name.endswith(".py"):
                assert name not in read(os.path.join(core, file_name)), file_name


class TestDeliverables:
    @pytest.mark.parametrize(
        "path",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml",
         "docs/ARCHITECTURE.md", "docs/QUERY_LANGUAGE.md"],
    )
    def test_file_exists(self, path):
        assert os.path.exists(os.path.join(REPO_ROOT, path)), path


def _load_reach():
    """``scripts/reach.py`` as a module (it is a script, not a package)."""
    import importlib.util

    path = os.path.join(REPO_ROOT, "scripts", "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReachAudit:
    """The reach audit's lists stay in step with the tree.  Nothing here
    runs a harness: ``python scripts/reach.py --check`` does (CI's
    ``reach`` job)."""

    def test_allowlist_entries_name_functions_and_give_reasons(self):
        reach = _load_reach()
        functions = reach.functions()
        entries = list(reach.allowlist_entries())
        assert entries
        for _group, entry, reason in entries:
            assert reason.strip(), f"allowlist entry {entry} has no reason"
            assert any(reach.covers(entry, function) for function in functions), (
                f"allowlist entry {entry} names no function in src/repro"
            )

    def test_harness_paths_exist(self):
        reach = _load_reach()
        paths = [arg for _label, argv in reach.HARNESSES for arg in argv
                 if arg.endswith(".py") or arg == "benchmarks"]
        assert "scripts/simtest_digests.py" in paths
        assert "benchmarks/e2e_layers/run.py" in paths
        for path in paths:
            assert os.path.exists(os.path.join(REPO_ROOT, path)), path

    def test_every_example_and_cli_command_is_a_harness(self):
        import argparse

        from repro.cli import build_parser

        reach = _load_reach()
        examples = os.listdir(os.path.join(REPO_ROOT, "examples"))
        assert sorted(reach.EXAMPLES) == sorted(n for n in examples if n.endswith(".py"))
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert sorted(reach.CLI_COMMANDS) == sorted(commands)
