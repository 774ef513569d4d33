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
    """Every staging is an admission query: the sweep is the one staging
    pass, and the resolver's restage fallback the one bare pass."""

    @staticmethod
    def calls(name: str):
        """``file:function`` of every call to an attribute *name* in src/."""
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
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == name
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

    def test_stage_many_has_two_callers(self):
        assert self.calls("_stage_many") == [
            "admission.py:_execute_sweep",
            "heaven.py:_resolve_tile",
        ]


class TestDeliverables:
    @pytest.mark.parametrize(
        "path",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml",
         "docs/ARCHITECTURE.md", "docs/QUERY_LANGUAGE.md"],
    )
    def test_file_exists(self, path):
        assert os.path.exists(os.path.join(REPO_ROOT, path)), path
