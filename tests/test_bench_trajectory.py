"""The committed perf trajectory: every ``BENCH_<NN>_<slug>.json`` at the
repo root is a whole ``run.py --all`` result set that names its seed and
commit and was correct on every workload, and ``scripts/trajectory.py``
prints it."""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_trajectory():
    path = os.path.join(REPO_ROOT, "scripts", "trajectory.py")
    spec = importlib.util.spec_from_file_location("trajectory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trajectory = _load_trajectory()
SETS = trajectory.committed()
with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    WORKLOADS = {workload["name"] for workload in json.load(handle)["workloads"]}


def test_the_trajectory_is_not_empty():
    assert SETS, "no BENCH_*.json at the repo root"


@pytest.mark.parametrize("number, name, result", SETS, ids=[name for _, name, _ in SETS])
def test_every_committed_set_names_its_seed_and_commit_and_is_correct(number, name, result):
    context = result["context"]
    assert isinstance(context["seed"], int)
    assert trajectory.COMMIT_RE.match(context["commit"]), context["commit"]
    assert set(result["workloads"]) == WORKLOADS
    for workload, entry in result["workloads"].items():
        assert entry["runs"], f"{name}: {workload} has no untraced run"
        for run in entry["runs"] + [entry["per_layer"]]:
            assert run["correct"] is True and run["failed"] == 0, f"{name}: {workload}"


def test_trajectory_prints_every_set_in_order(capsys):
    assert trajectory.main(["--workload", "ingest_update", "--metric", "stored_ratio"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["ingest_update"] + [str(number) for number, _, _ in SETS]
    assert lines[1].split()[1:] == [trajectory.short(r["context"]["commit"]) for _, _, r in SETS]
    assert lines[2].split()[0] == "stored_ratio" and len(lines) == 3


def test_stamp_names_the_commit(tmp_path):
    source = tmp_path / "run.json"
    source.write_text(json.dumps({"context": {"seed": 1}, "workloads": {}}))
    target = trajectory.stamp(str(source), "BENCH_7_x.json", "abcdef1+", root=str(tmp_path))
    assert json.loads(open(target).read())["context"] == {"seed": 1, "commit": "abcdef1+"}
    with pytest.raises(ValueError):
        trajectory.stamp(str(source), "bench.json", "abcdef1", root=str(tmp_path))
    with pytest.raises(ValueError):
        trajectory.stamp(str(source), "BENCH_7_x.json", "HEAD", root=str(tmp_path))
