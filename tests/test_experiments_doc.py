"""EXPERIMENTS.md, DESIGN.md's experiment index and the suite cannot
drift: every ``EXP-``/``FIG-`` row names tests that exist and harness
metrics that ``BENCHMARK.json`` declares."""

import ast
import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)::(?:\w+::)?(\w+)`")
HARNESS_METRIC = re.compile(r"`([a-z-]+):([\w.]+)`")   # `workload:metric`


def experiment_rows(document: str) -> list[str]:
    return [line for line in (ROOT / document).read_text().splitlines()
            if re.match(r"\| (EXP|FIG)-", line)]


def defines(path: str, function: str) -> bool:
    tree = ast.parse((ROOT / path).read_text())
    return any(isinstance(node, ast.FunctionDef) and node.name == function
               for node in ast.walk(tree))


def test_every_experiment_row_is_asserted_by_a_test_that_exists():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"]
               for m in declared["end_to_end"] + declared["per_layer"]}
    assert len(experiment_rows("EXPERIMENTS.md")) == 46
    for row in experiment_rows("EXPERIMENTS.md") + experiment_rows("DESIGN.md"):
        assert not re.search(r"bench(marks/|_\w+\.py)", row), row
        cited = TEST_ID.findall(row)
        assert cited, f"no tests/...py::test_name in: {row}"
        for path, function in cited:
            assert defines(path, function), f"{path}::{function} is gone"
        for workload, metric in HARNESS_METRIC.findall(row):
            assert workload in workloads and metric in metrics, row


def test_disk_backed_experiments_are_deterministic_by_construction():
    for path in sorted((ROOT / "tests" / "experiments").glob("test_*.py")):
        source = path.read_text()
        for banned in ("import time", "benchmark", "tmp_path", "LocalDisk"):
            assert banned not in source, f"{path.name} uses {banned}"
        # a second run in one process must land on the same pinned figures
        module = importlib.import_module(f"tests.experiments.{path.stem}")
        for name, function in vars(module).items():
            if name.startswith("test_"):
                function()
