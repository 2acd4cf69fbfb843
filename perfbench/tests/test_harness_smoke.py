"""Smoke test of the benchmark harness itself.

Run with ``pytest perfbench/tests``.  Every workload runs at 1/50 scale,
untraced and traced; what is checked is the harness's own contract —
declared names, span accounting, wrapper hygiene, the comparison — not
any performance number.
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, spec
from perfbench.compare import compare
from perfbench.tracer import installed_wrappers

DECLARED = spec.load()
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SCALE = 1 / 50


def _cli(*args, cwd=spec.ROOT):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, capture_output=True, text=True)


def test_harness_and_declaration_name_the_same_workloads():
    assert sorted(harness.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_exactly_the_declared_metrics(name):
    result = harness.run_untraced(name, seed=0, scale=SCALE)
    assert set(result["e2e"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(value > 0 for value in result["e2e"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(name):
    result = harness.run_traced(name, seed=0, scale=SCALE)
    layers = result["layers"]
    assert set(layers) == {m["name"] for m in DECLARED["per_layer"]}
    assert set(layers) == set(spec.per_layer_units())
    assert result["missing_entry_points"] == []
    self_s = sum(value for key, value in layers.items()
                 if key.endswith(".self_s"))
    assert self_s == pytest.approx(layers["bench.traced_wall_s"], rel=0.05)
    assert layers["bench.spans"] > result["steps"]
    assert installed_wrappers() == 0


def test_multiget_never_touches_the_disk_and_rw_does():
    multiget = harness.run_traced("voldemort-multiget", 0, SCALE)["layers"]
    assert multiget["simnet.disk.calls"] == 0
    assert multiget["voldemort.routing.siblings_max"] > 1
    rw = harness.run_traced("voldemort-rw", 0, SCALE)["layers"]
    assert rw["simnet.disk.fsyncs_per_op"] > 0


def test_same_seed_runs_repeat_sim_metrics_and_counts_exactly():
    first = harness.run_untraced("espresso-cdc", 3, SCALE, setup_repeats=1)
    second = harness.run_untraced("espresso-cdc", 3, SCALE, setup_repeats=1)
    for key in ("attempted", "ops", "sim_samples"):
        assert first[key] == second[key]
    for metric in ("sim_p50_ms", "sim_p99_ms"):
        assert first["e2e"][metric] == second["e2e"][metric]


def test_once_prints_the_contract_object_on_its_last_line():
    done = _cli("once", "--workload", "kafka-pubsub", "--seed", "1",
                "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == \
        [m["name"] for m in DECLARED["end_to_end"]]
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_once_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _cli("once", "--workload", "kafka-pubsub", "--seed", "0",
                "--seconds", "0.1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_of_a_file_against_itself_is_all_ok(tmp_path, capsys):
    path = str(tmp_path / "BENCH_all.json")
    done = _cli("run", "--scale", str(SCALE), "--trace", "--out", path)
    assert done.returncode == 0, done.stderr
    bench = json.loads(open(path).read())
    assert bench["claim"] is None and sorted(bench["workloads"]) == \
        sorted(WORKLOADS)
    assert compare(path, path) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert rows and all(line.endswith("ok") for line in rows)
