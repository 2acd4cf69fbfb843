"""``python3 -m perfbench compare A.json B.json``: A is the parent.

One row per (end-to-end metric, workload), judged by the bound that
``BENCHMARK.json`` fixes for the metric:

* sim-clock metrics repeat exactly for the same seed and scale, so any
  move in the worse direction is a regression;
* timed metrics regress when B's median is worse than A's by more
  than the bound; when either side's own run-to-run spread (interquartile
  range over its median, given at least four runs) is wider than the
  bound the pair is ``unresolved``, not ``ok``.

More failed operations than the parent is always a regression.  Counts
from a traced run that differ are listed as ``changed`` for the reader;
they do not fail the comparison.  Comparing a file with itself, or two
sets of runs of one commit, is the A/A check.
"""

from __future__ import annotations

import json
import statistics

from perfbench import spec


def spread(runs: list[float]) -> float | None:
    """Interquartile range over the median, or None below four runs."""
    if len(runs) < 4:
        return None
    q1, _, q3 = statistics.quantiles(runs, n=4)
    median = statistics.median(runs)
    return (q3 - q1) / abs(median) if median else None


def judge(metric: dict, a: dict, b: dict, same_inputs: bool) -> str:
    """``ok``, ``improved``, ``regressed`` or ``unresolved`` for one
    end-to-end metric of one workload."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if worse_by == 0:
        return "ok"
    if spec.is_exact(metric["name"], metric["unit"]) and same_inputs:
        return "regressed" if worse_by > 0 else "improved"
    bound = metric["bound"]
    spreads = [s for s in (spread(a.get("runs", [])),
                           spread(b.get("runs", []))) if s is not None]
    if any(s > bound for s in spreads):
        return "unresolved"
    if worse_by > bound * abs(a["value"]):
        return "regressed"
    return "improved" if -worse_by > bound * abs(a["value"]) else "ok"


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison; returns the process exit code."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    metrics = spec.load()["end_to_end"]
    same_inputs = (a["meta"]["seed"] == b["meta"]["seed"]
                   and a["meta"]["scale"] == b["meta"]["scale"])
    regressions = 0
    print(f"{'workload':<20}{'metric':<14}{'A':>14}{'B':>14}  "
          f"{'change':>8}  status")
    for name, run_b in b["workloads"].items():
        run_a = a["workloads"].get(name)
        if run_a is None:
            continue
        for metric in metrics:
            va, vb = run_a["e2e"][metric["name"]], run_b["e2e"][metric["name"]]
            status = judge(metric, va, vb, same_inputs)
            regressions += status == "regressed"
            change = (vb["value"] / va["value"] - 1.0) if va["value"] else 0.0
            print(f"{name:<20}{metric['name']:<14}{va['value']:>14.6g}"
                  f"{vb['value']:>14.6g}  {change:>+8.2%}  {status}")
        if run_b["failed"] > run_a["failed"]:
            regressions += 1
            print(f"{name:<20}{'failed':<14}{run_a['failed']:>14}"
                  f"{run_b['failed']:>14}  {'':>8}  regressed")
        units = spec.per_layer_units()
        for key, vb in run_b.get("layers", {}).items():
            va = run_a.get("layers", {}).get(key)
            if same_inputs and va is not None and va != vb and \
                    spec.is_exact(key, units.get(key, "count")):
                print(f"{name:<20}{key}: {va:.6g} -> {vb:.6g}  changed")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
