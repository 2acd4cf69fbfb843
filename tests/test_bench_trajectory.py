"""The benchmark trajectory: one committed row per performance claim.

``BENCH_trajectory.json`` at the repo root holds a row for every claim
a change made on the benchmark: the claiming PR and its commit, the
workload and end-to-end metric, the parent's and the change's medians,
and where those medians come from (``CHANGES.md`` for a change's own
measured paragraph, ``merge-check`` for the paired runs the benchmark
was checked with when the change merged).  A claim without a row is not
a claim: every ``perf_opt`` entry in CHANGES.md numbered ``FIRST_PR``
or later must have one.  A change writes its own row before it has a
commit, so the newest row alone may name none (``null``); the next
change fills it in.  ``BENCHMARK.json`` is read, never written.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {"pr", "commit", "workload", "metric", "parent", "change", "source"}
#: the first PR whose claims the file must hold (earlier ones are
#: still being back-filled)
FIRST_PR = 35
_PERF_ENTRY = re.compile(r"^- \*\*PR (\d+) \(perf_opt\)", re.MULTILINE)


def _rows() -> list[dict]:
    return json.loads((ROOT / "BENCH_trajectory.json").read_text())


def test_every_row_is_complete():
    rows = _rows()
    assert rows
    for row in rows:
        assert set(row) == FIELDS, row
        if row["commit"] is None:
            assert row is rows[-1] and row["pr"] == max(
                other["pr"] for other in rows), row
        else:
            assert re.fullmatch(r"[0-9a-f]{7,40}", row["commit"]), row
        assert row["source"] in ("CHANGES.md", "merge-check"), row


def test_every_perf_claim_since_the_first_pr_has_a_row():
    claims = {int(pr) for pr in _PERF_ENTRY.findall(
        (ROOT / "CHANGES.md").read_text(encoding="utf-8"))}
    assert {pr for pr in claims if pr >= FIRST_PR} \
        <= {row["pr"] for row in _rows()}


def test_every_row_moves_a_benchmark_metric_the_better_way():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for row in _rows():
        assert row["workload"] in workloads, row
        assert row["metric"] in better, row
        if better[row["metric"]] == "higher":
            assert row["change"] > row["parent"], row
        else:
            assert row["change"] < row["parent"], row
