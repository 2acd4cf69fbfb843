"""Performance budget: the full-repo analyzer run stays under 12 s.

The lint gate runs inside tier-1 CI on every change; the flow-based
rules build one CFG per function, the interprocedural pass adds
a repo-wide call graph plus SCC-ordered effect summaries, and the
atomicity pass walks per-method CFGs against the transitive
yield-point sets on top.  This test is the backstop that keeps that
affordable.  The budget is generous (the full run with all fifteen
rules takes ~2-4 s on a laptop) so the test is a tripwire for
accidental quadratic behaviour, not a benchmark.
"""

import time

from repro.analysis import Analyzer
from tests.analysis.test_lint_clean_support import REPO_ROOT, SRC_REPRO

BUDGET_SECONDS = 12.0


def test_full_repo_run_stays_under_budget():
    analyzer = Analyzer(root=REPO_ROOT)
    started = time.perf_counter()
    report = analyzer.run([SRC_REPRO])
    elapsed = time.perf_counter() - started
    assert report.files_scanned > 80
    # the budget covers the atomicity pass, not a reduced rule set
    assert {"atomicity-violation", "non-atomic-multi-write",
            "yield-in-atomic-section"} <= set(analyzer.rule_seconds)
    assert elapsed < BUDGET_SECONDS, (
        f"full-repo lint took {elapsed:.2f}s (budget {BUDGET_SECONDS}s); "
        "per-rule timings: " + ", ".join(
            f"{name}={seconds * 1000:.0f}ms"
            for name, seconds in sorted(analyzer.rule_seconds.items())))


def test_per_rule_timings_are_recorded():
    analyzer = Analyzer(root=REPO_ROOT)
    analyzer.run([SRC_REPRO / "common"])
    assert set(analyzer.rule_seconds) == {r.name for r in analyzer.rules}
    assert all(seconds >= 0.0 for seconds in analyzer.rule_seconds.values())
    assert sum(analyzer.rule_seconds.values()) > 0.0
