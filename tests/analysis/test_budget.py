"""Performance budget: the full-repo analyzer run stays under 12 s.

The lint gate runs inside tier-1 CI on every change; the flow-based
rules build one CFG per function, the interprocedural pass adds
a repo-wide call graph plus SCC-ordered effect summaries, and the
atomicity pass walks per-method CFGs against the transitive
yield-point sets on top.  This test is the backstop that keeps that
affordable.  The budget is generous (the full run with all fifteen
rules, CFG-build counter included, took 6.7-8.7 s across five tier-1
runs on a shared 2-core Xeon host under Python 3.11, so at least 3.3 s
of headroom) so the test is a tripwire for accidental quadratic
behaviour, not a benchmark.  The run is timed in CPU time of the
analyzing thread (``time.thread_time``), so a host that takes the CPU
away mid-run cannot fail it.

The run is the session's shared ``full_run`` (``conftest.py``): tier-1
analyzes all of ``src/repro`` once, and a guard here keeps it that way.
"""

import ast

from tests.analysis.test_lint_clean_support import REPO_ROOT

BUDGET_SECONDS = 12.0


def test_full_repo_run_stays_under_budget(full_run):
    analyzer, elapsed = full_run.analyzer, full_run.seconds
    assert full_run.report.files_scanned > 80
    # the budget covers the atomicity pass, not a reduced rule set
    assert {"atomicity-violation", "non-atomic-multi-write",
            "yield-in-atomic-section"} <= set(analyzer.rule_seconds)
    assert elapsed < BUDGET_SECONDS, (
        f"full-repo lint took {elapsed:.2f}s (budget {BUDGET_SECONDS}s); "
        "per-rule timings: " + ", ".join(
            f"{name}={seconds * 1000:.0f}ms"
            for name, seconds in sorted(analyzer.rule_seconds.items())))


def test_per_rule_timings_are_recorded(full_run):
    analyzer = full_run.analyzer
    assert set(analyzer.rule_seconds) == {r.name for r in analyzer.rules}
    assert all(seconds >= 0.0 for seconds in analyzer.rule_seconds.values())
    assert sum(analyzer.rule_seconds.values()) > 0.0


def _analyzes_all_of_src_repro(node: ast.AST) -> bool:
    """``<anything>.run([SRC_REPRO])`` — a run over a subtree such as
    ``SRC_REPRO / "streams"`` checks a different property and is fine."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.List)
            and len(node.args[0].elts) == 1
            and isinstance(node.args[0].elts[0], ast.Name)
            and node.args[0].elts[0].id == "SRC_REPRO")


def test_only_the_shared_fixture_analyzes_all_of_src_repro():
    """The full pass is the most expensive setup in tier-1, so it runs
    once, in the session fixture, and every test that needs it asserts
    on that run."""
    callers = set()
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "SRC_REPRO" not in source:
            continue
        tree = ast.parse(source)
        if any(_analyzes_all_of_src_repro(node) for node in ast.walk(tree)):
            callers.add(path.relative_to(REPO_ROOT).as_posix())
    assert callers == {"tests/analysis/conftest.py"}
