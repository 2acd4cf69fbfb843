"""The CI gate: ``src/repro`` must stay repro-lint clean.

This test is what turns repro-lint from advice into an invariant —
``PYTHONPATH=src python -m pytest`` fails the moment someone lands a
wall-clock call, an unseeded RNG, a hash-order fan-out, a swallowed
transport error, an unpaced retry loop, or a dropped deadline that is
not either fixed, pragma-justified in place, or consciously
grandfathered into ``lint-baseline.json``.
"""

import shutil

from repro.analysis import Analyzer, Baseline, FileContext, rule_names
from repro.analysis.baseline import DEFAULT_BASELINE_NAME
from tests.analysis.test_lint_clean_support import REPO_ROOT, SRC_REPRO


def _load_baseline() -> Baseline:
    path = REPO_ROOT / DEFAULT_BASELINE_NAME
    return Baseline.load(path) if path.exists() else Baseline()


def test_src_repro_has_no_new_findings():
    analyzer = Analyzer(root=REPO_ROOT)
    report = analyzer.run([SRC_REPRO])
    assert report.files_scanned > 80  # the scan really covered the tree
    assert not report.parse_errors, report.parse_errors
    new, _ = _load_baseline().split(report.findings)
    assert not new, "new repro-lint findings (fix, pragma, or baseline):\n" \
        + "\n".join(f.render() for f in new)


def test_every_pragma_names_a_registered_rule():
    """A pragma is recorded whatever it names, so one left behind by a
    renamed or deleted rule would suppress nothing and read as if it
    did."""
    known = set(rule_names()) | {"all"}
    dead = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        ctx = FileContext.parse(path.read_text(encoding="utf-8"),
                                path.relative_to(REPO_ROOT).as_posix())
        for lineno, rules in sorted(ctx.suppressions.items()):
            dead.extend(f"{ctx.rel_path}:{lineno}: {rule}"
                        for rule in sorted(rules - known))
    assert not dead, "pragmas naming no registered rule:\n" + "\n".join(dead)


def test_baseline_stays_near_empty():
    # grandfathering is for adoption, not a dumping ground: the
    # committed baseline must not quietly accumulate debt
    allowance = sum(_load_baseline().allowances.values())
    assert allowance <= 5, (
        f"lint-baseline.json grandfathers {allowance} findings; "
        "fix some before adding more")


def test_analysis_package_passes_its_own_lint():
    """The analyzer is scanned by its own rules — the linter must meet
    the determinism bar it enforces (its two perf_counter timing reads
    are pragma-justified in place, which this test also exercises).
    The auditor rides in the same gate: one project, so call chains
    crossing between the two packages resolve instead of dangling."""
    analyzer = Analyzer(root=REPO_ROOT)
    report = analyzer.run([SRC_REPRO / "analysis", SRC_REPRO / "audit"])
    assert report.files_scanned >= 16
    assert not report.parse_errors, report.parse_errors
    new, _ = _load_baseline().split(report.findings)
    assert not new, "\n".join(f.render() for f in new)
    assert report.suppressed >= 2   # the justified perf_counter reads


def test_migration_package_is_lint_clean():
    """The migration subsystem post-dates the linter, so it gets no
    grandfathering at all: zero findings, not zero *new* findings."""
    analyzer = Analyzer(root=REPO_ROOT)
    report = analyzer.run([SRC_REPRO / "migration"])
    assert report.files_scanned >= 6
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, "\n".join(f.render() for f in report.findings)


def test_audit_package_is_lint_clean():
    """The consistency auditor post-dates the linter too: zero findings
    — and implicitly, its LAYER_CONTRACT row (no simnet, no migration)
    holds for every import in the package."""
    analyzer = Analyzer(root=REPO_ROOT)
    report = analyzer.run([SRC_REPRO / "audit"])
    assert report.files_scanned >= 6
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, "\n".join(f.render() for f in report.findings)


def test_streams_package_is_lint_clean():
    """The stream-processing tier post-dates the linter: zero findings
    — and implicitly, its LAYER_CONTRACT row (kafka/helix/zookeeper
    only, never simnet) holds for every import in the package.  Its two
    single-writer offset updates in the poll loop are pragma-justified
    in place, which this gate also exercises."""
    analyzer = Analyzer(root=REPO_ROOT)
    report = analyzer.run([SRC_REPRO / "streams"])
    assert report.files_scanned >= 7
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, "\n".join(f.render() for f in report.findings)
    assert report.suppressed >= 1   # the justified poll-loop writes


def test_layering_contract_matches_reality():
    """The committed contract and the actual import graph agree —
    checked whole-repo, not per file, so a contract row nobody uses
    anymore is at least visible here while debugging."""
    import ast
    from repro.analysis.architecture import (
        build_import_graph, contract_violations)
    sources = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        sources.append((rel, ast.parse(path.read_text(encoding="utf-8"))))
    graph = build_import_graph(sources)
    assert len(graph) >= 10   # the sweep covered the packages
    assert contract_violations(graph) == []


def test_gate_catches_a_seeded_violation(tmp_path):
    """Prove the gate has teeth: plant a ``time.sleep`` in a copy of
    ``src/repro/kafka`` and watch the same analysis fail it."""
    seeded = tmp_path / "kafka"
    shutil.copytree(SRC_REPRO / "kafka", seeded)
    broker = seeded / "broker.py"
    broker.write_text(
        broker.read_text(encoding="utf-8")
        + "\n\nimport time\n\n\ndef _throttle():\n    time.sleep(0.01)\n",
        encoding="utf-8")
    report = Analyzer(root=tmp_path).run([seeded])
    new, _ = _load_baseline().split(report.findings)
    assert any(f.rule == "wall-clock" and f.path.endswith("broker.py")
               for f in new)
