"""Shared helpers for the repro-lint test suite."""

import textwrap
import time
from dataclasses import dataclass

import pytest

from repro.analysis import Analyzer, all_rules
from repro.analysis.callgraph import Project
from repro.analysis.core import FileContext, LintReport
from repro.analysis.flow import _Builder
from tests.analysis.test_lint_clean_support import REPO_ROOT, SRC_REPRO


@dataclass(frozen=True)
class FullRun:
    """One full analysis of ``src/repro`` and what was measured on it."""

    analyzer: Analyzer
    report: LintReport
    seconds: float
    #: CFG builds per function node (``id`` of the ``FunctionDef``)
    cfg_builds: dict[int, int]


@pytest.fixture(scope="session")
def full_run() -> FullRun:
    """The full analysis of ``src/repro`` with every rule, run once per
    session: the lint gate, the CFG-once check and the budget each
    assert on this one run instead of paying for their own.  The run is
    timed in this thread's CPU time (the analyzer runs in one thread),
    so time a busy host gives to other processes does not count against
    the budget, and every CFG build during it is counted."""
    built: dict[int, int] = {}
    original = _Builder.build

    def counting_build(self):
        built[id(self.cfg.fn)] = built.get(id(self.cfg.fn), 0) + 1
        return original(self)

    analyzer = Analyzer(root=REPO_ROOT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Builder, "build", counting_build)
        started = time.thread_time()
        report = analyzer.run([SRC_REPRO])
        seconds = time.thread_time() - started
    return FullRun(analyzer, report, seconds, built)


def lint(source: str, rule: str | None = None,
         rel_path: str = "src/repro/pkg/mod.py") -> list:
    """Run the analyzer over a synthetic source string.

    ``rule`` restricts the run to one rule (the per-rule unit tests);
    None runs the full registry (the integration-style tests).
    """
    rules = all_rules()
    if rule is not None:
        rules = [r for r in rules if r.name == rule]
        assert rules, f"unknown rule {rule!r}"
    analyzer = Analyzer(rules=rules)
    return analyzer.check_source(textwrap.dedent(source), rel_path)


def project_of(files: dict[str, str]) -> Project:
    """Build a :class:`Project` from ``rel_path -> source`` pairs."""
    contexts = [FileContext.parse(textwrap.dedent(source), rel_path)
                for rel_path, source in files.items()]
    return Project(contexts)


def lint_project(files: dict[str, str], rule: str, tmp_path) -> list:
    """End-to-end analyzer run over synthetic files on disk, restricted
    to one project rule (exercises the pragma/suppression path)."""
    for rel_path, source in files.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = [r for r in all_rules() if r.name == rule]
    assert rules, f"unknown rule {rule!r}"
    analyzer = Analyzer(rules=rules, root=tmp_path)
    return analyzer.run([tmp_path]).findings
