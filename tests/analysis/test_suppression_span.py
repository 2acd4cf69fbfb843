"""Pragma suppression over multi-line statements and call chains.

A finding anchors on its node's *first* line, but a trailing pragma
comment naturally lands on whatever line the statement ends on — so
suppression checks the whole node span, not just the anchor line.  An
interprocedural finding is additionally silenced by a pragma on any
frame of its chain.
"""

from repro.analysis import Analyzer
from tests.analysis.conftest import lint


def test_pragma_on_last_line_of_multiline_call_suppresses():
    findings = lint("""
        import time

        def slow(self):
            time.sleep(
                self.interval,
            )  # repro-lint: disable=wall-clock
    """)
    assert [f for f in findings if f.rule == "wall-clock"] == []


def test_pragma_on_anchor_line_still_works():
    findings = lint("""
        import time

        def slow(self):
            time.sleep(  # repro-lint: disable=wall-clock
                self.interval,
            )
    """)
    assert [f for f in findings if f.rule == "wall-clock"] == []


def test_pragma_on_middle_line_of_span_suppresses():
    findings = lint("""
        import time

        def slow(self):
            time.sleep(
                self.interval,  # repro-lint: disable=wall-clock
            )
    """)
    assert [f for f in findings if f.rule == "wall-clock"] == []


def test_pragma_outside_the_span_does_not_suppress():
    findings = lint("""
        import time

        def slow(self):
            # repro-lint: disable=wall-clock
            time.sleep(self.interval)
    """)
    assert [f.rule for f in findings if f.rule == "wall-clock"] == ["wall-clock"]


def test_pragma_for_a_different_rule_does_not_suppress():
    findings = lint("""
        import time

        def slow(self):
            time.sleep(
                self.interval,
            )  # repro-lint: disable=unseeded-random
    """)
    assert [f.rule for f in findings if f.rule == "wall-clock"] == ["wall-clock"]


def test_multiline_import_pragma_suppresses_layering():
    findings = lint("""
        from repro.voldemort.server import (
            VoldemortServer,
        )  # repro-lint: disable=layering-contract
    """, rel_path="src/repro/kafka/bridge.py")
    assert [f for f in findings if f.rule == "layering-contract"] == []


def test_finding_records_its_span():
    findings = lint("""
        import time

        def slow(self):
            time.sleep(
                self.interval,
            )
    """)
    [finding] = [f for f in findings if f.rule == "wall-clock"]
    assert finding.end_line >= finding.line + 2


RACY = """\
class Node:
    def __init__(self, clock):
        self.clock = clock
        self.progress = 0

    def _pump(self):
        self.clock.sleep(1.0){pragma}

    def advance(self, n):
        cur = self.progress
        self._pump()
        self.progress = cur + n
"""


def test_chain_frame_pragma_suppresses_project_finding(tmp_path):
    """A pragma on a *chain frame* line (here the yield inside the
    helper, not the store the finding anchors on) suppresses an
    interprocedural finding."""
    mod = tmp_path / "src" / "repro" / "pkg" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(RACY.format(pragma=""), encoding="utf-8")
    convicted = Analyzer(root=tmp_path).run([tmp_path])
    assert any(f.rule == "atomicity-violation" for f in convicted.findings)

    mod.write_text(RACY.format(
        pragma="  # repro-lint: disable=atomicity-violation"),
        encoding="utf-8")
    suppressed = Analyzer(root=tmp_path).run([tmp_path])
    assert not any(f.rule == "atomicity-violation"
                   for f in suppressed.findings)
    assert suppressed.suppressed == convicted.suppressed + 1
