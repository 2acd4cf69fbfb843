"""Multi-frame findings render in both reporter formats."""

import json

from repro.analysis.core import Finding, Frame, LintReport
from repro.analysis.reporters import render_json, render_text
from repro.common.metrics import MetricsRegistry

CHAIN = (
    Frame(path="src/repro/pkg/mod.py", line=12,
          caller="repro.pkg.mod.Client.flush",
          callee="repro.pkg.mod.Client._push"),
    Frame(path="src/repro/pkg/mod.py", line=6,
          caller="repro.pkg.mod.Client._push", callee="<invoke>"),
)

FINDING = Finding(
    rule="unbounded-rpc", path="src/repro/pkg/mod.py", line=12, col=0,
    message="flush() holds a deadline but calls _push without it",
    snippet="self._push(key)", end_line=12, chain=CHAIN)


def report_of():
    report = LintReport()
    report.files_scanned = 1
    report.findings = [FINDING]
    return report


def test_text_reporter_renders_each_frame():
    text = render_text(report_of(), [FINDING], [])
    assert "via src/repro/pkg/mod.py:12: " \
        "repro.pkg.mod.Client.flush -> repro.pkg.mod.Client._push" in text
    assert "via src/repro/pkg/mod.py:6: " \
        "repro.pkg.mod.Client._push -> <invoke>" in text


def test_json_reporter_encodes_the_chain():
    payload = json.loads(render_json(
        report_of(), [FINDING], [], MetricsRegistry()))
    chain = payload["new"][0]["chain"]
    assert chain == [
        {"path": "src/repro/pkg/mod.py", "line": 12,
         "caller": "repro.pkg.mod.Client.flush",
         "callee": "repro.pkg.mod.Client._push"},
        {"path": "src/repro/pkg/mod.py", "line": 6,
         "caller": "repro.pkg.mod.Client._push", "callee": "<invoke>"},
    ]


def test_json_reporter_omits_empty_chains():
    plain = Finding(rule="wall-clock", path="a.py", line=1, col=0,
                    message="m", snippet="s")
    report = LintReport()
    report.files_scanned = 1
    report.findings = [plain]
    payload = json.loads(render_json(report, [plain], [],
                                     MetricsRegistry()))
    assert "chain" not in payload["new"][0]
