"""Human and JSON reporters for repro-lint runs.

Both reporters consume the same inputs — the :class:`LintReport`, the
baseline split, and the analyzer's metrics snapshot — so the CI gate,
the CLI, and any dashboard read one source of truth.  Output ordering
is fully deterministic (files, then lines) because the lint tool has
to pass its own determinism bar.
"""

from __future__ import annotations

import json
from itertools import groupby

from repro.analysis.core import Finding, LintReport, Rule
from repro.common.metrics import MetricsRegistry


def render_text(report: LintReport, new: list[Finding],
                grandfathered: list[Finding],
                rules: list[Rule] | None = None) -> str:
    """Grouped-by-file report, new findings first."""
    out: list[str] = []
    if new:
        out.append(f"{len(new)} new finding(s):")
        for path, group in groupby(new, key=lambda f: f.path):
            out.append(f"  {path}")
            for finding in group:
                out.append(f"    {finding.line}:{finding.col} "
                           f"[{finding.rule}] {finding.message}")
                for frame in finding.chain:
                    out.append(f"      via {frame.render()}")
    if grandfathered:
        out.append(f"{len(grandfathered)} baselined finding(s) "
                   "(grandfathered, not gating):")
        for finding in grandfathered:
            out.append(f"  {finding.render()}")
    for error in report.parse_errors:
        out.append(f"parse error: {error}")
    out.append(
        f"scanned {report.files_scanned} file(s): "
        f"{len(new)} new, {len(grandfathered)} baselined, "
        f"{report.suppressed} suppressed by pragma")
    if not new and not report.parse_errors:
        out.append("repro-lint: clean")
    return "\n".join(out)


def render_json(report: LintReport, new: list[Finding],
                grandfathered: list[Finding],
                metrics: MetricsRegistry,
                stats: dict | None = None) -> str:
    def encode(finding: Finding) -> dict:
        payload = {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
            "fingerprint": finding.fingerprint(),
        }
        if finding.chain:
            payload["chain"] = [
                {"path": frame.path, "line": frame.line,
                 "caller": frame.caller, "callee": frame.callee}
                for frame in finding.chain]
        return payload

    payload = {
        "files_scanned": report.files_scanned,
        "new": [encode(f) for f in new],
        "baselined": [encode(f) for f in grandfathered],
        "suppressed": report.suppressed,
        "parse_errors": report.parse_errors,
        "counters": {name: counter.value
                     for name, counter in sorted(metrics.counters.items())},
        "clean": not new and not report.parse_errors,
    }
    if stats is not None:
        payload["stats"] = stats
    return json.dumps(payload, indent=2, sort_keys=True)


def render_stats(rule_seconds: dict[str, float],
                 rule_findings: dict[str, int],
                 files_scanned: int, build_seconds: float) -> str:
    """Per-rule timing/finding table for ``--stats``, with the shared
    project build (call graph and summaries) as a row of its own."""
    out = [f"per-rule stats over {files_scanned} file(s):"]
    width = max((len(name) for name in rule_seconds), default=4)
    for name in sorted(rule_seconds):
        millis = rule_seconds[name] * 1000.0
        count = rule_findings.get(name, 0)
        out.append(f"  {name:<{width}}  {millis:8.1f} ms  "
                   f"{count} finding(s)")
    out.append(f"  {'project build':<{width}}  "
               f"{build_seconds * 1000.0:8.1f} ms")
    total = (sum(rule_seconds.values()) + build_seconds) * 1000.0
    out.append(f"  {'total':<{width}}  {total:8.1f} ms")
    return "\n".join(out)


def stats_payload(rule_seconds: dict[str, float],
                  rule_findings: dict[str, int],
                  build_seconds: float) -> dict:
    """The ``--stats`` section of the JSON report."""
    seconds = {**rule_seconds, "project build": build_seconds}
    return {
        name: {"ms": round(seconds[name] * 1000.0, 3),
               "findings": rule_findings.get(name, 0)}
        for name in sorted(seconds)
    }


def render_rule_list(rules: list[Rule]) -> str:
    out = []
    for rule in rules:
        out.append(f"{rule.name}: {rule.summary}")
        if rule.rationale:
            out.append(f"    {rule.rationale}")
    return "\n".join(out)
