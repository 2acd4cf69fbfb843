"""Command-line front end: ``python -m repro.analysis`` / ``repro-lint``.

Exit status is the CI contract: 0 when every finding is baselined or
suppressed, 1 when new findings (or parse errors) exist, 2 for usage
errors.  Typical invocations::

    python -m repro.analysis src/repro            # human report
    python -m repro.analysis src/repro --json     # machine report
    python -m repro.analysis --rule layering-contract --stats
    repro-lint src/repro --baseline               # gate against lint-baseline.json
    repro-lint src/repro --write-baseline         # grandfather current findings
    repro-lint src/repro --update-baseline        # shrink allowances, add nothing
    repro-lint --list-rules

``--write-baseline`` records the current findings wholesale (adoption
time); ``--update-baseline`` is the ratchet for everyone after — it
only ever *shrinks* per-fingerprint allowances toward the current
count and drops fixed entries, so the debt curve is monotone down and
a regression can never be baselined by accident.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.core import Analyzer, all_rules, rule_names
from repro.analysis.reporters import (
    render_json,
    render_rule_list,
    render_stats,
    render_text,
    stats_payload,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism & resilience lint for the "
                    "LinkedIn-paper reproduction")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to scan "
                             "(default: src/repro)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report "
                             "(alias for --format=json)")
    parser.add_argument("--format", choices=["text", "json"],
                        default=None, help="report format")
    parser.add_argument("--baseline", nargs="?", const=DEFAULT_BASELINE_NAME,
                        default=None, metavar="PATH",
                        help="grandfather findings recorded in PATH "
                             f"(default: {DEFAULT_BASELINE_NAME})")
    parser.add_argument("--write-baseline", nargs="?",
                        const=DEFAULT_BASELINE_NAME, default=None,
                        metavar="PATH",
                        help="record current findings as the new baseline "
                             "and exit 0")
    parser.add_argument("--update-baseline", nargs="?",
                        const=DEFAULT_BASELINE_NAME, default=None,
                        metavar="PATH",
                        help="shrink baseline allowances to the current "
                             "counts (drops fixed findings, never adds "
                             "new ones) and gate against the result")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE", help="skip a rule (repeatable)")
    parser.add_argument("--rule", action="append", default=[],
                        metavar="RULE",
                        help="run only this rule (repeatable)")
    parser.add_argument("--stats", action="store_true",
                        help="report per-rule timing and finding counts")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe the registered rules and exit")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="directory report paths are relative to "
                             "(default: current directory)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    known = set(rule_names())
    for name in [*args.disable, *args.rule]:
        if name not in known:
            print(f"repro-lint: unknown rule {name!r} "
                  f"(known: {', '.join(sorted(known))})", file=sys.stderr)
            return 2
    if args.write_baseline is not None and args.update_baseline is not None:
        print("repro-lint: --write-baseline and --update-baseline are "
              "mutually exclusive", file=sys.stderr)
        return 2
    rules = [rule for rule in all_rules() if rule.name not in args.disable]
    if args.rule:
        rules = [rule for rule in rules if rule.name in args.rule]

    if args.list_rules:
        print(render_rule_list(rules))
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro-lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.json and args.format not in (None, "json"):
        print("repro-lint: --json conflicts with "
              f"--format={args.format}", file=sys.stderr)
        return 2
    output = args.format or ("json" if args.json else "text")

    analyzer = Analyzer(rules=rules, root=args.root)
    report = analyzer.run(args.paths)

    if args.write_baseline is not None:
        Baseline.from_findings(report.findings).save(args.write_baseline)
        print(f"repro-lint: wrote {len(report.findings)} finding(s) to "
              f"{args.write_baseline}")
        return 0

    baseline = Baseline()
    baseline_source = args.update_baseline or args.baseline
    if baseline_source is not None:
        baseline_path = Path(baseline_source)
        if baseline_path.exists():
            baseline = Baseline.load(baseline_path)
        elif baseline_source != DEFAULT_BASELINE_NAME:
            print(f"repro-lint: baseline {baseline_source} not found",
                  file=sys.stderr)
            return 2

    if args.update_baseline is not None:
        # the ratchet: shrink each allowance toward the current count,
        # drop entries that no longer occur, never add a new one
        current = Counter(f.fingerprint() for f in report.findings)
        shrunk = Baseline()
        for fp, allowed in baseline.allowances.items():
            kept = min(allowed, current.get(fp, 0))
            if kept > 0:
                shrunk.allowances[fp] = kept
                shrunk.locators[fp] = baseline.locators.get(fp, "")
        dropped = sum(baseline.allowances.values()) \
            - sum(shrunk.allowances.values())
        shrunk.save(args.update_baseline)
        print(f"repro-lint: baseline {args.update_baseline} ratcheted "
              f"down by {dropped} finding(s) to "
              f"{sum(shrunk.allowances.values())}")
        baseline = shrunk

    new, grandfathered = baseline.split(report.findings)

    stats = None
    if args.stats:
        stats = stats_payload(analyzer.rule_seconds, analyzer.rule_findings)
    if output == "json":
        print(render_json(report, new, grandfathered, analyzer.metrics,
                          stats=stats))
    else:
        print(render_text(report, new, grandfathered, rules))
        if args.stats:
            print(render_stats(analyzer.rule_seconds,
                               analyzer.rule_findings,
                               report.files_scanned))
    return 1 if (new or report.parse_errors) else 0
