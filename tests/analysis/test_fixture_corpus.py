"""The known-bad / known-good fixture corpus, one directory per rule.

Each fixture under ``fixtures/<dir>/`` declares its rule in a
``# rule:`` header (and optionally a ``# path:`` header, since the
layering rule keys off the scanned file's package).  Lines that must
be flagged end in ``# BAD``; everything else must stay silent.  Good
twins (``good_*.py``) carry no markers at all, so every bad fixture
ships with evidence that its fix pattern passes.

One parametrized test drives the whole corpus: the expected finding
lines are exactly the marked lines, no more, no fewer.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.core import Analyzer, all_rules

FIXTURES = Path(__file__).parent / "fixtures"
_RULE_HEADER = re.compile(r"^#\s*rule:\s*(\S+)", re.MULTILINE)
_PATH_HEADER = re.compile(r"^#\s*path:\s*(\S+)", re.MULTILINE)
DEFAULT_REL_PATH = "src/repro/pkg/mod.py"


def fixture_files() -> list[Path]:
    files = sorted(FIXTURES.glob("*/*.py"))
    assert files, "fixture corpus is missing"
    return files


def _fixture_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


@pytest.mark.parametrize("fixture", fixture_files(), ids=_fixture_id)
def test_fixture(fixture: Path):
    source = fixture.read_text(encoding="utf-8")
    header = _RULE_HEADER.search(source)
    assert header, f"{fixture}: missing '# rule:' header"
    rule_name = header.group(1)
    path_header = _PATH_HEADER.search(source)
    rel_path = path_header.group(1) if path_header else DEFAULT_REL_PATH

    rules = [rule for rule in all_rules() if rule.name == rule_name]
    assert rules, f"{fixture}: unknown rule {rule_name!r}"
    findings = Analyzer(rules=rules).check_source(source, rel_path)

    expected = sorted(
        lineno for lineno, text in enumerate(source.splitlines(), start=1)
        if text.rstrip().endswith("# BAD"))
    actual = sorted(finding.line for finding in findings)

    if fixture.name.startswith("bad_"):
        assert expected, f"{fixture}: bad fixture has no '# BAD' markers"
    else:
        assert not expected, f"{fixture}: good fixture carries '# BAD' markers"
    assert actual == expected, (
        f"{fixture}: expected findings on lines {expected}, got {actual}: "
        + "; ".join(f"{f.line}: {f.message}" for f in findings))


def test_every_flow_rule_has_fixtures():
    dirs = {path.name for path in FIXTURES.iterdir() if path.is_dir()}
    assert {"durability", "breaker", "layering", "atomicity"} <= dirs
    for directory in sorted(dirs):
        names = [p.name for p in (FIXTURES / directory).glob("*.py")]
        assert any(n.startswith("bad_") for n in names), directory
        assert any(n.startswith("good_") for n in names), directory
