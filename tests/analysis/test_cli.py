"""CLI contract: exit codes, JSON output, baseline workflow."""

import json

from repro.analysis.cli import main

VIOLATION = "import time\n\n\ndef wait():\n    time.sleep(1)\n"
CLEAN = "def wait(clock):\n    clock.sleep(1)\n"


def _write_pkg(tmp_path, source):
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "mod.py").write_text(source)
    return pkg


def test_clean_tree_exits_zero(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, CLEAN)
    assert main([str(pkg), "--root", str(tmp_path)]) == 0
    assert "repro-lint: clean" in capsys.readouterr().out


def test_violation_exits_one_with_human_report(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 new finding(s)" in out
    assert "wall-clock" in out
    assert "pkg/mod.py" in out


def test_json_report_shape(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, VIOLATION)
    assert main([str(pkg), "--json", "--root", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["files_scanned"] == 1
    [finding] = payload["new"]
    assert finding["rule"] == "wall-clock"
    assert finding["path"] == "pkg/mod.py"
    assert finding["line"] == 5
    assert payload["counters"]["lint.findings.wall-clock"] == 1


def test_write_then_gate_with_baseline(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, VIOLATION)
    baseline = tmp_path / "baseline.json"
    assert main([str(pkg), "--root", str(tmp_path),
                 "--write-baseline", str(baseline)]) == 0
    # grandfathered: the same tree now gates clean
    assert main([str(pkg), "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # a *new* violation still fails the gate
    (pkg / "mod2.py").write_text(VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 1


def test_disable_rule(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--disable", "wall-clock"]) == 0


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["--disable", "no-such-rule", str(tmp_path)]) == 2
    assert main([str(tmp_path / "missing")]) == 2
    pkg = _write_pkg(tmp_path, CLEAN)
    assert main([str(pkg), "--baseline", str(tmp_path / "nope.json")]) == 2


def test_list_rules_names_the_full_registry(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("wall-clock", "unseeded-random", "set-iteration",
                 "swallowed-transport-error", "retry-without-backoff",
                 "deadline-dropped", "durability-unsynced-ack",
                 "breaker-unrecorded-outcome", "atomicity-violation",
                 "layering-contract"):
        assert rule in out


def test_parse_error_exits_one(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, "def broken(:\n")
    assert main([str(pkg), "--root", str(tmp_path)]) == 1
    assert "parse error" in capsys.readouterr().out


def test_rule_filter_runs_only_that_rule(tmp_path, capsys):
    # the tree violates wall-clock, but the run is scoped to another rule
    pkg = _write_pkg(tmp_path, VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--rule", "unseeded-random"]) == 0
    assert main([str(pkg), "--root", str(tmp_path),
                 "--rule", "wall-clock"]) == 1
    assert main([str(pkg), "--rule", "no-such-rule"]) == 2


def test_stats_reports_per_rule_timing(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path), "--stats"]) == 1
    out = capsys.readouterr().out
    assert "per-rule stats" in out
    assert "wall-clock" in out and "ms" in out


def test_stats_in_json_payload(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--json", "--stats"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["wall-clock"]["findings"] == 1
    assert payload["stats"]["wall-clock"]["ms"] >= 0.0


def test_update_baseline_shrinks_but_never_grows(tmp_path, capsys):
    two = VIOLATION + "time.sleep(1)\n"
    pkg = _write_pkg(tmp_path, two)
    baseline = tmp_path / "baseline.json"
    assert main([str(pkg), "--root", str(tmp_path),
                 "--write-baseline", str(baseline)]) == 0

    # fixing one of the two identical findings: the ratchet shrinks the
    # allowance and the gate passes
    (pkg / "mod.py").write_text(VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--update-baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "ratcheted down by 1" in out
    contents = json.loads(baseline.read_text())
    assert sum(e["count"] for e in contents["findings"].values()) == 1

    # reintroducing the second copy is NOT absorbed: the shrunken
    # baseline holds and the new occurrence gates
    (pkg / "mod.py").write_text(two)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--update-baseline", str(baseline)]) == 1

    # a brand-new violation is never added by --update-baseline
    (pkg / "mod2.py").write_text(VIOLATION)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--update-baseline", str(baseline)]) == 1
    contents = json.loads(baseline.read_text())
    assert all("mod2" not in entry["where"]
               for entry in contents["findings"].values())


def test_update_baseline_drops_fixed_entries(tmp_path, capsys):
    pkg = _write_pkg(tmp_path, VIOLATION)
    baseline = tmp_path / "baseline.json"
    assert main([str(pkg), "--root", str(tmp_path),
                 "--write-baseline", str(baseline)]) == 0
    (pkg / "mod.py").write_text(CLEAN)
    assert main([str(pkg), "--root", str(tmp_path),
                 "--update-baseline", str(baseline)]) == 0
    assert json.loads(baseline.read_text())["findings"] == {}


def test_write_and_update_baseline_are_exclusive(tmp_path):
    pkg = _write_pkg(tmp_path, CLEAN)
    assert main([str(pkg), "--write-baseline", "--update-baseline"]) == 2


def test_json_flag_conflicts_with_other_formats(tmp_path):
    pkg = _write_pkg(tmp_path, CLEAN)
    assert main([str(pkg), "--json", "--format=text"]) == 2
