"""CLI behavior: formats, exit codes, pragma-only acceptance."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.staticcheck.cli import main
from repro.staticcheck.findings import StaticFinding

SRC = Path(__file__).resolve().parents[2] / "src"

BAD_HW = {
    "hw/engine.py": '''
        """Fixture."""
        import time

        def step(n):
            """Step."""
            return time.time() + n
        ''',
}

WAIVED_HW = {
    "hw/engine.py": '''
        """Fixture."""
        import time

        def step(n):
            """Step."""
            return time.time() + n  # repro-lint: disable=SC001 -- fixture
        ''',
}

CLEAN_HW = {
    "hw/engine.py": '''
        """Fixture."""

        def step(n):
            """Step."""
            return n + 1
        ''',
}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, fake_tree, capsys):
        assert main([str(fake_tree(CLEAN_HW))]) == 0
        assert capsys.readouterr().out.strip() == "staticcheck: 0 finding(s)"

    def test_finding_exits_one(self, fake_tree, capsys):
        assert main([str(fake_tree(BAD_HW))]) == 1
        out = capsys.readouterr().out
        assert "SC001" in out
        assert "call chain:" in out
        assert "time.time" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (:\n")
        assert main([str(tmp_path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("SC001", "SC002", "SC003", "SC005", "SC006",
                     "SC007", "SC008"):
            assert rule in out
        assert "SC004" not in out           # retired, number not reused

    def test_closed_stdout_exits_zero_quietly(self):
        """``--list-rules | head -1``: a reader that leaves early is a
        normal end of output, not an error."""
        read_end, write_end = os.pipe()
        os.close(read_end)                  # gone before the first write
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro.staticcheck", "--list-rules"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, "")


class TestFormats:
    def test_sarif_report(self, fake_tree, capsys):
        main([str(fake_tree(BAD_HW)), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-staticcheck"
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= \
            {"SC001", "SC006"}
        result = run["results"][0]
        assert result["ruleId"] == "SC001"
        assert result["level"] == "error"
        assert result["locations"][0]["physicalLocation"]["region"][
            "startLine"] > 0
        assert "partialFingerprints" in result

    def test_sarif_omits_waived_findings(self, fake_tree, capsys):
        main([str(fake_tree(WAIVED_HW)), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


def finding(rule="SC001", line=10, sink="time.time") -> StaticFinding:
    """A fabricated finding for fingerprint tests."""
    return StaticFinding(rule=rule, path="src/repro/hw/x.py", line=line,
                         symbol="repro.hw.x:f", message="m",
                         chain=["repro.hw.x:f", sink], sink=sink)


class TestFingerprint:
    """SARIF ``partialFingerprints`` track a finding across edits."""

    def test_line_number_does_not_change_fingerprint(self):
        assert finding(line=10).fingerprint() == \
            finding(line=99).fingerprint()

    def test_rule_and_sink_do_change_it(self):
        base = finding().fingerprint()
        assert finding(rule="SC003").fingerprint() != base
        assert finding(sink="os.urandom").fingerprint() != base
