"""CLI behavior: formats, exit codes, baseline workflow."""

from __future__ import annotations

import json

from repro.staticcheck.cli import main

BAD_HW = {
    "hw/engine.py": '''
        """Fixture."""
        import time

        def step(n):
            """Step."""
            return time.time() + n
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
        assert main([str(fake_tree(CLEAN_HW)), "--no-baseline"]) == 0

    def test_finding_exits_one(self, fake_tree, capsys):
        assert main([str(fake_tree(BAD_HW)), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "SC001" in out
        assert "call chain:" in out
        assert "time.time" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_disable_flag(self, fake_tree, capsys):
        assert main([str(fake_tree(BAD_HW)), "--no-baseline",
                     "--disable", "SC001"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("SC001", "SC002", "SC003", "SC005", "SC006",
                     "SC007", "SC008"):
            assert rule in out
        assert "SC004" not in out           # retired, number not reused


class TestBaselineWorkflow:
    def test_write_then_gate_clean_then_regress(self, fake_tree, tmp_path,
                                                capsys):
        root = str(fake_tree(BAD_HW))
        baseline = tmp_path / "bl.json"
        assert main([root, "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        # Accepted debt gates clean...
        assert main([root, "--baseline", str(baseline)]) == 0
        # ...a new violation fails...
        extra = tmp_path / "repro" / "hw" / "extra.py"
        extra.write_text('"""F."""\nimport time\n\n\n'
                         'def t():\n    """T."""\n    return time.time()\n')
        assert main([root, "--baseline", str(baseline)]) == 1
        # ...and fixing MORE than the baseline expects fails too (stale).
        extra.unlink()
        (tmp_path / "repro" / "hw" / "engine.py").write_text(
            '"""F."""\n\n\ndef step(n):\n    """S."""\n    return n\n')
        assert main([root, "--baseline", str(baseline)]) == 1
        assert "stale" in capsys.readouterr().out


class TestFormats:
    def test_json_report(self, fake_tree, capsys):
        main([str(fake_tree(BAD_HW)), "--no-baseline", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "SC001"
        assert doc["findings"][0]["chain"][-1] == "time.time"
        assert doc["gate"]["clean"] is False

    def test_sarif_report(self, fake_tree, capsys):
        main([str(fake_tree(BAD_HW)), "--no-baseline", "--format", "sarif"])
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

    def test_sarif_baselined_findings_are_notes(self, fake_tree, tmp_path,
                                                capsys):
        root = str(fake_tree(BAD_HW))
        baseline = tmp_path / "bl.json"
        main([root, "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()
        main([root, "--baseline", str(baseline), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        levels = [r["level"] for r in doc["runs"][0]["results"]]
        assert levels == ["note"]
