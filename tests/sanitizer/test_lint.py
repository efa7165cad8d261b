"""The static rules the runtime sanitizer relies on, as file-local
checks of repro.staticcheck: rule hits, suppression semantics, CLI.

The classes keep the old rule numbers: R001 is SC001's file-local arm,
R002 SC006's, R003 is SC003 for ``RustMonitor``, R004 is SC007 and
R005 is SC008.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.cli import main
from repro.staticcheck.config import StaticcheckConfig, load_staticcheck_config

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules(findings):
    """Rule ids of the findings, in report order."""
    return [f.rule for f in findings]


class TestR001:
    def test_wall_clock_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time
            def charge():
                return time.perf_counter()
            """})
        assert rules(found) == ["SC001"]
        assert "wall clock" in found[0].message

    def test_global_random_flagged(self, run_passes):
        found = run_passes({"apps/fake.py": """
            import random
            def pick():
                return random.randrange(10)
            """})
        assert rules(found) == ["SC001"]

    def test_seeded_rng_allowed(self, run_passes):
        found = run_passes({"apps/fake.py": """
            import random
            def pick(seed):
                return random.Random(seed).randrange(10)
            """})
        assert found == []

    def test_unseeded_rng_flagged(self, run_passes):
        found = run_passes({"apps/fake.py": """
            import random
            def pick():
                return random.Random()
            """})
        assert rules(found) == ["SC001"]

    def test_config_exclude(self, run_passes):
        config = StaticcheckConfig(exclude=("repro/telemetry/",))
        found = run_passes({"telemetry/fake.py": """
            import time
            def now():
                return time.time()
            """}, config)
        assert found == []


class TestR002:
    SOURCE = """
        def leak(self, pa):
            return self.machine.phys.read(pa, 8)
        """

    def test_untrusted_layer_flagged(self, run_passes):
        found = run_passes({"osim/fake.py": self.SOURCE})
        assert rules(found) == ["SC006"]
        assert "memaccess" in found[0].message

    def test_hw_layer_exempt(self, run_passes):
        assert run_passes({"hw/fake.py": self.SOURCE}) == []


class TestR003:
    def test_uncharged_entry_point_flagged(self, run_passes):
        found = run_passes({"monitor/rustmonitor.py": """
            class RustMonitor:
                def uncharged(self):
                    return 1
                def charged(self):
                    self._charge_hypercall("charged")
                def _private(self):
                    return 2
                @property
                def attribute(self):
                    return 3
            """})
        assert [(f.rule, f.line) for f in found] == [("SC003", 3)]
        assert "uncharged" in found[0].message

    def test_other_files_exempt(self, run_passes):
        found = run_passes({"monitor/other.py": """
            class RustMonitor:
                def uncharged(self):
                    return 1
            """})
        assert found == []


class TestR004:
    def test_unclosed_span_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            def leak(tel):
                span = tel.span("oops")
                span.annotate(1)
            """})
        assert rules(found) == ["SC007"]

    def test_with_statement_allowed(self, run_passes):
        found = run_passes({"hw/fake.py": """
            def fine(tel):
                with tel.span("ok"):
                    pass
            """})
        assert found == []

    def test_returned_span_allowed(self, run_passes):
        found = run_passes({"hw/fake.py": """
            def handoff(tel):
                return tel.span("callers-problem")
            """})
        assert found == []


class TestR005:
    SOURCE = """
        def swallow():
            try:
                risky()
            except:
                pass
        """

    def test_bare_except_in_monitor_flagged(self, run_passes):
        found = run_passes({"monitor/fake.py": self.SOURCE})
        assert rules(found) == ["SC008"]

    def test_untrusted_layer_exempt(self, run_passes):
        assert run_passes({"apps/fake.py": self.SOURCE}) == []


class TestSuppression:
    def test_justified_suppression(self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time
            def now():
                return time.time()  # repro-lint: disable=SC001 -- host-side only
            """})
        assert len(found) == 1
        assert found[0].suppressed
        assert found[0].justification == "host-side only"

    def test_directive_without_justification_does_not_suppress(
            self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time
            def now():
                return time.time()  # repro-lint: disable=SC001
            """})
        assert len(found) == 1
        assert not found[0].suppressed

    def test_comment_block_above_covers_next_code_line(self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time
            # repro-lint: disable=SC001 -- profiling shim, never cycle-charged
            # (continued rationale on a second comment line)
            def now():
                return 1

            def charged():
                return time.time()
            """})
        # The directive covers only its block and first code line, so the
        # later time.time() call is still reported.
        assert [f.suppressed for f in found] == [False]

    def test_inline_directive_covers_only_its_own_line(self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time
            def pair():
                a = time.time()  # repro-lint: disable=SC001 -- host-side only
                b = time.time()
                return a, b
            """})
        # An end-of-line directive must not bleed onto the next line.
        assert [f.suppressed for f in found] == [True, False]


class TestRepoIsClean:
    def test_src_tree_has_zero_unsuppressed_findings(self, monkeypatch):
        """The acceptance gate CI enforces, as a unit test: every
        unsuppressed finding over src/repro is accepted baseline debt."""
        monkeypatch.chdir(REPO_ROOT)
        config = load_staticcheck_config(REPO_ROOT / "pyproject.toml")
        findings = analyze([Path("src/repro")], config)
        baseline = Baseline.load(REPO_ROOT / "staticcheck-baseline.json")
        new = baseline.delta(findings).new
        assert new == [], "\n".join(f.render() for f in new)

    def test_every_suppression_is_justified(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        config = load_staticcheck_config(REPO_ROOT / "pyproject.toml")
        findings = analyze([Path("src/repro")], config)
        suppressed = [f for f in findings if f.suppressed]
        # The keycache record knob and the cipher's entropy fallback
        # carry SC001 pragmas, which must come with their why-text.
        assert {f.path for f in suppressed} >= {
            "src/repro/crypto/keycache.py", "src/repro/crypto/cipher.py"}
        for finding in suppressed:
            assert finding.justification


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "repro").mkdir()
        bad = tmp_path / "repro" / "bad.py"
        bad.write_text("import time\ny = time.time()\n")
        assert main([str(bad)]) == 1
        assert "SC001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (:\n")
        assert main([str(tmp_path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_json_report_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\ny = time.time()\n")
        main([str(bad), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["gate"]["new"] and not report["gate"]["clean"]
        finding, = report["findings"]
        assert finding["rule"] == "SC001"
        assert finding["line"] == 2
        assert not finding["suppressed"]

    def test_config_disable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\ny = time.time()\n")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.repro-staticcheck]\ndisable = ["SC001"]\n')
        assert main([str(bad)]) == 0
