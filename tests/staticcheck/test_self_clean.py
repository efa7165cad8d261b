"""The self-clean guarantee: src/repro passes its own verifier.

Every accepted finding is waived by a justified pragma at the code it
waives; there is no other acceptance list.  The suppressed set is
pinned here, so a new waiver is a visible change to this test.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.cli import main

ROOT = Path(__file__).resolve().parents[2]


def repo_findings(monkeypatch):
    """Every finding, suppressed or not, over src/repro."""
    monkeypatch.chdir(ROOT)
    return analyze([Path("src/repro")])


def test_tree_has_no_unsuppressed_findings(monkeypatch):
    active = [f for f in repo_findings(monkeypatch) if not f.suppressed]
    assert active == [], "\n".join(f.render() for f in active)


def test_cli_gate_exits_zero(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["src/repro"]) == 0
    assert capsys.readouterr().out.strip() == "staticcheck: 0 finding(s)"


def test_every_suppression_pragma_has_a_justification(monkeypatch):
    # Suppressed findings must carry the pragma's why-text; an SC pragma
    # without a justification does not suppress at all (project.py), so
    # every suppressed finding here proves the shared syntax works.
    suppressed = [f for f in repo_findings(monkeypatch) if f.suppressed]
    assert suppressed, "expected the sanctioned waivers to appear"
    for finding in suppressed:
        assert finding.justification


def test_suppressed_set_is_the_documented_waivers(monkeypatch):
    # The primary OS manages its own normal memory (8 SC006 in the
    # kernel), four RustMonitor entry points never charge by design
    # (SC003), and two crypto host reads are sanctioned (SC001).
    suppressed = [f for f in repo_findings(monkeypatch) if f.suppressed]
    assert Counter((f.rule, f.path) for f in suppressed) == {
        ("SC006", "src/repro/osim/kernel.py"): 8,
        ("SC003", "src/repro/monitor/rustmonitor.py"): 4,
        ("SC001", "src/repro/crypto/keycache.py"): 1,
        ("SC001", "src/repro/crypto/cipher.py"): 1,
    }
    assert {f.symbol.split(":")[1] for f in suppressed
            if f.rule == "SC003"} == {
        "RustMonitor.initialize_keys", "RustMonitor.demote_primary_os",
        "RustMonitor.check_normal_access", "RustMonitor.audit_invariants"}
