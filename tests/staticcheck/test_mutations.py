"""Mutation tests: inject real violations into the live tree.

Each mutation overlays a violation onto ``src/repro`` (no files are
touched on disk) and asserts the analyzer catches it with the correct
call chain.  A final end-to-end case copies the repo into a tmp dir,
mutates it for real, and checks the CLI exit codes flip 0 -> 1.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.cli import main
from repro.staticcheck.config import load_staticcheck_config

ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = ROOT / "src" / "repro"


def repo_config():
    """The repo's own [tool.repro-staticcheck] settings."""
    return load_staticcheck_config(ROOT / "pyproject.toml")


def run_with_overlay(overlay: dict[str, str]):
    """Analyze the real tree with injected sources."""
    return analyze([SRC_REPRO], repo_config(), overlay)


class TestInjectedViolations:
    def test_wall_clock_in_hw_is_caught_with_chain(self):
        target = SRC_REPRO / "hw" / "cycles.py"
        mutated = target.read_text() + (
            '\n\ndef _mutated_probe(counter):\n'
            '    """Mutation fixture: wall clock feeding a charge."""\n'
            '    import time\n'
            '    counter.charge(time.time(), "mutation")\n'
            '    return 0\n')
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC001" and not f.suppressed
                and f.symbol.endswith(":_mutated_probe")]
        assert len(hits) == 1
        assert hits[0].sink == "time.time"
        assert hits[0].chain[-1] == "time.time"
        assert hits[0].chain[0] == "repro.hw.cycles:_mutated_probe"

    def test_uncharged_monitor_entry_is_caught(self):
        target = SRC_REPRO / "monitor" / "rustmonitor.py"
        source = target.read_text()
        anchor = "    def demote_primary_os(self"
        assert anchor in source
        mutated = source.replace(anchor, (
            '    def mutated_entry(self):\n'
            '        """Mutation fixture: entry point with no charge."""\n'
            '        return self.os_demoted\n\n' + anchor))
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC003" and not f.suppressed]
        assert [f.symbol for f in hits] == \
            ["repro.monitor.rustmonitor:RustMonitor.mutated_entry"]
        assert hits[0].chain == [hits[0].symbol]

    def test_unmarshalled_taint_flow_is_caught(self):
        leak = (SRC_REPRO / "apps" / "mutated_leak.py").as_posix()
        found = run_with_overlay({leak: (
            '"""Mutation fixture: app writes phys memory directly."""\n\n\n'
            'def leak(machine, data):\n'
            '    """Bypass the marshalling barrier."""\n'
            '    machine.phys.write(4096, data)\n'
            '    return None\n')})
        hits = [f for f in found
                if f.rule == "SC006" and not f.suppressed
                and f.path == leak]
        assert len(hits) == 1
        assert hits[0].sink == "repro.hw.phys:PhysicalMemory.write"
        assert hits[0].chain == ["repro.apps.mutated_leak:leak",
                                 "repro.hw.phys:PhysicalMemory.write"]

    def test_wall_clock_trace_id_in_tracer_is_caught(self):
        """The request tracer is an SC001 root: a trace id derived from
        the wall clock (instead of the per-vCPU counter) must be a new
        finding, with no pragma able to hide behind the package."""
        target = SRC_REPRO / "telemetry" / "requests.py"
        mutated = target.read_text() + (
            '\n\ndef _mutated_request_id(tracer):\n'
            '    """Mutation fixture: wall-clock trace id."""\n'
            '    import time\n'
            '    return f"{tracer.label}/{time.time()}"\n')
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC001" and not f.suppressed
                and f.symbol.endswith(":_mutated_request_id")]
        assert len(hits) == 1
        assert hits[0].sink == "time.time"
        assert hits[0].chain[0] == \
            "repro.telemetry.requests:_mutated_request_id"

    def test_random_tie_break_in_critpath_is_caught(self):
        """The critical-path analyzer promises bit-identical reports,
        so it is a root too: an unseeded-random tie-break is SC001."""
        target = SRC_REPRO / "analysis" / "critpath.py"
        mutated = target.read_text() + (
            '\n\ndef _mutated_tie_break(children):\n'
            '    """Mutation fixture: random critical-path tie-break."""\n'
            '    import random\n'
            '    return random.choice(children)\n')
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC001" and not f.suppressed
                and f.symbol.endswith(":_mutated_tie_break")]
        assert len(hits) == 1
        assert hits[0].sink == "random.choice"

    def test_undeclared_charge_category_is_caught(self):
        target = SRC_REPRO / "monitor" / "swap.py"
        mutated = target.read_text() + (
            '\n\ndef _mutated_typo(counter):\n'
            '    """Mutation fixture: a mistyped charge category."""\n'
            '    counter.charge(1, "swap-inn")\n')
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found if f.rule == "SC009"]
        assert len(hits) == 1
        assert hits[0].symbol == "repro.monitor.swap:_mutated_typo"
        assert hits[0].sink == "category 'swap-inn'"

    def test_unmutated_tree_has_no_such_findings(self):
        found = analyze([SRC_REPRO], repo_config())
        assert not any("mutated" in f.symbol for f in found)


#: One violation per retired repro-lint rule (R001-R005), plus a wall
#: clock in the SDK's marshalling charge, a bare ``tel.site(...)``, a
#: direct ``PhysicalMemory.read_into`` in the tRTS and a mistyped
#: world-switch category:
#: (file under src/repro, anchor, replacement, the SC rule that must
#: catch it).
PROBES = {
    "R001-unseeded-random-in-app": (
        "apps/kvserver.py",
        "    def accept(self) -> int:\n",
        "    def accept(self) -> int:\n"
        "        import random\n"
        "        random.random()\n",
        "SC001"),
    "R002-direct-phys-read-in-urts": (
        "sdk/urts.py",
        "        return self.kernel.user_read(self.process, va, size)\n",
        "        return self.machine.phys.read(va, size)\n",
        "SC006"),
    "phys-read-into-in-trts": (
        "sdk/trts.py",
        "        return memaccess.copy_in(self._machine.phys, "
        "self._translate_read,\n",
        "        out = bytearray(size)\n"
        "        self._machine.phys.read_into(va, out, 0, size)\n"
        "        return memaccess.copy_in(self._machine.phys, "
        "self._translate_read,\n",
        "SC006"),
    "switch-category-typo-in-world": (
        "monitor/world.py",
        'f"eenter:{mode}")',
        'f"eentr:{mode}")',
        "SC009"),
    "R003-eremove-without-charge": (
        "monitor/rustmonitor.py",
        '        self._charge_hypercall("eremove")\n',
        "",
        "SC003"),
    "R004-span-outside-with-in-swap": (
        "monitor/swap.py",
        '    with tel.site("swap_out", enclave=enclave.enclave_id, '
        'va=page_va):\n',
        '    span = tel.span("monitor.swap_out", '
        'enclave=enclave.enclave_id)\n'
        "    with span:\n",
        "SC007"),
    "site-outside-with-in-world": (
        "monitor/world.py",
        '        with self.telemetry.site("eenter", ',
        "        tel = self.telemetry\n"
        '        tel.site("eenter", enclave=enclave.enclave_id, mode=mode,\n'
        "                 tcs=tcs.index)\n"
        '        with self.telemetry.site("eenter", ',
        "SC007"),
    "R005-bare-except-in-tlb": (
        "hw/tlb.py",
        "        self._entries.move_to_end(key)\n",
        "        try:\n"
        "            self._entries.move_to_end(key)\n"
        "        except:\n"
        "            pass\n",
        "SC008"),
    "wall-clock-in-charge-memcpy": (
        "sdk/urts.py",
        "def _charge_memcpy(machine, nbytes: int) -> None:\n",
        "def _charge_memcpy(machine, nbytes: int) -> None:\n"
        "    import time\n"
        "    started = time.time()\n",
        "SC001"),
}


@pytest.fixture(scope="module")
def clean_fingerprints():
    """Fingerprints the unmutated tree already produces."""
    return {f.fingerprint() for f in run_with_overlay({})}


def probe_findings(name):
    """All findings for the tree with probe ``name`` injected."""
    rel, anchor, replacement, _ = PROBES[name]
    target = SRC_REPRO / rel
    source = target.read_text()
    assert source.count(anchor) == 1, f"{name}: anchor drifted"
    return run_with_overlay(
        {target.as_posix(): source.replace(anchor, replacement)})


class TestRetiredLintProbes:
    """Each probe yields exactly one new finding, of its mapped rule."""

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_probe_is_caught_once(self, name, clean_fingerprints):
        new = [f for f in probe_findings(name) if not f.suppressed
               and f.fingerprint() not in clean_fingerprints]
        assert [f.rule for f in new] == [PROBES[name][3]], \
            [f.render() for f in new]
        assert new[0].path.endswith(PROBES[name][0])

    def test_no_chain_fans_out_of_a_super_call(self):
        """``super().__init__`` in PageFault resolves to its project
        base only; it must not link to every project ``__init__``."""
        for finding in probe_findings("wall-clock-in-charge-memcpy"):
            for caller, callee in zip(finding.chain, finding.chain[1:]):
                if caller == "repro.errors:PageFault.__init__":
                    assert callee.startswith("repro.errors:"), \
                        finding.render()


class TestEndToEndExitCodes:
    def test_cli_flips_zero_to_one_on_mutation(self, tmp_path,
                                               monkeypatch, capsys):
        shutil.copytree(SRC_REPRO, tmp_path / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
        shutil.copy(ROOT / "staticcheck-baseline.json",
                    tmp_path / "staticcheck-baseline.json")
        monkeypatch.chdir(tmp_path)

        assert main(["src/repro"]) == 0

        cycles = tmp_path / "src" / "repro" / "hw" / "cycles.py"
        cycles.write_text(cycles.read_text() + (
            '\n\ndef _mutated_probe(counter):\n'
            '    """Mutation fixture."""\n'
            '    import time\n'
            '    counter.charge(time.time(), "mutation")\n'
            '    return 0\n'))
        capsys.readouterr()
        assert main(["src/repro"]) == 1
        out = capsys.readouterr().out
        assert "_mutated_probe" in out
        assert "time.time" in out
