"""Rule upgrades carried into repro.staticcheck: alias tracking and the
clock_gettime clocks for SC001's file-local arm, SC003 charging through
``self`` helpers, and the SC-only pragma parser."""

from __future__ import annotations

from repro.staticcheck.project import parse_suppressions


def rules(findings):
    """Rule ids of the findings, in report order."""
    return [f.rule for f in findings]


class TestR001Gaps:
    def test_clock_gettime_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time
            def charge():
                return time.clock_gettime(0)
            """})
        assert rules(found) == ["SC001"]

    def test_clock_gettime_ns_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time
            def charge():
                return time.clock_gettime_ns(0)
            """})
        assert rules(found) == ["SC001"]

    def test_module_alias_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            import time as tm
            def charge():
                return tm.time()
            """})
        assert rules(found) == ["SC001"]

    def test_from_import_alias_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            from time import time as t
            def charge():
                return t()
            """})
        assert rules(found) == ["SC001"]

    def test_aliased_random_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            from random import randint as ri
            def pick():
                return ri(0, 9)
            """})
        assert rules(found) == ["SC001"]

    def test_unrelated_alias_not_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": """
            from math import sin as time
            def charge():
                return time(0.5)
            """})
        assert found == []


class TestR003Interprocedural:
    def test_charge_via_self_helper_accepted(self, run_passes):
        found = run_passes({"monitor/rustmonitor.py": """
            class RustMonitor:
                def entry(self, x):
                    return self._inner(x)
                def _inner(self, x):
                    self._charge_hypercall('entry')
                    return x
                def _charge_hypercall(self, op):
                    self.cycles.charge(100, 'hypercall')
            """})
        assert found == []

    def test_charge_steps_counts_as_charging(self, run_passes):
        found = run_passes({"monitor/rustmonitor.py": """
            class RustMonitor:
                def fault(self, va):
                    self.cpu.charge_steps([1, 2], 'pf:p')
            """})
        assert found == []

    def test_never_charging_entry_still_flagged(self, run_passes):
        found = run_passes({"monitor/rustmonitor.py": """
            class RustMonitor:
                def forgotten(self, x):
                    return self._lookup(x)
                def _lookup(self, x):
                    return x + 1
            """})
        assert rules(found) == ["SC003"]
        assert "forgotten" in found[0].message


class TestSharedScPragmas:
    def test_sc_directive_parsed(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=SC001 -- sanctioned knob\n")
        assert sup.lookup(1, "SC001") == "sanctioned knob"

    def test_mixed_r_and_sc_rules(self):
        # The R codes are retired: a directive naming one waives
        # nothing, while a list of SC codes waives each of them.
        sup = parse_suppressions(
            "# repro-lint: disable=R001, SC001 -- retired code\n"
            "x = read_clock()\n"
            "# repro-lint: disable=SC001, SC006 -- both waived\n"
            "y = read_clock()\n")
        assert sup.lookup(2, "SC001") is None
        assert sup.lookup(4, "SC001") == "both waived"
        assert sup.lookup(4, "SC006") == "both waived"

    def test_sc_directive_without_justification_ignored(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=SC001\n")
        assert sup.lookup(1, "SC001") is None
