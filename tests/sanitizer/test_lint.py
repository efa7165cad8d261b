"""The static rules the runtime sanitizer relies on, as file-local
checks of repro.staticcheck: rule hits and suppression semantics.

The classes keep the old rule numbers: R001 is SC001's file-local arm,
R002 SC006's, R003 is SC003 for ``RustMonitor``, R004 is SC007 and
R005 is SC008.
"""

from __future__ import annotations

from repro.staticcheck.config import StaticcheckConfig


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
