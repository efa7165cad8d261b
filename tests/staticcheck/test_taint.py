"""SC006: trust-boundary taint analysis over fixtures."""

from __future__ import annotations

PHYS = '''
    """Fixture physical memory."""

    class PhysicalMemory:
        """P."""

        def write(self, pa, data):
            """Write."""
            self.frames[pa] = data

        def read(self, pa, n):
            """Read."""
            return self.frames[pa][:n]

    class FramePool:
        """F."""

        def alloc(self):
            """Alloc."""
            return self.free.pop()
'''


def by_rule(findings, rule):
    """Unsuppressed findings for one rule."""
    return [f for f in findings if f.rule == rule and not f.suppressed]


class TestSC006:
    def test_direct_phys_write_from_app(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "apps/evil.py": '''
                """Fixture."""

                def leak(machine, data):
                    """Bypass the barrier."""
                    machine.phys.write(0, data)
                    return None
                ''',
        })
        hits = by_rule(found, "SC006")
        assert len(hits) == 1
        assert hits[0].sink == "repro.hw.phys:PhysicalMemory.write"
        assert hits[0].chain == ["repro.apps.evil:leak",
                                 "repro.hw.phys:PhysicalMemory.write"]

    def test_flow_through_helper_still_caught(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "osim/driver.py": '''
                """Fixture."""

                def entry(machine, data):
                    """OS-side entry."""
                    _stash(machine, data)

                def _stash(machine, data):
                    """Helper one hop down."""
                    machine.phys.write(64, data)
                ''',
        })
        hits = by_rule(found, "SC006")
        assert len(hits) == 1
        assert hits[0].chain[0] in ("repro.osim.driver:entry",
                                    "repro.osim.driver:_stash")
        assert hits[0].chain[-1] == "repro.hw.phys:PhysicalMemory.write"

    def test_barrier_routed_flow_is_clean(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "sdk/urts.py": '''
                """Fixture barrier."""
                from repro.hw.phys import PhysicalMemory

                def copy_in(machine, data):
                    """Validating bridge; reaches the sink precisely."""
                    PhysicalMemory.write(machine.phys, 0, data)
                ''',
            "apps/good.py": '''
                """Fixture."""
                from repro.sdk.urts import copy_in

                def ok(machine, data):
                    """Marshalled."""
                    copy_in(machine, data)
                ''',
        })
        assert by_rule(found, "SC006") == []

    def test_direct_phys_call_in_barrier_file_is_flagged(self, run_passes):
        # The flow pass skips barriers, but the file-local arm does not:
        # a barrier marshals through memaccess, never around it.
        found = run_passes({
            "hw/phys.py": PHYS,
            "sdk/urts.py": '''
                """Fixture barrier."""

                def app_read(machine, pa):
                    """Reads phys directly instead of via memaccess."""
                    return machine.phys.read(pa, 8)
                ''',
        })
        hits = by_rule(found, "SC006")
        assert [(f.symbol, f.sink) for f in hits] == \
            [("repro.sdk.urts:app_read", "repro.hw.phys:PhysicalMemory.read")]
        assert "memaccess" in hits[0].message

    def test_public_monitor_entry_is_a_barrier(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "monitor/rustmonitor.py": '''
                """Fixture monitor."""

                class RustMonitor:
                    """M."""

                    def ecreate(self, machine, size):
                        """Validated entry; phys access inside is fine."""
                        machine.phys.write(0, b"x" * size)
                ''',
            "apps/via_monitor.py": '''
                """Fixture."""
                from repro.monitor.rustmonitor import RustMonitor

                def ok(mon, machine):
                    """Hypercall crossing."""
                    RustMonitor.ecreate(mon, machine, 8)
                ''',
        })
        assert by_rule(found, "SC006") == []

    def test_unrelated_write_method_not_flagged(self, run_passes):
        # A fuzzy .write() whose receiver doesn't look like phys memory
        # must not be reported (name-based dispatch noise control).
        found = run_passes({
            "hw/phys.py": PHYS,
            "apps/logger.py": '''
                """Fixture."""

                def log(sink, line):
                    """Plain file-ish write."""
                    sink.write(0, line)
                ''',
        })
        assert by_rule(found, "SC006") == []
