"""SC003/SC005: the charge-coverage passes over fixtures."""

from __future__ import annotations

from repro.staticcheck.config import StaticcheckConfig

MONITOR_HEADER = '''
    """Fixture monitor."""

    class RustMonitor:
        """Fixture."""

        def _charge_hypercall(self, op):
            """Charge."""
            self.cycles.charge(100, 'hypercall')
'''


def monitor_with(body: str) -> dict[str, str]:
    """A fixture rustmonitor module with extra methods appended."""
    return {"monitor/rustmonitor.py": MONITOR_HEADER + body}


def by_rule(findings, rule):
    """Unsuppressed findings for one rule."""
    return [f for f in findings if f.rule == rule and not f.suppressed]


class TestSC003:
    def test_uncharged_entry_point(self, run_passes):
        found = run_passes(monitor_with('''
        def forgotten(self, x):
            """Never charges."""
            return x + 1
        '''))
        hits = by_rule(found, "SC003")
        assert [f.symbol for f in hits] == \
            ["repro.monitor.rustmonitor:RustMonitor.forgotten"]
        assert hits[0].chain == [hits[0].symbol]

    def test_charge_through_helper_chain_accepted(self, run_passes):
        found = run_passes(monitor_with('''
        def outer(self, x):
            """Charges two hops down."""
            return self._inner(x)

        def _inner(self, x):
            """Helper."""
            self._charge_hypercall('outer')
            return x
        '''))
        assert by_rule(found, "SC003") == []

    def test_exemption_from_config(self, run_passes):
        found = run_passes(
            monitor_with('''
        def boot_only(self):
            """Boot-time, exempt."""
            return 1
            '''),
            StaticcheckConfig(charge_exempt=(
                "RustMonitor.boot_only -- fixture: boot-time setup",)))
        assert by_rule(found, "SC003") == []

    def test_private_methods_and_properties_skipped(self, run_passes):
        found = run_passes(monitor_with('''
        @property
        def state(self):
            """Accessor."""
            return self._state

        def _helper(self):
            """Private."""
            return 0
        '''))
        assert by_rule(found, "SC003") == []


class TestSC005:
    def test_uncharged_exit_path(self, run_passes):
        found = run_passes(monitor_with('''
        def partial(self, flag, x):
            """Charges only one branch."""
            if flag:
                self._charge_hypercall('partial')
                return x
            return x * 2
        '''))
        hits = by_rule(found, "SC005")
        assert len(hits) == 1
        assert "x * 2" in hits[0].sink

    def test_constant_guard_return_exempt(self, run_passes):
        found = run_passes(monitor_with('''
        def guarded(self, size):
            """Zero-work early-out is fine."""
            if size <= 0:
                return 0
            self._charge_hypercall('guarded')
            return size
        '''))
        assert by_rule(found, "SC005") == []

    def test_raise_path_exempt(self, run_passes):
        found = run_passes(monitor_with('''
        def checked(self, size):
            """Error paths need not charge."""
            if size < 0:
                raise ValueError(size)
            self._charge_hypercall('checked')
            return size
        '''))
        assert by_rule(found, "SC005") == []

    def test_return_of_charging_call_accepted(self, run_passes):
        found = run_passes(monitor_with('''
        def delegate(self, x):
            """The returned call itself always charges."""
            return self._paid(x)

        def _paid(self, x):
            """Helper that charges on every path."""
            self._charge_hypercall('delegate')
            return x
        '''))
        assert by_rule(found, "SC005") == []
