"""Tests for the execution-trace facility."""

import pytest

from repro.hw.cycles import CycleCounter
from repro.hw.trace import TraceBuffer
from repro.platform import TeePlatform

from tests.sdk.conftest import SMALL, demo_image


class TestTraceBuffer:
    def test_disabled_by_default(self):
        trace = TraceBuffer()
        trace.record("x", "y")
        assert len(trace) == 0

    def test_records_with_cycle_stamps(self):
        cycles = CycleCounter()
        trace = TraceBuffer()
        trace.attach(cycles)
        trace.enable()
        cycles.charge(100, "compute")
        trace.record("ev", "detail")
        (event,) = trace.events()
        assert event.cycle == 100
        assert event.kind == "ev"

    def test_bounded_capacity(self):
        trace = TraceBuffer(capacity=3)
        trace.enable()
        for i in range(10):
            trace.record("e", str(i))
        assert len(trace) == 3
        assert [e.detail for e in trace] == ["7", "8", "9"]

    def test_kind_filter(self):
        trace = TraceBuffer()
        trace.enable()
        trace.record("a", "1")
        trace.record("b", "2")
        trace.record("a", "3")
        assert [e.detail for e in trace.events("a")] == ["1", "3"]

    def test_event_format(self):
        trace = TraceBuffer()
        trace.enable()
        trace.record("eenter", "enclave=1")
        (event,) = trace.events()
        assert "eenter" in str(event)
        assert "enclave=1" in str(event)

    def test_clear_and_disable(self):
        trace = TraceBuffer()
        trace.enable()
        trace.record("x")
        trace.clear()
        trace.disable()
        trace.record("y")
        assert len(trace) == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestPlatformTracing:
    def test_ecall_produces_world_switch_events(self):
        platform = TeePlatform.hyperenclave(SMALL)
        handle = platform.load_enclave(demo_image())
        platform.machine.trace.enable()
        handle.proxies.add_numbers(a=1, b=2)
        kinds = [e.kind for e in platform.machine.trace]
        assert "eenter" in kinds
        assert "eexit" in kinds
        handle.destroy()

    def test_hypercalls_traced_with_caller(self):
        platform = TeePlatform.hyperenclave(SMALL)
        platform.machine.trace.enable()
        handle = platform.load_enclave(demo_image())
        hypercalls = platform.machine.trace.events("hypercall")
        callers = {e.detail for e in hypercalls}
        assert "ecreate" in callers
        assert "eadd" in callers
        assert "einit" in callers
        handle.destroy()

    def test_page_faults_traced(self):
        platform = TeePlatform.hyperenclave(SMALL)
        handle = platform.load_enclave(demo_image())
        platform.machine.trace.enable()
        va = handle.ctx.malloc(4096 * 2)
        handle.ctx.write(va, b"x" * 8192)
        faults = platform.machine.trace.events("pagefault")
        assert faults
        handle.destroy()

    def test_tracing_does_not_change_costs(self):
        """Observability must not perturb the measurement (Table 1)."""
        platform = TeePlatform.hyperenclave(SMALL)
        handle = platform.load_enclave(demo_image())
        handle.proxies.add_numbers(a=0, b=0)
        with platform.cycles.measure() as span:
            handle.proxies.add_numbers(a=0, b=0)
        without = span.elapsed
        platform.machine.trace.enable()
        with platform.cycles.measure() as span:
            handle.proxies.add_numbers(a=0, b=0)
        assert span.elapsed == without
        handle.destroy()
