"""Trace-ring observability: seq numbers, loss accounting, causes, taps.

The ring used to lose events silently on wrap-around; now every event
carries a monotonic ``seq``, drops are counted (and surfaced as a
telemetry metric via ``on_drop``), and taps see each event before it can
be evicted — the lossless path the flight recorder journals through.
"""

from __future__ import annotations

import pytest

from repro.hw.trace import TraceBuffer
from repro.platform import TeePlatform
from tests.sdk.conftest import SMALL, demo_image


def make_ring(capacity: int = 4) -> TraceBuffer:
    ring = TraceBuffer(capacity=capacity)
    ring.enable()
    return ring


class TestLossAccounting:
    def test_seq_is_monotonic_across_wrap(self):
        ring = make_ring(capacity=4)
        for i in range(10):
            ring.record("tick", str(i))
        assert [e.seq for e in ring.events()] == [6, 7, 8, 9]
        assert ring.total_recorded == 10

    def test_drop_count_matches_evictions(self):
        ring = make_ring(capacity=4)
        for i in range(10):
            ring.record("tick", str(i))
        stats = ring.stats()
        assert stats == {"recorded": 10, "dropped": 6, "entries": 4,
                         "capacity": 4}

    def test_on_drop_fires_per_eviction(self):
        ring = make_ring(capacity=2)
        drops = []
        ring.on_drop = drops.append
        for i in range(5):
            ring.record("tick", str(i))
        assert sum(drops) == 3

    def test_clear_keeps_monotonic_counters(self):
        ring = make_ring(capacity=4)
        for i in range(6):
            ring.record("tick", str(i))
        ring.clear()
        assert len(ring) == 0
        assert ring.total_recorded == 6 and ring.dropped == 2
        ring.record("tick", "after")
        assert ring.events()[0].seq == 6

    def test_disabled_ring_records_nothing(self):
        ring = TraceBuffer(capacity=4)
        ring.record("tick", "ignored")
        assert ring.total_recorded == 0 and len(ring) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceBuffer(capacity=0)

    def test_wrap_surfaces_as_telemetry_metric(self):
        # The machine wires ring.on_drop to a counter, so silent loss is
        # impossible once telemetry is on.
        platform = TeePlatform.hyperenclave(SMALL)
        machine = platform.machine
        machine.telemetry.enable()
        handle = platform.load_enclave(demo_image())
        overflow = machine.trace.capacity + 10
        for i in range(overflow):
            machine.trace.record("synthetic", str(i))
        handle.destroy()
        counter = machine.telemetry.registry.counter("trace",
                                                     "dropped_events")
        assert counter.value == machine.trace.dropped > 0
        stats = machine.trace.stats()
        assert stats["recorded"] - stats["entries"] == stats["dropped"]


class TestCauses:
    def test_cause_paths_nest_and_stay_unique(self):
        ring = make_ring()
        ring.push_cause("ecall:nop")
        ring.record("eenter", "x")
        ring.push_cause("ocall:log")
        ring.record("eexit", "y")
        ring.pop_cause()
        ring.pop_cause()
        ring.push_cause("ecall:nop")
        ring.record("eenter", "z")
        events = ring.events()
        assert events[0].cause == "ecall:nop#1"
        assert events[1].cause == "ecall:nop#1/ocall:log#2"
        assert events[2].cause == "ecall:nop#3"      # distinct instance
        assert ring.current_cause != ""

    def test_pop_on_empty_stack_is_safe(self):
        ring = make_ring()
        ring.pop_cause()
        assert ring.current_cause == ""


class TestTaps:
    def test_tap_sees_events_the_ring_evicts(self):
        ring = make_ring(capacity=2)
        seen = []
        ring.tap(seen.append)
        for i in range(6):
            ring.record("tick", str(i))
        assert [e.seq for e in seen] == list(range(6))
        assert len(ring) == 2
