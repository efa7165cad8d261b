"""Tests for the telemetry hub: spans, sites, attribution, collectors."""

import pytest

from repro.errors import EnclaveError
from repro.hw.cycles import CycleCounter
from repro.telemetry import (NULL_SPAN, RequestTracer, Telemetry,
                             cycles_by_subsystem, subsystem_for_category)


@pytest.fixture
def tel():
    cycles = CycleCounter()
    t = Telemetry(cycles)
    t.enable()
    return t


class TestAttribution:
    def test_exact_and_prefix_mapping(self):
        assert subsystem_for_category("hypercall") == "monitor"
        assert subsystem_for_category("sdk-ecall") == "sdk"
        assert subsystem_for_category("eenter:hu") == "world"
        assert subsystem_for_category("pf:gu") == "world"
        assert subsystem_for_category("syscall") == "os"

    def test_mapping_is_total(self):
        assert subsystem_for_category("brand-new-category") == "other"

    def test_by_subsystem_sums_to_total(self):
        breakdown = {"hypercall": 100, "eenter:p": 50, "mystery": 7}
        agg = cycles_by_subsystem(breakdown)
        assert sum(agg.values()) == sum(breakdown.values())
        assert agg == {"monitor": 100, "world": 50, "other": 7}


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        t = Telemetry(CycleCounter())
        assert t.span("world.eenter") is NULL_SPAN
        assert t.span("sdk.ecall", enclave=1) is NULL_SPAN
        with t.span("anything"):
            pass
        assert len(t.spans) == 0

    def test_span_measures_cycles(self, tel):
        with tel.span("world.eenter", enclave=1):
            tel.cycles.charge(500, "eenter:hu")
        (rec,) = tel.spans
        assert rec.name == "world.eenter"
        assert rec.dur_cycles == 500
        assert rec.self_cycles == 500
        assert rec.labels == {"enclave": 1}
        assert not rec.error

    def test_nesting_attributes_self_cycles(self, tel):
        with tel.span("sdk.ecall"):
            tel.cycles.charge(100, "sdk-ecall")
            with tel.span("world.eenter"):
                tel.cycles.charge(40, "eenter:hu")
            tel.cycles.charge(10, "sdk-ecall")
        inner, outer = tel.spans
        assert set(tel.frames) == {("sdk.ecall",),
                                   ("sdk.ecall", "world.eenter")}
        assert outer.dur_cycles == 150
        assert inner.dur_cycles == 40
        assert outer.self_cycles == 110

    def test_exception_unwinds_and_flags_error(self, tel):
        with pytest.raises(EnclaveError):
            with tel.span("sdk.ecall"):
                with tel.span("world.eenter"):
                    raise EnclaveError("boom")
        inner, outer = tel.spans
        assert inner.error and outer.error
        assert tel._stack == []

    def test_exception_skipping_child_exit_still_unwinds(self, tel):
        # Simulate a child span whose __exit__ never ran: the parent's
        # exit must still pop it off the stack.
        child = tel.span("world.eenter")
        parent = tel.span("sdk.ecall")
        parent.__enter__()
        child.__enter__()
        parent.__exit__(None, None, None)
        assert tel._stack == []

    def test_span_metrics_aggregate(self, tel):
        for _ in range(3):
            with tel.span("world.eenter", mode="hu"):
                tel.cycles.charge(1000, "eenter:hu")
        snap = {e["name"]: e for e in tel.registry.snapshot()}
        assert snap["eenter.calls"]["value"] == 3
        assert snap["eenter.cycles"]["value"] == 3000
        assert snap["eenter.cycles_hist"]["count"] == 3
        assert snap["eenter.calls"]["subsystem"] == "world"
        assert snap["eenter.calls"]["labels"] == {"mode": "hu"}


class _FormatProbe:
    """A site field that counts how often a template formats it."""

    def __init__(self):
        self.calls = 0

    def __format__(self, spec):
        self.calls += 1
        return "built"


class TestSites:
    def test_ecall_site_opens_request_span_and_cause(self, tel):
        tracer = tel.requests = RequestTracer(tel.cycles)
        with tel.site("ecall", func="f", enclave=1):
            with tel.site("hypercall", op="eadd"):
                tel.cycles.charge(10, "hypercall")
        (record,) = tracer.requests
        assert record["name"] == "f" and record["tenant"] == "1"
        assert not record["error"]
        (segment,) = record["segments"]
        assert (segment["kind"], segment["name"]) == ("hypercall", "eadd")
        (ev,) = tel.ring.events("hypercall")
        assert ev.detail == "eadd"
        assert ev.cause.startswith("ecall:f#")
        (span,) = tel.spans
        assert span.name == "sdk.ecall"
        assert span.labels == {"func": "f", "enclave": 1}

    def test_exception_flags_error_and_skips_exit_event(self, tel):
        tracer = tel.requests = RequestTracer(tel.cycles)
        with pytest.raises(EnclaveError):
            with tel.site("ecall", func="f", enclave=1):
                with tel.site("eexit", enclave=1, mode="gu"):
                    raise EnclaveError("boom")
        (record,) = tracer.requests
        assert record["error"] is True
        assert record["segments"][0]["end"] is not None
        assert tel.ring.events("eexit") == []
        assert [s.error for s in tel.spans] == [True, True]
        assert tel.ring.current_cause == ""

    def test_tracer_records_with_telemetry_disabled(self):
        t = Telemetry(CycleCounter())
        tracer = t.requests = RequestTracer(t.cycles)
        with t.site("ecall", func="f", enclave=1):
            with t.site("page_fault", enclave=1, va=0x1234):
                pass
        (record,) = tracer.requests
        (segment,) = record["segments"]
        assert (segment["kind"], segment["name"]) == ("page_fault",
                                                      "0x1234")
        assert len(t.spans) == 0 and len(t.ring) == 0


class TestEventsAndCounts:
    def test_event_detail_lazy(self, tel):
        probe = _FormatProbe()
        tel.disable()
        assert tel.site("signal", pid=probe, sig=4) is NULL_SPAN
        with tel.site("signal", pid=probe, sig=4):
            pass
        assert probe.calls == 0
        tel.enable()
        with tel.site("signal", pid=probe, sig=4):
            pass
        assert probe.calls == 1
        (ev,) = tel.ring.events("signal")
        assert ev.detail == "pid=built sig=4"

    def test_count_noop_when_disabled(self):
        t = Telemetry(CycleCounter())
        t.count("sdk", "calls")
        assert len(t.registry) == 0

    def test_reset_drops_everything(self, tel):
        with tel.span("sdk.ecall"):
            pass
        with tel.site("signal", pid=1, sig=4):
            pass
        tel.reset()
        assert len(tel.spans) == 0
        assert len(tel.registry) == 0
        assert len(tel.ring) == 0


class TestCollectors:
    def test_hardware_stats_samples_collectors(self, tel):
        tel.add_collector("fake", lambda: {"hits": 7})
        tel.paging_stats("os").walks = 3
        hw = tel.hardware_stats()
        assert hw["fake"] == {"hits": 7}
        assert hw["paging"]["os"]["walks"] == 3

    def test_paging_stats_interned_per_domain(self, tel):
        assert tel.paging_stats("os") is tel.paging_stats("os")
        assert tel.paging_stats("os") is not tel.paging_stats("enclave")
