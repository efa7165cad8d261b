"""Request tracing: trace-context propagation and zero perturbation.

The tracer's contract has two halves.  Causally: every top-level ecall
is one request, and everything the monitor does on its behalf — world
switches, nested ocalls, page faults, swap traffic, TLB shootdowns —
appears as a balanced segment tree under that request, surviving
AEX-interrupted re-entry and ocall→ecall nesting of depth > 1.
Observationally: tracing charges nothing, so a traced run's figures,
cycles and state fingerprints are bit-identical to an untraced run.
"""

from __future__ import annotations

import pytest

from repro.hw.machine import MachineConfig
from repro.hw.phys import PAGE_SIZE
from repro.monitor.enclave import ENCLAVE_BASE_VA
from repro.monitor.structs import EnclaveConfig, EnclaveMode
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage
from repro.telemetry.requests import (attach_machine, detach_machine,
                                      requests_document)
from repro.telemetry.schema import validate_requests
from tests.sdk.conftest import SMALL

TRACE_EDL = """
enclave {
    trusted {
        public uint64 outer();
        public uint64 inner(uint64 x);
        public uint64 faulty();
        public uint64 touch_pages(uint64 n);
        public uint64 boom();
    };
    untrusted {
        uint64 ocall_reenter();
        uint64 ocall_nop();
    };
};
"""

REGION_VA = ENCLAVE_BASE_VA + 128 * PAGE_SIZE

# A machine whose EPC (~6 MB after the monitor's carve-out) is smaller
# than the touch_pages working set, so sweeps swap.
TINY = MachineConfig(
    phys_size=256 * 1024 * 1024,
    reserved_base=128 * 1024 * 1024,
    reserved_size=8 * 1024 * 1024,
)


def t_outer(ctx):
    return ctx.ocall("ocall_reenter")


def t_inner(ctx, x):
    ctx.ocall("ocall_nop")
    return x + 1


def t_faulty(ctx):
    ctx.register_exception_handler(lambda c, v: None)
    ctx.trigger_ud()
    return 7


def t_touch_pages(ctx, n):
    faults = 0
    for i in range(n):
        va = REGION_VA + i * PAGE_SIZE
        if ctx.enclave.page_at(va) is None:
            faults += 1
        ctx.read(va, 8)
    return faults


def t_boom(ctx):
    raise ValueError("trusted function failed")


TRUSTED = {"outer": t_outer, "inner": t_inner, "faulty": t_faulty,
           "touch_pages": t_touch_pages, "boom": t_boom}


def _load(platform, *, heap=1024 * 1024):
    image = EnclaveImage.build(
        "tracee", TRACE_EDL, dict(TRUSTED),
        EnclaveConfig(mode=EnclaveMode.GU, heap_size=heap, tcs_count=2))
    handle = platform.load_enclave(image)
    handle.register_ocall("ocall_nop", lambda: 0)
    handle.register_ocall(
        "ocall_reenter", lambda: handle.ecall("inner", x=41))
    return handle


def _kinds(segments):
    return [s["kind"] for s in segments]


def _walk(segments):
    for segment in segments:
        yield segment
        yield from _walk(segment["segments"])


def _assert_balanced(record):
    assert record["end"] is not None and record["end"] >= record["begin"]
    for segment in _walk(record["segments"]):
        assert segment["end"] is not None, f"unclosed {segment['kind']}"
        assert record["begin"] <= segment["begin"] \
            <= segment["end"] <= record["end"]


@pytest.fixture
def traced_platform():
    platform = TeePlatform.hyperenclave(SMALL)
    tracer = attach_machine(platform.machine, label="t")
    yield platform, tracer
    detach_machine(platform.machine)


class TestTracerMechanics:
    def test_ids_are_label_vcpu_seq(self, traced_platform):
        platform, tracer = traced_platform
        handle = _load(platform)
        handle.ecall("inner", x=1)
        handle.ecall("inner", x=2)
        document = requests_document([tracer])
        validate_requests(document)
        ids = [r["id"] for r in document["traces"][0]["requests"]]
        # Build-time hypercalls ran before any request: seq starts at 0
        # regardless, because only open requests consume sequence slots.
        assert ids == ["t/cpu0/0", "t/cpu0/1"]
        handle.destroy()

    def test_world_switches_bracket_the_request(self, traced_platform):
        platform, tracer = traced_platform
        handle = _load(platform)
        handle.ecall("inner", x=1)
        (record,) = tracer.requests
        kinds = _kinds(record["segments"])
        assert kinds[0] == "eenter" and "eexit" in kinds
        _assert_balanced(record)
        handle.destroy()

    def test_nested_ocall_depth_two(self, traced_platform):
        """outer -> ocall_reenter -> ecall inner -> ocall_nop: one
        request, one causal tree four hops deep."""
        platform, tracer = traced_platform
        handle = _load(platform)
        assert handle.ecall("outer") == 42
        (record,) = tracer.requests
        assert record["name"] == "outer"
        ocall = next(s for s in _walk(record["segments"])
                     if s["kind"] == "ocall")
        assert ocall["name"] == "ocall_reenter"
        nested = next(s for s in _walk(ocall["segments"])
                      if s["kind"] == "ecall")
        assert nested["name"] == "inner"
        inner_ocall = next(s for s in _walk(nested["segments"])
                           if s["kind"] == "ocall")
        assert inner_ocall["name"] == "ocall_nop"
        _assert_balanced(record)
        handle.destroy()

    def test_failed_ecall_is_recorded_with_error(self, traced_platform):
        platform, tracer = traced_platform
        handle = _load(platform)
        with pytest.raises(ValueError):
            handle.ecall("boom")
        (record,) = tracer.requests
        assert record["error"] is True
        _assert_balanced(record)
        handle.destroy()

    def test_monitor_work_outside_requests_is_not_recorded(
            self, traced_platform):
        """Enclave build/destroy hypercalls run with no open request;
        the tracer must stay empty (begin_segment no-ops)."""
        platform, tracer = traced_platform
        handle = _load(platform)
        handle.destroy()
        assert tracer.requests == []
        assert tracer._stack == []


class TestContextPropagation:
    def test_aex_interrupted_ecall_keeps_its_context(self, traced_platform):
        """A #UD inside the ecall takes the two-phase path (AEX, signal,
        internal re-entry, ERESUME); the trace context survives and the
        world switches land inside the same request."""
        platform, tracer = traced_platform
        handle = _load(platform)
        assert handle.ecall("faulty") == 7
        (record,) = tracer.requests
        kinds = [s["kind"] for s in _walk(record["segments"])]
        assert "aex" in kinds and "eresume" in kinds
        # The re-entry for phase 2 is a world switch inside the request,
        # not a new request.
        assert kinds.count("eenter") >= 2
        assert len(tracer.requests) == 1
        _assert_balanced(record)
        handle.destroy()

    def test_swap_triggered_faults_attach_to_the_request(self):
        """Under EPC pressure the fault path swaps pages in and out;
        the whole chain (page_fault -> swap_out/swap_in) must appear
        under the sweeping request."""
        platform = TeePlatform.hyperenclave(TINY)
        tracer = attach_machine(platform.machine, label="tiny")
        handle = _load(platform, heap=8 * 1024 * 1024)
        eid = handle.enclave_id
        pages = 2048                      # 8 MB > the ~6 MB EPC
        platform.monitor.reserve_region(eid, REGION_VA,
                                        pages * PAGE_SIZE)
        faults = handle.ecall("touch_pages", n=pages)
        # A handful of region pages may already be resident (layout
        # overlap); the sweep still faults nearly the whole set.
        assert faults > pages - 64
        (record,) = tracer.requests
        kinds = [s["kind"] for s in _walk(record["segments"])]
        assert "page_fault" in kinds
        assert "swap_out" in kinds, "sweep must overflow the EPC"
        # Re-sweep: now the early pages were swapped out, so the fault
        # path swaps them back in — still inside one traced request.
        assert handle.ecall("touch_pages", n=pages) > 0
        second = tracer.requests[1]
        second_kinds = [s["kind"] for s in _walk(second["segments"])]
        assert "swap_in" in second_kinds
        # swap_in nests under the page fault that triggered it.
        fault = next(s for s in _walk(second["segments"])
                     if s["kind"] == "page_fault"
                     and any(c["kind"] == "swap_in" for c in s["segments"]))
        assert fault is not None
        for rec in tracer.requests:
            _assert_balanced(rec)
        assert record["steals"], "reclaim under pressure must be attributed"
        document = requests_document([tracer])
        validate_requests(document)
        handle.destroy()
        detach_machine(platform.machine)


class TestZeroPerturbation:
    def test_table1_is_bit_identical_with_tracing_on(self):
        """The determinism pin: tracing must not move one cycle of the
        paper's Table 1, nor the machine state fingerprints."""
        from repro.bench.runner import _ensure_benchmarks_importable
        from repro.telemetry import sink as telemetry_sink
        _ensure_benchmarks_importable()
        import benchmarks.bench_table1_edge_calls as table1

        def run(trace_requests):
            with telemetry_sink.capture(
                    trace_requests=trace_requests) as sink:
                figures = table1.run_experiment()
                fingerprints = sink.state_fingerprints()
                cycles = sum(tel.cycles.total for _, tel in sink.items)
                document = sink.requests_document()
            return figures, fingerprints, cycles, document

        bare = run(False)
        traced = run(True)
        assert traced[0] == bare[0], "figures moved under tracing"
        assert traced[1] == bare[1], "fingerprints moved under tracing"
        assert traced[2] == bare[2], "cycles moved under tracing"
        assert bare[3] is None and traced[3] is not None
        validate_requests(traced[3])
        assert any(t["requests"] for t in traced[3]["traces"])


class TestSchema:
    def test_undeclared_segment_kind_is_rejected(self, traced_platform):
        """A hand-edited document whose segment kind no site row
        declares (``page-fault``, for the real ``page_fault``) fails
        validation once read back."""
        import json

        from repro.telemetry.schema import SchemaError
        platform, tracer = traced_platform
        handle = _load(platform)
        handle.ecall("inner", x=1)
        document = requests_document([tracer])
        validate_requests(document)
        (record,) = document["traces"][0]["requests"]
        record["segments"][0]["kind"] = "page-fault"
        with pytest.raises(SchemaError, match="undeclared segment kind"):
            validate_requests(json.loads(json.dumps(document)))
        handle.destroy()
