"""The invariants that make profiling safe on calibrated runs.

* Capturing telemetry and building the exact profile never charges the
  simulated clock — a profiled run's cycle counts are bit-identical to a
  bare run (Table 1/2 calibration is untouched);
* attribution is total — frame self-cycles sum exactly to root-span
  cycles, for each machine and combined;
* the emitted collapsed-stack file is well-formed for flamegraph tooling
  and conserves the same total.
"""

from repro.platform import TeePlatform
from repro.profiler import (combined_profile, parse_collapsed, self_total,
                            write_collapsed)
from repro.telemetry import sink as telemetry_sink
from repro.telemetry.export import machine_records

from tests.sdk.conftest import SMALL, demo_image


def _lifecycle(record_total) -> tuple:
    """Load, ecall, ocall round-trip, heap traffic, destroy."""
    platform = TeePlatform.hyperenclave(SMALL)
    handle = platform.load_enclave(demo_image())
    handle.register_ocall("ocall_sink", lambda data, n: 0)
    handle.proxies.add_numbers(a=1, b=2)
    handle.proxies.sum_bytes(data=b"\x05" * 512, n=512)
    handle.proxies.echo_through_ocall(data=b"ping", n=4)
    va = handle.ctx.malloc(8192)
    handle.ctx.write(va, b"y" * 8192)
    handle.destroy()
    record_total.append(platform.machine.cycles.total)
    return platform


class TestProfilerInvariants:
    def test_profiled_run_is_bit_identical_to_bare_run(self):
        totals = []
        _lifecycle(totals)                        # bare: no sink, no spans
        with telemetry_sink.capture() as sink:    # profiled
            _lifecycle(totals)
        profile = combined_profile(machine_records(sink.items))
        assert profile["total_span_cycles"] > 0
        assert totals[0] == totals[1]

    def test_accounting_is_total_on_a_real_run(self):
        with telemetry_sink.capture() as sink:
            _lifecycle([])
        records = machine_records(sink.items)
        for record in records:
            assert self_total(record) == record["total_span_cycles"]
        profile = combined_profile(records)
        assert self_total(profile) == profile["total_span_cycles"]

    def test_real_run_covers_the_edge_call_stacks(self):
        with telemetry_sink.capture() as sink:
            _lifecycle([])
        profile = combined_profile(machine_records(sink.items))
        stacks = {tuple(f["stack"]) for f in profile["frames"]}
        assert ("sdk.ecall",) in stacks
        assert ("sdk.ecall", "world.eenter") in stacks
        assert ("sdk.ecall", "world.eexit") in stacks
        assert any("sdk.ocall" in stack for stack in stacks)

    def test_collapsed_file_conserves_total(self, tmp_path):
        with telemetry_sink.capture() as sink:
            _lifecycle([])
        records = machine_records(sink.items)
        path = write_collapsed(tmp_path / "run.collapsed", records)
        parsed = parse_collapsed(path.read_text())
        assert sum(parsed.values()) == \
            combined_profile(records)["total_span_cycles"]
        assert all(count > 0 for count in parsed.values())
