"""End-to-end telemetry over the real platform.

The two invariants that make telemetry safe to ship:

* spans/metrics observe the simulated clock, never charge it — enabling
  telemetry cannot change a calibrated cycle count;
* attribution is total — per-subsystem cycle totals sum exactly to the
  machine's run total, whatever the workload did.
"""

from repro.platform import TeePlatform
from repro.telemetry import cycles_by_subsystem
from repro.telemetry.export import machine_record, machine_records

from tests.sdk.conftest import SMALL, demo_image


def _run_workload(platform, handle):
    handle.proxies.add_numbers(a=1, b=2)
    va = handle.ctx.malloc(4096)
    handle.ctx.write(va, b"x" * 4096)


class TestPlatformTelemetry:
    def test_spans_recorded_for_edge_calls(self):
        platform = TeePlatform.hyperenclave(SMALL)
        platform.machine.telemetry.enable()
        handle = platform.load_enclave(demo_image())
        _run_workload(platform, handle)
        names = {rec.name for rec in platform.machine.telemetry.spans}
        assert "sdk.create_enclave" in names
        assert "sdk.ecall" in names
        assert "world.eenter" in names
        assert "world.eexit" in names
        handle.destroy()

    def test_enabling_telemetry_does_not_change_cycle_counts(self):
        totals = []
        for enable in (False, True):
            platform = TeePlatform.hyperenclave(SMALL)
            if enable:
                platform.machine.telemetry.enable()
            handle = platform.load_enclave(demo_image())
            _run_workload(platform, handle)
            handle.destroy()
            totals.append(platform.machine.cycles.total)
        assert totals[0] == totals[1]

    def test_subsystem_totals_sum_exactly(self):
        platform = TeePlatform.hyperenclave(SMALL)
        platform.machine.telemetry.enable()
        handle = platform.load_enclave(demo_image())
        _run_workload(platform, handle)
        record = machine_record(platform.machine.telemetry)
        by_subsystem = cycles_by_subsystem(record["cycles"]["by_category"])
        assert sum(by_subsystem.values()) == record["cycles"]["total"]
        handle.destroy()

    def test_hypercall_counters_labeled_by_op(self):
        platform = TeePlatform.hyperenclave(SMALL)
        platform.machine.telemetry.enable()
        handle = platform.load_enclave(demo_image())
        snap = platform.machine.telemetry.registry.snapshot()
        ops = {e["labels"]["op"]: e["value"] for e in snap
               if e["name"] == "hypercalls"}
        assert ops.get("ecreate") == 1
        assert ops.get("einit") == 1
        assert ops.get("eadd", 0) > 1
        handle.destroy()

    def test_hardware_collectors_in_snapshot(self):
        platform = TeePlatform.hyperenclave(SMALL)
        platform.machine.telemetry.enable()
        handle = platform.load_enclave(demo_image())
        _run_workload(platform, handle)
        (record,) = machine_records([("m", platform.machine.telemetry)])
        hw = record["hardware"]
        assert "tlb" in hw and "llc" in hw and "encryption" in hw
        assert hw["encryption"]["engine"] == "amd-sme"
        assert "os" in hw["paging"] and "enclave" in hw["paging"]
        assert hw["paging"]["enclave"]["walks"] > 0
        assert hw["trace"] == platform.machine.trace.stats()
        handle.destroy()

    def test_trace_events_are_int_stamped(self):
        platform = TeePlatform.hyperenclave(SMALL)
        platform.machine.trace.enable()
        handle = platform.load_enclave(demo_image())
        _run_workload(platform, handle)
        for event in platform.machine.trace:
            assert isinstance(event.cycle, int)
            assert "." not in str(event).partition("]")[0]  # no float stamps
        handle.destroy()
