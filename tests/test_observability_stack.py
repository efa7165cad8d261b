"""The whole observability stack at once, over a full enclave lifecycle.

Telemetry, the monitor-invariant sanitizer, and the exact profiler are
all pure observers of the simulated machine; this test turns on all
three together — load, edge calls, ocall round-trip, heap traffic,
destroy — and checks that (a) the sanitizer saw no violations, (b) the
telemetry snapshot validates against the schema, (c) the profile is a
complete accounting of the span tree, and (d) the cycle counts are
bit-identical to the same workload with everything off.
"""

import dataclasses

import pytest

from repro.platform import TeePlatform
from repro.profiler import profile_document, self_total
from repro.telemetry import sink as telemetry_sink
from repro.telemetry.schema import validate_snapshot

from tests.sdk.conftest import SMALL, demo_image

ALL_ON = dataclasses.replace(SMALL, sanitize=True)
ALL_OFF = dataclasses.replace(SMALL, sanitize=False)


def _lifecycle(config):
    platform = TeePlatform.hyperenclave(config)
    handle = platform.load_enclave(demo_image())
    handle.register_ocall("ocall_sink", lambda data, n: 0)
    handle.proxies.add_numbers(a=40, b=2)
    handle.proxies.sum_bytes(data=b"\x07" * 1024, n=1024)
    handle.proxies.echo_through_ocall(data=b"hello", n=5)
    va = handle.ctx.malloc(16 * 4096)
    handle.ctx.write(va, b"z" * (16 * 4096))
    handle.proxies.increment_all(buf=b"\x00" * 256, n=256)
    handle.destroy()
    return platform


class TestObservabilityStack:
    def _instrumented_run(self):
        with telemetry_sink.capture() as sink:
            platform = _lifecycle(ALL_ON)
        return platform, sink

    def test_sanitizer_sees_no_violations(self):
        platform, _ = self._instrumented_run()
        assert platform.machine.sanitizer is not None
        assert platform.machine.sanitizer.violations == 0

    def test_snapshot_validates_against_the_schema(self):
        _, sink = self._instrumented_run()
        document = sink.document()          # raises on an open span
        validate_snapshot(document)
        (machine,) = document["machines"]
        # Regrouping float cycle charges by subsystem changes the
        # summation order, so exactness here is up to float rounding.
        assert sum(machine["cycles"]["by_subsystem"].values()) == \
            pytest.approx(machine["cycles"]["total"], abs=1e-6)

    def test_profile_totals_equal_span_totals(self):
        platform, sink = self._instrumented_run()
        doc = profile_document(sink.items)
        (machine,) = doc["machines"]
        assert machine["total_span_cycles"] > 0
        assert self_total(machine) == machine["total_span_cycles"]
        assert self_total(doc["combined"]) == \
            doc["combined"]["total_span_cycles"]
        # Spans cover real work but never more than the machine ran.
        assert machine["total_span_cycles"] <= platform.machine.cycles.total

    def test_cycles_identical_with_everything_off(self):
        platform_on, _ = self._instrumented_run()
        platform_off = _lifecycle(ALL_OFF)
        assert platform_off.machine.telemetry.enabled is False
        assert platform_off.machine.sanitizer is None
        assert platform_on.machine.cycles.total == \
            platform_off.machine.cycles.total


class TestZeroPerturbationTable1:
    """The zero-perturbation pin: every observer at once is still free.

    Table 1 with the invariant sanitizer, the flight recorder and the
    side artifacts all active must produce bit-identical simulated
    cycles, profile and ``Machine.state_hash()`` fingerprints to a run
    without them — the observers may cost host wall time, never
    simulated time.
    """

    def test_table1_bit_identical_with_all_observers_on(
            self, tmp_path, monkeypatch):
        from repro.bench.registry import REGISTRY
        from repro.bench.runner import run_one

        spec = REGISTRY["table1_edge_calls"]
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        bare = run_one(spec)

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        full = run_one(spec, record_dir=tmp_path, artifacts_dir=tmp_path)

        assert full.artifact["fingerprints"] and \
            full.artifact["fingerprints"] == bare.artifact["fingerprints"]
        assert full.artifact["metrics"] == bare.artifact["metrics"]
        assert full.artifact["profile"] == bare.artifact["profile"]
        # The instrumented run wrote its cycle flamegraph, and no
        # host-time twin next to it.
        assert (tmp_path / "table1_edge_calls.collapsed").exists()
        assert not (tmp_path / "table1_edge_calls.wall.collapsed").exists()
        assert (tmp_path / "table1_edge_calls.journal.json").exists()
