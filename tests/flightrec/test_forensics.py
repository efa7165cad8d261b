"""Crash forensics: a SanitizerViolation leaves an inspectable bundle.

Emission is opt-in (a recorder on the active sink, or
``REPRO_FORENSICS_DIR``); the
bundle carries enough to debug post-mortem without re-running — the
machine's record (cycles, metrics, hardware stats, frame table), state
hash + per-component fingerprints, CPU/TLB/page-table dump, the open
span stack and the last journal events.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.report import bundle_report
from repro.flightrec import forensics
from repro.flightrec.scenario import run_recorded
from repro.hw.machine import Machine, MachineConfig
from repro.monitor.boot import measured_late_launch
from repro.sanitizer import SAN_MEASURE, SanitizerViolation
from repro.telemetry.export import machine_record
from tests.monitor.conftest import build_minimal_enclave

SANITIZED_CONFIG = MachineConfig(
    phys_size=512 * 1024 * 1024,
    reserved_base=256 * 1024 * 1024,
    reserved_size=128 * 1024 * 1024,
    sanitize=True,
)


def _provoke_violation(machine, monitor):
    """Patch a measured page behind the monitor's back (SAN-MEASURE)."""
    eid, enclave = build_minimal_enclave(monitor, machine)
    machine.phys.write(enclave.pages[0].pa, b"patched after measurement")
    monitor.audit_invariants()


class TestEmissionGate:
    def test_no_bundle_without_optin(self, tmp_path, monkeypatch):
        monkeypatch.delenv(forensics.FORENSICS_DIR_ENV, raising=False)
        machine = Machine(SANITIZED_CONFIG)
        boot = measured_late_launch(machine,
                                    monitor_private_size=32 * 1024 * 1024)
        with pytest.raises(SanitizerViolation) as exc:
            _provoke_violation(machine, boot.monitor)
        assert not hasattr(exc.value, "forensic_bundle")

    def test_env_var_enables_emission(self, tmp_path, monkeypatch):
        monkeypatch.setenv(forensics.FORENSICS_DIR_ENV, str(tmp_path))
        machine = Machine(SANITIZED_CONFIG)
        boot = measured_late_launch(machine,
                                    monitor_private_size=32 * 1024 * 1024)
        with pytest.raises(SanitizerViolation) as exc:
            _provoke_violation(machine, boot.monitor)
        bundle_path = exc.value.forensic_bundle
        document = forensics.load_bundle(bundle_path)
        assert document["error"]["type"] == "SanitizerViolation"
        assert document["error"]["code"] == SAN_MEASURE


class TestBundleContents:
    @pytest.fixture
    def bundle(self, tmp_path, monkeypatch):
        monkeypatch.setenv(forensics.FORENSICS_DIR_ENV, str(tmp_path))
        machine = Machine(SANITIZED_CONFIG)
        machine.telemetry.enable()
        boot = measured_late_launch(machine,
                                    monitor_private_size=32 * 1024 * 1024)
        with pytest.raises(SanitizerViolation) as exc:
            _provoke_violation(machine, boot.monitor)
        return machine, forensics.load_bundle(exc.value.forensic_bundle)

    def test_state_hash_matches_live_machine(self, bundle):
        machine, document = bundle
        assert document["state_hash"] == machine.state_hash()
        assert set(document["state_fingerprint"]) >= \
            {"cpu", "cycles", "monitor", "phys", "tlb", "tpm"}

    def test_dump_covers_cpu_tlb_and_page_tables(self, bundle):
        _, document = bundle
        dump = document["dump"]
        assert "cpu" in dump and "tlb" in dump
        monitor_dump = dump["monitor"]
        assert monitor_dump["enclaves"], "enclave page tables must be walked"

    def test_bundle_carries_trace_tail_and_metrics(self, bundle):
        _, document = bundle
        assert document["events"], "trace tail must not be empty"
        assert document["hardware"]["trace"]["recorded"] > 0
        names = {(m["subsystem"], m["name"]) for m in document["metrics"]}
        assert ("sanitizer", "violations") in names

    def test_bundle_is_the_machine_record_plus_its_own_fields(self, bundle):
        # The same builder as the artifact path: no second one.
        machine, document = bundle
        record = json.loads(json.dumps(machine_record(machine.telemetry,
                                                      document["label"])))
        assert {key: document[key] for key in record} == record
        assert set(document) - set(record) == {
            "version", "kind", "error", "state_hash", "state_fingerprint",
            "config", "open_spans", "events", "dump"}

    def test_load_refuses_a_corrupted_record(self, bundle, tmp_path):
        _, document = bundle
        path = tmp_path / "corrupted.json"
        for field, value, message in (
                ("metrics", None, "missing metrics list"),
                ("spans", {"recorded": 1, "dropped": 2},
                 "more spans dropped than recorded"),
                ("version", 1, "unsupported version 1")):
            path.write_text(json.dumps({**document, field: value}))
            with pytest.raises(ValueError, match=message):
                forensics.load_bundle(path)

    def test_render_is_human_readable(self, bundle):
        _, document = bundle
        text = bundle_report(document)
        assert "SanitizerViolation" in text and SAN_MEASURE in text
        assert f"state hash {document['state_hash']}" in text
        assert "last" in text and "events:" in text
        assert "| component | digest |" in bundle_report(document,
                                                         "markdown")


class TestCrashedScenario:
    def test_crashed_recorded_run_emits_bundles(self, lifecycle_scenario,
                                                tmp_path, monkeypatch):
        from repro.flightrec import scenario as flightrec_scenario
        monkeypatch.setenv(forensics.FORENSICS_DIR_ENV, str(tmp_path))

        def crashing(args):
            from tests.flightrec.conftest import demo_lifecycle
            demo_lifecycle(args)
            raise RuntimeError("scenario blew up")

        flightrec_scenario.register("test:crash", crashing)
        try:
            with pytest.raises(RuntimeError, match="blew up") as exc:
                run_recorded("test:crash", {"iters": 1})
        finally:
            flightrec_scenario.unregister("test:crash")
        document = forensics.load_bundle(exc.value.forensic_bundle)
        assert document["error"]["type"] == "RuntimeError"
        # Recorder was active, so the tail comes from the lossless
        # journal and the label from the journal header.
        assert document["label"].startswith("machine-")
        assert document["events"]

    def test_violation_writes_one_bundle_per_machine(self, tmp_path,
                                                     monkeypatch):
        from repro.flightrec import scenario as flightrec_scenario
        monkeypatch.setenv(forensics.FORENSICS_DIR_ENV, str(tmp_path))
        machines = []

        def violating(args):
            machines.append(Machine(SANITIZED_CONFIG))     # bystander
            machine = Machine(SANITIZED_CONFIG)
            machines.append(machine)
            boot = measured_late_launch(
                machine, monitor_private_size=32 * 1024 * 1024)
            _provoke_violation(machine, boot.monitor)

        flightrec_scenario.register("test:violation", violating)
        try:
            with pytest.raises(SanitizerViolation) as exc:
                run_recorded("test:violation", {})
        finally:
            flightrec_scenario.unregister("test:violation")
        bundles = [forensics.load_bundle(path)
                   for path in sorted(tmp_path.glob("forensic-*.json"))]
        assert sorted(b["label"] for b in bundles) == \
            ["machine-1", "machine-2"]
        carried = forensics.load_bundle(exc.value.forensic_bundle)
        assert carried["label"] == "machine-2"
        assert carried["state_hash"] == machines[1].state_hash()
        assert carried["error"]["code"] == SAN_MEASURE

    def test_crash_inside_a_capture_skips_its_earlier_machines(
            self, tmp_path, monkeypatch):
        from repro.flightrec import scenario as flightrec_scenario
        from repro.telemetry import sink as telemetry_sink
        monkeypatch.setenv(forensics.FORENSICS_DIR_ENV, str(tmp_path))
        machines = []

        def crashing(args):
            machines.append(Machine(SANITIZED_CONFIG))
            raise RuntimeError("scenario blew up")

        flightrec_scenario.register("test:crash-late", crashing)
        try:
            with telemetry_sink.capture() as sink:
                earlier = Machine(SANITIZED_CONFIG)
                with pytest.raises(RuntimeError) as exc:
                    run_recorded("test:crash-late", {})
        finally:
            flightrec_scenario.unregister("test:crash-late")
        assert [m for _, m in sink.machines()] == [earlier, machines[0]]
        bundles = [forensics.load_bundle(path)
                   for path in sorted(tmp_path.glob("forensic-*.json"))]
        assert [b["label"] for b in bundles] == ["machine-2"]
        carried = forensics.load_bundle(exc.value.forensic_bundle)
        assert carried["state_hash"] == machines[0].state_hash()
