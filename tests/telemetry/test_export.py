"""Tests for the telemetry exporters and the snapshot schema."""

import json

import pytest

from repro.hw.cycles import CycleCounter
from repro.telemetry import (SchemaError, Telemetry, validate_snapshot)
from repro.telemetry.export import (chrome_trace_document,
                                    snapshot_document, trace_path_for,
                                    write_telemetry)


def _busy_telemetry() -> Telemetry:
    tel = Telemetry(CycleCounter())
    tel.enable()
    with tel.span("sdk.ecall", func="nop", enclave=1):
        tel.cycles.charge(100, "sdk-ecall")
        with tel.span("world.eenter", enclave=1):
            tel.cycles.charge(1163, "eenter:hu")
    tel.cycles.charge(40, "syscall")
    return tel


class TestSnapshotDocument:
    def test_subsystems_sum_to_total(self):
        doc = snapshot_document([("m1", _busy_telemetry()),
                                 ("m2", _busy_telemetry())])
        combined = doc["combined"]
        assert combined["total_cycles"] == 2 * (100 + 1163 + 40)
        assert sum(combined["by_subsystem"].values()) == \
            combined["total_cycles"]
        for snap in doc["machines"]:
            assert sum(snap["cycles"]["by_subsystem"].values()) == \
                pytest.approx(snap["cycles"]["total"])

    def test_validates(self):
        validate_snapshot(snapshot_document([("m", _busy_telemetry())]))

    def test_schema_rejects_bad_documents(self):
        with pytest.raises(SchemaError):
            validate_snapshot({"version": 1})
        doc = snapshot_document([("m", _busy_telemetry())])
        doc["combined"]["total_cycles"] += 10_000
        with pytest.raises(SchemaError):
            validate_snapshot(doc)

    def test_json_serializable(self):
        doc = snapshot_document([("m", _busy_telemetry())])
        json.loads(json.dumps(doc))


class TestChromeTrace:
    def test_events_shape(self):
        doc = chrome_trace_document([("m1", _busy_telemetry()),
                                     ("m2", _busy_telemetry())])
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["pid"] for m in metas} == {1, 2}
        assert len(spans) == 4          # two spans per machine
        ecall = next(e for e in spans if e["name"] == "sdk.ecall")
        assert ecall["cat"] == "sdk"
        assert ecall["dur"] == 1263
        assert ecall["args"]["self_cycles"] == 100
        assert ecall["args"]["func"] == "nop"
        json.loads(json.dumps(doc))

    def test_error_spans_marked(self):
        tel = Telemetry(CycleCounter())
        tel.enable()
        with pytest.raises(RuntimeError):
            with tel.span("sdk.ecall"):
                raise RuntimeError("x")
        doc = chrome_trace_document([("m", tel)])
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["args"]["error"] is True


class TestWriter:
    def test_writes_snapshot_and_trace(self, tmp_path):
        target = tmp_path / "tel.json"
        snap, trace = write_telemetry(target, [("m", _busy_telemetry())])
        assert snap == target
        assert trace == tmp_path / "tel.trace.json"
        validate_snapshot(json.loads(snap.read_text()))
        assert json.loads(trace.read_text())["traceEvents"]

    def test_trace_path_for(self):
        assert trace_path_for("out/x.json").name == "x.trace.json"
