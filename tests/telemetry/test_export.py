"""Tests for the machine record, its check and the Chrome trace."""

import json

import pytest

from repro.hw.cycles import CycleCounter
from repro.telemetry import SchemaError, Telemetry, check_record
from repro.telemetry.export import (chrome_trace_document, combined_cycles,
                                    machine_record, write_chrome_trace)


def _busy_telemetry() -> Telemetry:
    tel = Telemetry(CycleCounter())
    tel.enable()
    with tel.span("sdk.ecall", func="nop", enclave=1):
        tel.cycles.charge(100, "sdk-ecall")
        with tel.span("world.eenter", enclave=1):
            tel.cycles.charge(1163, "eenter:hu")
    tel.cycles.charge(40, "syscall")
    return tel


def _corrupt_metric(record):
    record["metrics"][0]["type"] = "gauge"


def _metric_without_labels(record):
    del record["metrics"][0]["labels"]


def _histogram_bucket(record):
    hist = next(m for m in record["metrics"] if m["type"] == "histogram")
    hist["buckets"][0] = [1, 2]


def _sum_off(record):
    record["cycles"]["total"] += 10_000


def _more_dropped(record):
    record["spans"]["dropped"] = record["spans"]["recorded"] + 1


class TestSnapshotDocument:
    """The per-machine record every artifact and bundle carries."""

    def test_subsystems_sum_to_total(self):
        records = [machine_record(_busy_telemetry(), "m1"),
                   machine_record(_busy_telemetry(), "m2")]
        combined = combined_cycles(records)
        assert combined["total"] == 2 * (100 + 1163 + 40)
        assert sum(combined["by_subsystem"].values()) == combined["total"]
        for record in records:
            assert sum(record["cycles"]["by_category"].values()) == \
                pytest.approx(record["cycles"]["total"])

    def test_validates(self):
        check_record(machine_record(_busy_telemetry(), "m"))

    def test_schema_rejects_bad_documents(self):
        with pytest.raises(SchemaError):
            check_record({"label": "m"})
        for breakage, message in [
                (_corrupt_metric, "unknown metric type"),
                (_metric_without_labels, "missing labels"),
                (_histogram_bucket, r"expected \[lo, hi, count\]"),
                (_sum_off, "more than 1% off total"),
                (_more_dropped, "more spans dropped than recorded")]:
            record = machine_record(_busy_telemetry(), "m")
            breakage(record)
            with pytest.raises(SchemaError, match=message):
                check_record(record)

    def test_json_serializable(self):
        record = machine_record(_busy_telemetry(), "m")
        check_record(json.loads(json.dumps(record)))


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
    def test_writes_the_chrome_trace(self, tmp_path):
        target = tmp_path / "tel.trace.json"
        items = [("m", _busy_telemetry())]
        assert write_chrome_trace(target, items) == target
        assert json.loads(target.read_text()) == chrome_trace_document(items)
