"""Schema validation for the telemetry records.

The container has no ``jsonschema`` package, so this is a small
hand-rolled structural validator for the per-machine record
(:func:`repro.telemetry.export.machine_record`), a frame table and the
requests document.  A bench artifact's records, combined frame table
and ``requests`` block are checked whenever ``repro.bench`` writes or
loads the artifact (:func:`repro.bench.artifact.validate_artifact`),
and a forensic bundle's record whenever it is loaded
(:func:`repro.flightrec.forensics.load_bundle`).
"""

from __future__ import annotations

from repro.hw.cycles import SEGMENT_KINDS

_METRIC_TYPES = {"counter", "histogram"}


class SchemaError(ValueError):
    """A record or document does not match the expected shape."""


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{where}: {message}")


def _check_number(value, where: str) -> None:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             where, f"expected a number, got {value!r}")


def _check_cycle_map(obj, where: str) -> None:
    _require(isinstance(obj, dict), where, "expected an object")
    for key, value in obj.items():
        _require(isinstance(key, str), where, f"non-string key {key!r}")
        _check_number(value, f"{where}.{key}")


def _check_metric(entry, where: str) -> None:
    _require(isinstance(entry, dict), where, "expected an object")
    for field in ("subsystem", "name", "type"):
        _require(isinstance(entry.get(field), str), where,
                 f"missing string field {field!r}")
    _require(entry["type"] in _METRIC_TYPES, where,
             f"unknown metric type {entry['type']!r}")
    _require(isinstance(entry.get("labels"), dict), where,
             "missing labels object")
    if entry["type"] == "counter":
        _check_number(entry.get("value"), f"{where}.value")
    else:
        _check_number(entry.get("count"), f"{where}.count")
        _check_number(entry.get("sum"), f"{where}.sum")
        _require(isinstance(entry.get("buckets"), list), where,
                 "histogram needs a buckets list")
        for i, bucket in enumerate(entry["buckets"]):
            _require(isinstance(bucket, list) and len(bucket) == 3,
                     f"{where}.buckets[{i}]", "expected [lo, hi, count]")


def check_frames(frames, where: str) -> None:
    """Raise :class:`SchemaError` unless ``frames`` is a frame table:
    every row a non-empty list stack with numeric counts."""
    _require(isinstance(frames, list), where, "missing frames list")
    for i, frame in enumerate(frames):
        fwhere = f"{where}[{i}]"
        _require(isinstance(frame, dict), fwhere, "expected an object")
        stack = frame.get("stack")
        _require(isinstance(stack, list) and bool(stack), fwhere,
                 f"bad stack {stack!r}")
        for field in ("calls", "cycles", "self_cycles"):
            _require(isinstance(frame.get(field), (int, float)), fwhere,
                     f"stack {stack} missing {field}")


def check_record(record, where: str = "record") -> None:
    """Raise :class:`SchemaError` unless ``record`` is a machine record
    (extra fields, such as a forensic bundle's, are allowed)."""
    _require(isinstance(record, dict), where, "expected an object")
    _require(isinstance(record.get("label"), str), where, "missing label")
    cycles = record.get("cycles")
    _require(isinstance(cycles, dict), where, "missing cycles object")
    _check_number(cycles.get("total"), f"{where}.cycles.total")
    _check_cycle_map(cycles.get("by_category"), f"{where}.cycles.by_category")
    total = cycles["total"]
    subtotal = sum(cycles["by_category"].values())
    _require(abs(subtotal - total) <= max(0.01 * total, 1e-6),
             f"{where}.cycles.by_category",
             f"sums to {subtotal}, more than 1% off total {total}")
    _require(isinstance(record.get("metrics"), list), where,
             "missing metrics list")
    for i, entry in enumerate(record["metrics"]):
        _check_metric(entry, f"{where}.metrics[{i}]")
    _require(isinstance(record.get("hardware"), dict), where,
             "missing hardware object")
    spans = record.get("spans")
    _require(isinstance(spans, dict), where, "missing spans object")
    for key in ("recorded", "dropped"):
        _check_number(spans.get(key), f"{where}.spans.{key}")
    _require(spans["dropped"] <= spans["recorded"], f"{where}.spans",
             "more spans dropped than recorded")
    _check_number(record.get("total_span_cycles"),
                  f"{where}.total_span_cycles")
    check_frames(record.get("frames"), f"{where}.frames")
    _check_cycle_map(record.get("by_enclave"), f"{where}.by_enclave")


def _check_segment(segment, where: str) -> None:
    _require(isinstance(segment, dict), where, "expected an object")
    _require(isinstance(segment.get("kind"), str), where, "missing kind")
    _require(segment["kind"] in SEGMENT_KINDS, where,
             f"undeclared segment kind {segment['kind']!r}")
    _check_number(segment.get("begin"), f"{where}.begin")
    _check_number(segment.get("end"), f"{where}.end")
    _require(segment["end"] >= segment["begin"], where,
             f"end {segment['end']} before begin {segment['begin']}")
    children = segment.get("segments")
    _require(isinstance(children, list), where, "missing segments list")
    for i, child in enumerate(children):
        _check_segment(child, f"{where}.segments[{i}]")


def _check_request(request, where: str) -> None:
    _require(isinstance(request, dict), where, "expected an object")
    _require(isinstance(request.get("id"), str), where, "missing id")
    for field in ("name", "tenant"):
        _require(isinstance(request.get(field), str), where,
                 f"missing string field {field!r}")
    for field in ("seq", "vcpu"):
        _check_number(request.get(field), f"{where}.{field}")
        _require(request[field] >= 0, f"{where}.{field}",
                 f"must be non-negative, got {request[field]!r}")
    _require(isinstance(request.get("error"), bool), where,
             "missing boolean error field")
    _check_number(request.get("begin"), f"{where}.begin")
    _check_number(request.get("end"), f"{where}.end")
    _require(request["end"] >= request["begin"], where,
             f"end {request['end']} before begin {request['begin']}")
    segments = request.get("segments")
    _require(isinstance(segments, list), where, "missing segments list")
    for i, segment in enumerate(segments):
        _check_segment(segment, f"{where}.segments[{i}]")
    _check_cycle_map(request.get("categories"), f"{where}.categories")
    _check_cycle_map(request.get("steals"), f"{where}.steals")


def _check_trace(trace, where: str) -> None:
    _require(isinstance(trace, dict), where, "expected an object")
    _require(isinstance(trace.get("label"), str), where, "missing label")
    tenants = trace.get("tenants")
    _require(isinstance(tenants, dict), where, "missing tenants object")
    for key, name in tenants.items():
        _require(isinstance(key, str) and isinstance(name, str),
                 f"{where}.tenants", f"expected str -> str, got "
                 f"{key!r}: {name!r}")
    requests = trace.get("requests")
    _require(isinstance(requests, list), where, "missing requests list")
    seen: dict[tuple, float] = {}
    for i, request in enumerate(requests):
        rwhere = f"{where}.requests[{i}]"
        _check_request(request, rwhere)
        key = (request["vcpu"], request["seq"])
        _require(key not in seen, rwhere,
                 f"duplicate (vcpu, seq) pair {key}")
        seen[key] = request["begin"]


def validate_requests(document) -> None:
    """Raise :class:`SchemaError` unless ``document`` is a valid requests
    document (:func:`repro.telemetry.requests.requests_document`)."""
    _require(isinstance(document, dict), "$", "expected an object")
    _require(document.get("version") == 1, "$.version",
             f"unsupported version {document.get('version')!r}")
    _require(document.get("kind") == "hyperenclave-requests", "$.kind",
             f"unexpected kind {document.get('kind')!r}")
    traces = document.get("traces")
    _require(isinstance(traces, list) and traces, "$.traces",
             "expected a non-empty list")
    for i, trace in enumerate(traces):
        _check_trace(trace, f"$.traces[{i}]")
