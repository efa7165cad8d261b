"""Telemetry exporters: the per-machine record and the Chrome trace.

:func:`machine_record` is the one description of a simulated machine:
its cycles by category, the metrics registry, the hardware collectors,
the span counts and the exact frame table.  A ``BENCH_<name>.json``
artifact carries one per machine (:func:`machine_records`, which
refuses open spans) and a forensic bundle is one record plus its
post-mortem fields; :func:`repro.telemetry.schema.check_record` checks
a record wherever either is written or loaded.  The Chrome trace file
loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: spans become complete ("X") events on the
simulated-cycle timebase, one process per machine, with 1 simulated
cycle rendered as 1 microsecond.
"""

from __future__ import annotations

import json
import pathlib

from repro.telemetry.core import (Telemetry, UnclosedSpanError,
                                  cycles_by_subsystem)


# -- the machine record ------------------------------------------------------

def frame_row(stack, calls, cycles, self_cycles) -> dict:
    """One unique call stack's cycles: ``cycles`` is inclusive (this
    frame plus its children), ``self_cycles`` exclusive."""
    return {"stack": list(stack), "calls": calls, "cycles": cycles,
            "self_cycles": self_cycles}


def machine_record(telemetry: Telemetry, label: str = "machine") -> dict:
    """One machine's record as a JSON-ready dict.

    It reads the telemetry as it stands and never raises: a forensic
    bundle is built mid-span by design.  ``spans.recorded`` counts every
    span closed (the frame table counts them all) and ``dropped`` the
    ones that fell out of the bounded span deque the Chrome trace reads.
    """
    frames = telemetry.frames
    closed = sum(frame[0] for frame in frames.values())
    return {
        "label": label,
        "cycles": {"total": telemetry.cycles.total,
                   "by_category": telemetry.cycles.breakdown()},
        "metrics": telemetry.registry.snapshot(),
        "hardware": telemetry.hardware_stats(),
        "spans": {"recorded": closed,
                  "dropped": closed - len(telemetry.spans)},
        "total_span_cycles": telemetry.root_cycles,
        "frames": [frame_row(path, *frames[path]) for path in sorted(frames)],
        "by_enclave": dict(telemetry.self_by_enclave),
    }


def machine_records(items: list[tuple[str, Telemetry]]) -> list[dict]:
    """The records of a finished run, one per ``(label, telemetry)``.

    Raises :class:`UnclosedSpanError` if any span is still open: it has
    not yet attributed its cycles to its parent, so a record taken now
    would carry wrong self-cycle numbers — the runtime counterpart of
    staticcheck rule SC007.
    """
    for label, telemetry in items:
        open_names = telemetry.open_span_names()
        if open_names:
            raise UnclosedSpanError(
                f"recording {label!r} with {len(open_names)} span(s) "
                f"still open: {' > '.join(open_names)}; self-cycle "
                f"attribution would be wrong (close every span first)")
    return [machine_record(telemetry, label) for label, telemetry in items]


def combined_cycles(records: list[dict]) -> dict:
    """The run's cycles: ``total`` and ``by_subsystem`` over every record.

    Each machine's categories fold into subsystems first, then the
    machines add up in order, so a float sum rounds the same way on
    every run.  ``by_subsystem`` sums to ``total`` because the
    category -> subsystem mapping is total.
    """
    total = 0
    by_subsystem: dict[str, int | float] = {}
    for record in records:
        total += record["cycles"]["total"]
        for sub, cycles in cycles_by_subsystem(
                record["cycles"]["by_category"]).items():
            by_subsystem[sub] = by_subsystem.get(sub, 0) + cycles
    return {"total": total, "by_subsystem": by_subsystem}


# -- derived summaries (latency percentiles) ---------------------------------

# The span families whose per-enclave latency distributions matter for
# serving: edge calls (sdk.*) and world switches (world.*).  os/monitor
# spans are keyed by pid/frame, not enclave, and stay out of the table.
LATENCY_SUBSYSTEMS = ("sdk", "world")


def _merge_histogram(into: dict, snap_entry: dict) -> None:
    """Fold one histogram metric snapshot into a bucket accumulator."""
    for lo, hi, n in snap_entry["buckets"]:
        into["buckets"][(lo, hi)] = into["buckets"].get((lo, hi), 0) + n
    into["count"] += snap_entry["count"]
    for bound, pick in (("min", min), ("max", max)):
        value = snap_entry.get(bound)
        if value is not None:
            into[bound] = value if into[bound] is None \
                else pick(into[bound], value)


def latency_summaries(records: list[dict]) -> dict:
    """Per-enclave latency percentiles from the span cycle histograms.

    Shape: ``{machine: {enclave: {"sdk.ecall": {count, p50, p95, p99}}}}``.
    Histograms are merged across every other label dimension (func, cpu,
    mode), keyed by the ``enclave`` span label.  Latencies are *simulated
    cycles*, so the summary is deterministic and can sit under the exact
    bench gate; the log2-bucket interpolation error is bounded by one
    bucket (see :func:`repro.telemetry.metrics.percentile_from_buckets`).
    """
    from repro.telemetry.metrics import (SUMMARY_QUANTILES,
                                         percentile_from_buckets)
    out: dict[str, dict] = {}
    for record in records:
        merged: dict[tuple[str, str], dict] = {}
        for entry in record["metrics"]:
            if entry["type"] != "histogram" \
                    or not entry["name"].endswith(".cycles_hist") \
                    or entry["subsystem"] not in LATENCY_SUBSYSTEMS \
                    or "enclave" not in entry["labels"]:
                continue
            enclave = str(entry["labels"]["enclave"])
            span = f"{entry['subsystem']}." \
                   f"{entry['name'].removesuffix('.cycles_hist')}"
            acc = merged.setdefault((enclave, span), {
                "buckets": {}, "count": 0, "min": None, "max": None})
            _merge_histogram(acc, entry)
        machine_table: dict[str, dict] = {}
        for (enclave, span), acc in sorted(merged.items()):
            buckets = [[lo, hi, n] for (lo, hi), n
                       in sorted(acc["buckets"].items())]
            row = {"count": acc["count"]}
            for q in SUMMARY_QUANTILES:
                row[f"p{q:g}"] = percentile_from_buckets(
                    buckets, acc["count"], q,
                    lo_clamp=acc["min"], hi_clamp=acc["max"])
            machine_table.setdefault(enclave, {})[span] = row
        if machine_table:
            out[record["label"]] = machine_table
    return out


# -- Chrome trace_event ------------------------------------------------------

def chrome_trace_events(telemetry: Telemetry, *, pid: int = 1,
                        label: str = "machine") -> list[dict]:
    """One machine's spans as Chrome trace_event dicts."""
    events: list[dict] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": f"{label} (1 cycle = 1 us)"},
    }]
    span_events: list[dict] = []
    tids: set[int] = {0}
    for record in telemetry.spans:
        tid = record.labels.get("cpu", 0)
        tids.add(tid)
        args = {k: v for k, v in record.labels.items()}
        args["self_cycles"] = record.self_cycles
        if record.error:
            args["error"] = True
        span_events.append({
            "name": record.name,
            "cat": record.name.partition(".")[0],
            "ph": "X",
            "ts": record.start_cycle,
            "dur": record.dur_cycles,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    # Thread-name metadata so the trace UI labels rows "vcpu0" instead
    # of bare tids; one event per tid the spans actually used.
    for tid in sorted(tids):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": f"vcpu{tid}"}})
    events.extend(span_events)
    # A machine with a request tracer contributes flow events linking
    # each request's ecall -> ocall -> resume spans.
    tracer = getattr(telemetry, "requests", None)
    if tracer is not None and tracer.requests:
        from repro.telemetry.requests import request_flow_events
        events.extend(request_flow_events(tracer.document(), pid=pid))
    return events


def chrome_trace_document(items: list[tuple[str, Telemetry]]) -> dict:
    """A loadable ``{"traceEvents": [...]}`` document, one pid/machine."""
    events: list[dict] = []
    for pid, (label, tel) in enumerate(items, start=1):
        events.extend(chrome_trace_events(tel, pid=pid, label=label))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"timebase": "simulated cycles (1 cycle = 1 us)"}}


# -- file writer -------------------------------------------------------------

def write_chrome_trace(path: str | pathlib.Path,
                       items: list[tuple[str, Telemetry]]) -> pathlib.Path:
    """Write the Chrome trace of ``items``; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace_document(items)))
    return path
