"""Telemetry exporters: JSON snapshot, Chrome trace_event, top-N text.

The JSON snapshot is the machine-readable "where did the cycles go"
breakdown every benchmark can emit (``--telemetry-out``); its shape is
validated by :mod:`repro.telemetry.schema`.  The Chrome trace file loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:
spans become complete ("X") events on the simulated-cycle timebase, one
process per machine, with 1 simulated cycle rendered as 1 microsecond.
"""

from __future__ import annotations

import json
import pathlib
import warnings

from repro.telemetry.core import (Telemetry, UnclosedSpanError,
                                  cycles_by_subsystem)

SNAPSHOT_VERSION = 1
SNAPSHOT_KIND = "hyperenclave-telemetry"


def _guard_open_spans(telemetry: Telemetry, label: str,
                      strict: bool) -> list[str]:
    """Refuse (or warn about) exporting while spans are still open.

    An open span has not yet attributed its cycles to its parent, so a
    snapshot taken now would carry wrong self-cycle numbers — the
    runtime counterpart of staticcheck rule SC007.
    """
    open_names = telemetry.open_span_names()
    if open_names:
        message = (f"telemetry export for {label!r} with "
                   f"{len(open_names)} span(s) still open: "
                   f"{' > '.join(open_names)}; self-cycle attribution "
                   f"would be wrong (close every span before exporting)")
        if strict:
            raise UnclosedSpanError(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    return open_names


# -- JSON snapshot -----------------------------------------------------------

def machine_snapshot(telemetry: Telemetry, label: str = "machine", *,
                     strict: bool = True) -> dict:
    """One machine's telemetry as a JSON-ready dict.

    Raises :class:`UnclosedSpanError` if any span is still open; pass
    ``strict=False`` to downgrade to a ``RuntimeWarning`` naming the
    open spans.
    """
    open_names = _guard_open_spans(telemetry, label, strict)
    breakdown = telemetry.cycles.breakdown()
    return {
        "label": label,
        "cycles": {
            "total": telemetry.cycles.total,
            "by_category": breakdown,
            "by_subsystem": cycles_by_subsystem(breakdown),
        },
        "metrics": telemetry.registry.snapshot(),
        "hardware": telemetry.hardware_stats(),
        "spans": {"recorded": len(telemetry.spans),
                  "open": len(open_names)},
    }


def snapshot_document(items: list[tuple[str, Telemetry]], *,
                      strict: bool = True) -> dict:
    """The full snapshot: per-machine sections plus combined totals.

    ``combined.by_subsystem`` sums exactly to ``combined.total_cycles``
    because the category -> subsystem mapping is total.
    """
    machines = [machine_snapshot(tel, label, strict=strict)
                for label, tel in items]
    total = 0
    by_subsystem: dict[str, int | float] = {}
    for snap in machines:
        total += snap["cycles"]["total"]
        for sub, cycles in snap["cycles"]["by_subsystem"].items():
            by_subsystem[sub] = by_subsystem.get(sub, 0) + cycles
    return {
        "version": SNAPSHOT_VERSION,
        "kind": SNAPSHOT_KIND,
        "machines": machines,
        "combined": {"total_cycles": total, "by_subsystem": by_subsystem},
    }


# -- derived summaries (latency percentiles, wall shares) --------------------

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


def latency_summaries(document: dict,
                      subsystems: tuple[str, ...] = LATENCY_SUBSYSTEMS
                      ) -> dict:
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
    for snap in document["machines"]:
        merged: dict[tuple[str, str], dict] = {}
        for entry in snap["metrics"]:
            if entry["type"] != "histogram" \
                    or not entry["name"].endswith(".cycles_hist") \
                    or entry["subsystem"] not in subsystems \
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
            out[snap["label"]] = machine_table
    return out


def wall_ns_by_subsystem(document: dict) -> dict[str, int | float]:
    """Span-attributed host wall-time per subsystem, from a snapshot.

    Sums the ``.self_wall_ns`` span counters, so nested spans are not
    double-counted: the total equals root-span wall time.  Snapshots
    that predate the wall-domain counters return ``{}``.
    """
    out: dict[str, int | float] = {}
    for snap in document["machines"]:
        for entry in snap["metrics"]:
            if entry["type"] == "counter" \
                    and entry["name"].endswith(".self_wall_ns"):
                sub = entry["subsystem"]
                out[sub] = out.get(sub, 0) + entry["value"]
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
        args["wall_ns"] = record.dur_wall_ns
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
    # A machine with an attached timeline sampler contributes Perfetto
    # counter tracks on the same cycle timebase.
    sampler = getattr(telemetry, "timeline", None)
    if sampler is not None and sampler.samples:
        from repro.telemetry.timeline import timeline_counter_events
        events.extend(timeline_counter_events(sampler.document(), pid=pid))
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


# -- plain-text top-N report -------------------------------------------------

def top_report(document: dict, n: int = 10) -> str:
    """A human-readable top-N digest of a snapshot document."""
    out = ["Telemetry: where the cycles went", "=" * 40]
    combined = document["combined"]
    total = combined["total_cycles"] or 1
    out.append(f"total simulated cycles: {combined['total_cycles']:,.0f} "
               f"across {len(document['machines'])} machine(s)")
    out.append("")
    out.append(f"top subsystems (of {len(combined['by_subsystem'])}):")
    ranked = sorted(combined["by_subsystem"].items(),
                    key=lambda kv: -kv[1])[:n]
    for sub, cycles in ranked:
        out.append(f"  {sub:<12} {cycles:>16,.0f}  ({100 * cycles / total:5.1f}%)")
    merged: dict[str, int | float] = {}
    for snap in document["machines"]:
        for category, cycles in snap["cycles"]["by_category"].items():
            merged[category] = merged.get(category, 0) + cycles
    out.append("")
    out.append(f"top categories (of {len(merged)}):")
    for category, cycles in sorted(merged.items(), key=lambda kv: -kv[1])[:n]:
        out.append(f"  {category:<16} {cycles:>16,.0f}  "
                   f"({100 * cycles / total:5.1f}%)")
    return "\n".join(out)


# -- file writer -------------------------------------------------------------

def trace_path_for(snapshot_path: str | pathlib.Path) -> pathlib.Path:
    """The Chrome-trace sibling of a snapshot path (x.json -> x.trace.json)."""
    path = pathlib.Path(snapshot_path)
    return path.with_name(path.stem + ".trace.json")


def write_telemetry(snapshot_path: str | pathlib.Path,
                    items: list[tuple[str, Telemetry]]
                    ) -> tuple[pathlib.Path, pathlib.Path]:
    """Write the JSON snapshot and its Chrome trace; returns both paths."""
    snapshot_path = pathlib.Path(snapshot_path)
    document = snapshot_document(items)
    from repro.telemetry.schema import validate_snapshot
    validate_snapshot(document)
    snapshot_path.write_text(json.dumps(document, indent=2, sort_keys=True))
    trace_path = trace_path_for(snapshot_path)
    trace_path.write_text(json.dumps(chrome_trace_document(items)))
    return snapshot_path, trace_path
