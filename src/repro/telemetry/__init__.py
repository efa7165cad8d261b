"""Platform-wide telemetry: metrics registry, cycle-accurate spans,
event ring, and exporters (JSON snapshot / Chrome trace).

Runs record through ``python -m repro.bench run ... --artifacts DIR``;
``python -m repro.bench report`` prints what they recorded.

See docs/OBSERVABILITY.md for the full API and file formats.
"""

from repro.telemetry.core import (NULL_SPAN, Span, SpanRecord, Telemetry,
                                  UnclosedSpanError, cycles_by_subsystem,
                                  subsystem_for_category)
from repro.telemetry.metrics import (SUMMARY_QUANTILES, Counter, Histogram,
                                     MetricsRegistry, percentile_from_buckets)
from repro.telemetry.export import (chrome_trace_document,
                                    latency_summaries, machine_snapshot,
                                    snapshot_document, trace_path_for,
                                    write_telemetry)
from repro.telemetry.schema import (SchemaError, validate_requests,
                                    validate_snapshot)
from repro.telemetry.requests import (RequestTracer, request_flow_events,
                                      requests_document)

__all__ = [
    "NULL_SPAN", "Span", "SpanRecord", "Telemetry", "UnclosedSpanError",
    "cycles_by_subsystem", "subsystem_for_category",
    "SUMMARY_QUANTILES", "Counter", "Histogram",
    "MetricsRegistry", "percentile_from_buckets",
    "chrome_trace_document", "latency_summaries", "machine_snapshot",
    "snapshot_document", "trace_path_for",
    "write_telemetry",
    "SchemaError", "validate_requests", "validate_snapshot",
    "RequestTracer", "request_flow_events", "requests_document",
]
