"""A/B equivalence of request tracing: reference loop vs fast path.

Trace ids come from (label, vcpu, per-vCPU counter) and segment stamps
from op-boundary reads of the cycle counter, which are batch-invariant:
every touch issues exactly one charge on either path.  So the
serialized requests document — ids, trees, category deltas, steal
attributions — must be bit-identical across the reference loop and the
fast path.
"""

from __future__ import annotations

import json

from repro.telemetry import sink as telemetry_sink


def _run_traced() -> str:
    """The two-tenant EPC-pressure scenario, requests JSON serialized."""
    from repro.bench.runner import _ensure_benchmarks_importable
    _ensure_benchmarks_importable()
    import benchmarks.bench_epc_pressure as scenario

    with telemetry_sink.capture(trace_requests=True) as sink:
        figures = scenario.run_experiment()
        document = sink.requests_document()
    assert document is not None and document["traces"][0]["requests"]
    return json.dumps({"figures": figures, "requests": document},
                      sort_keys=True)


def test_requests_json_bit_identical_across_modes(ab_run):
    reference, default = ab_run(_run_traced)
    assert default == reference
