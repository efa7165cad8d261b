"""A/B equivalence of timeline sampling: reference loop vs fast path.

The sampler's probe discipline (op-granularity state only, boundary
cycles for clock-domain series, one row per crossed boundary) exists so
that a batched fast-path charge and the per-line reference loop produce
the *same rows*.  This runs a swap-heavy workload on each path and
asserts the serialized timeline documents are bit-identical.
"""

from __future__ import annotations

import json

from repro.telemetry import sink as telemetry_sink


def _run_with_timeline() -> str:
    """The two-tenant EPC-pressure scenario, timeline JSON serialized."""
    from repro.bench.runner import _ensure_benchmarks_importable
    _ensure_benchmarks_importable()
    import benchmarks.bench_epc_pressure as scenario

    with telemetry_sink.capture(timeline_interval=250_000) as sink:
        figures = scenario.run_experiment()
        document = sink.timeline_document()
    assert document is not None and document["timelines"][0]["samples"]
    return json.dumps({"figures": figures, "timeline": document},
                      sort_keys=True)


def test_timeline_json_bit_identical_across_modes(ab_run):
    reference, default = ab_run(_run_with_timeline)
    assert default == reference
