"""Unified benchmark harness + continuous regression gate.

One registry over every ``benchmarks/bench_*.py`` paper reproduction,
one runner that captures telemetry and exact cycle profiles alongside
the figure values, one artifact format (``BENCH_<name>.json``) with
committed baselines, and one gate (``python -m repro.bench check``) that
fails CI when a metric leaves its tolerance band.

See docs/OBSERVABILITY.md ("The bench gate") for the workflow.
"""

from repro.bench.artifact import (ARTIFACT_KIND, ARTIFACT_VERSION,
                                  artifact_path, build_artifact,
                                  costs_fingerprint, flatten_metrics,
                                  load_artifact, validate_artifact,
                                  write_artifact)
from repro.bench.compare import (CompareResult, MetricDelta,
                                 compare_artifacts, compare_report)
from repro.bench.registry import REGISTRY, BenchSpec, gate_specs, resolve
from repro.bench.report import artifact_report, report_all
from repro.bench.runner import (DEFAULT_BASELINE_DIR, RunOutput,
                                check_benches, run_benches, run_one)

__all__ = [
    "ARTIFACT_KIND", "ARTIFACT_VERSION", "artifact_path", "build_artifact",
    "costs_fingerprint", "flatten_metrics", "load_artifact",
    "validate_artifact", "write_artifact",
    "CompareResult", "MetricDelta", "compare_artifacts", "compare_report",
    "REGISTRY", "BenchSpec", "gate_specs", "resolve",
    "artifact_report", "report_all",
    "DEFAULT_BASELINE_DIR", "RunOutput", "check_benches",
    "run_benches", "run_one",
]
