"""Run benchmarks with full observability and emit/check artifacts.

``run_one`` executes one registered benchmark with a fresh process-wide
telemetry sink active, so every machine the experiment creates is
captured (the :class:`~repro.hw.machine.Machine` constructor registers
itself); from the captured spans it builds the exact cycle profile, then
assembles the ``BENCH_<name>.json`` artifact.

Telemetry and the profiler observe the simulated clock and charge
nothing, so the artifact's calibrated figure values are identical to a
bare run — the gate compares like with like.
"""

from __future__ import annotations

import ast
import linecache
import pathlib
import sys
import traceback
from dataclasses import dataclass

from repro.bench.artifact import (artifact_path, build_artifact,
                                  load_artifact, write_artifact)
from repro.bench.compare import (CompareResult, MetricDelta,
                                 compare_artifacts)
from repro.bench.registry import BenchSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

def _ensure_benchmarks_importable() -> None:
    """Put the repo root on sys.path so ``benchmarks.*`` imports."""
    try:
        import benchmarks  # noqa: F401
        return
    except ImportError:
        pass
    sys.path.insert(0, str(REPO_ROOT))


@dataclass
class RunOutput:
    """Everything one benchmark run produced."""

    spec: BenchSpec
    artifact: dict
    written: list[pathlib.Path]
    claim: str | None = None       # the paper claim that failed, if any


def claim_failure(spec: BenchSpec, figures: dict) -> str | None:
    """``None`` when ``spec``'s paper claims hold over an artifact's
    ``figures``, else the failed assert's source (plus its message)."""
    if not __debug__:        # -O strips asserts: every claim would pass
        return "not checked: python -O strips assert statements"
    try:
        spec.check(figures)
    except AssertionError as exc:
        # The failing line may be inside a multi-line assert: render it all.
        where = traceback.extract_tb(exc.__traceback__)[-1]
        lines = linecache.getlines(where.filename)
        node = next(node for node in ast.walk(ast.parse("".join(lines)))
                    if isinstance(node, ast.Assert)
                    and node.lineno <= where.lineno <= node.end_lineno)
        source = " ".join(line.strip(" \\\n") for line
                          in lines[node.lineno - 1:node.end_lineno])
        return f"{source} [{exc}]" if str(exc) else source
    return None


def run_one(spec: BenchSpec, *,
            artifacts_dir: str | pathlib.Path | None = None,
            record_dir: str | pathlib.Path | None = None,
            trace_requests: bool = False) -> RunOutput:
    """Run one benchmark under a fresh telemetry sink; build its artifact.

    The artifact's ``profile`` block is the run's exact cycle profile.
    When ``artifacts_dir`` is given, the side artifacts land there:
    ``<name>.telemetry.json`` + ``<name>.telemetry.trace.json`` (snapshot
    and Chrome trace) and ``<name>.collapsed`` (the profile as
    cycle-weighted flamegraph stacks).

    When ``record_dir`` is given, a flight recorder rides on the sink
    and its journal lands at ``<record_dir>/<name>.journal.json`` —
    replayable with ``python -m repro.bench replay``.  Recording is a
    pure observer, so the artifact's figures are unchanged, and the
    journal names machines with the artifact's labels.

    When ``trace_requests`` is true, every machine gets a request tracer
    (``repro.telemetry.requests``): each top-level ecall becomes a
    traced request with a causal segment tree.  The artifact gains an
    informational ``requests`` block.  Tracing charges nothing —
    figures and fingerprints are bit-identical to an untraced run.

    The artifact is the only copy of the profile and requests blocks;
    ``python -m repro.bench report`` reads them from it.
    """
    from repro.flightrec.recorder import FlightRecorder
    from repro.flightrec.scenario import observed
    from repro.profiler import profile_document, write_collapsed
    from repro.telemetry.sink import capture

    _ensure_benchmarks_importable()
    rec = FlightRecorder(f"bench:{spec.name}") \
        if record_dir is not None else None
    with capture(trace_requests) as sink, observed(rec):
        figures = spec.run()
    fingerprints = sink.state_fingerprints()
    journal_path = None
    if rec is not None:
        journal_path = rec.finish(figures).write(
            pathlib.Path(record_dir) / f"{spec.name}.journal.json")

    telemetry_doc = sink.document() if sink.items else None
    profile = profile_document(sink.items) if sink.items else None
    requests_doc = sink.requests_document() if trace_requests else None
    artifact = build_artifact(spec, figures, telemetry_doc, profile,
                              fingerprints, requests_doc=requests_doc)
    # The figures as written: a live run and a baseline check alike.
    claim = claim_failure(spec, artifact["figures"])

    written: list[pathlib.Path] = []
    if artifacts_dir is not None:
        artifacts_dir = pathlib.Path(artifacts_dir)
        artifacts_dir.mkdir(parents=True, exist_ok=True)
        if sink.items:
            written.extend(
                sink.write(artifacts_dir / f"{spec.name}.telemetry.json"))
        if profile is not None:
            written.append(write_collapsed(
                artifacts_dir / f"{spec.name}.collapsed", profile))
    if journal_path is not None:
        written.append(journal_path)
    return RunOutput(spec=spec, artifact=artifact, written=written,
                     claim=claim)


def run_benches(specs: list[BenchSpec], *,
                baseline_dir: str | pathlib.Path = DEFAULT_BASELINE_DIR,
                artifacts_dir: str | pathlib.Path | None = None,
                record_dir: str | pathlib.Path | None = None,
                trace_requests: bool = False,
                log=print) -> list[RunOutput]:
    """Run every spec, writing ``BENCH_<name>.json`` baselines."""
    outputs = []
    for spec in specs:
        log(f"running {spec.name} ({spec.title}) ...")
        output = run_one(spec, artifacts_dir=artifacts_dir,
                         record_dir=record_dir,
                         trace_requests=trace_requests)
        path = write_artifact(
            artifact_path(baseline_dir, spec.name), output.artifact)
        output.written.insert(0, path)
        verdict = f"paper claim FAILED: {output.claim}" if output.claim \
            else "paper claims hold"
        log(f"  wrote {path} "
            f"({len(output.artifact['metrics'])} metrics; {verdict})")
        outputs.append(output)
    return outputs


def check_benches(specs: list[BenchSpec], *,
                  baseline_dir: str | pathlib.Path = DEFAULT_BASELINE_DIR,
                  artifacts_dir: str | pathlib.Path | None = None,
                  record_dir: str | pathlib.Path | None = None,
                  trace_requests: bool = False,
                  log=print) -> list[CompareResult]:
    """Re-run every spec; gate it on its committed baseline and claims.

    A missing baseline is itself a gate failure — it means a benchmark
    joined the gate set without `python -m repro.bench run` being
    committed.
    """
    results = []
    for spec in specs:
        base_path = artifact_path(baseline_dir, spec.name)
        if not base_path.exists():
            result = CompareResult(name=spec.name, tolerance=spec.tolerance)
            result.notes.append(
                f"no committed baseline at {base_path}; generate one with "
                f"`python -m repro.bench run {spec.name}`")
            result.deltas.append(MetricDelta(
                metric="<baseline>", baseline=None, current=None,
                tolerance=spec.tolerance))
            results.append(result)
            continue
        log(f"checking {spec.name} against {base_path} ...")
        baseline = load_artifact(base_path)
        output = run_one(spec, artifacts_dir=artifacts_dir,
                         record_dir=record_dir,
                         trace_requests=trace_requests)
        result = compare_artifacts(baseline, output.artifact)
        if output.claim is not None:
            result.claim_ok = False
            result.notes.append(f"paper claim failed: {output.claim}")
        results.append(result)
    return results
