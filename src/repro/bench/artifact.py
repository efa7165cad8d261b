"""``BENCH_<name>.json`` artifacts: the machine-readable result record.

One artifact per benchmark run, containing

* ``figures`` — the JSON-ready figure values (same shape the pytest
  wrappers record into ``benchmarks/results.json``),
* ``metrics`` — every numeric leaf of ``figures`` flattened to a
  dot-path, plus the telemetry digest (``telemetry.total_cycles``,
  ``telemetry.by_subsystem.*``) and ``profile.total_span_cycles`` — the
  exact set the regression gate compares with tolerance bands,
* ``telemetry`` / ``profile`` — the cycle digest and top-frame summary,
* ``provenance`` — cost-model fingerprint, python version, git commit.

Everything in ``metrics`` is a deterministic function of the simulation
(staticcheck SC001 bans wall clocks and unseeded randomness there), so a
committed baseline reproduces bit-identically until someone changes the
cost model — which is exactly what the gate is for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import subprocess

# Version 2 added the explicit ``artifact_version`` forward-compat
# field, the ``throughput`` block (host wall-clock speed, gated with a
# direction-aware band) and the ``latency`` block (per-enclave
# p50/p95/p99 cycle summaries).  Version-1 baselines still load; the
# gate warns about — rather than fails on — the blocks they lack (see
# repro.bench.compare).
ARTIFACT_VERSION = 2
SUPPORTED_ARTIFACT_VERSIONS = (1, 2)
ARTIFACT_KIND = "hyperenclave-bench"

# Provenance fields that may legitimately differ between a committed
# baseline and a fresh run; the gate never compares them.
INFORMATIONAL_PROVENANCE = ("git_commit", "python")


def artifact_name(bench_name: str) -> str:
    """The artifact file name for one benchmark."""
    return f"BENCH_{bench_name}.json"


def artifact_path(directory: str | pathlib.Path,
                  bench_name: str) -> pathlib.Path:
    """Where ``BENCH_<name>.json`` lives under ``directory``."""
    return pathlib.Path(directory) / artifact_name(bench_name)


# -- metric flattening -------------------------------------------------------

def flatten_metrics(value, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a nested figure structure, by dot-path.

    Bools, strings and Nones are skipped (a ``None`` is the paper's "-"
    cell, not a zero); list elements use their index as the segment.
    """
    out: dict[str, float] = {}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return out
    if isinstance(value, (int, float)):
        out[prefix or "value"] = float(value)
        return out
    if isinstance(value, dict):
        items = [(str(k), v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(str(i), v) for i, v in enumerate(value)]
    else:
        return out
    for key, sub in items:
        path = f"{prefix}.{key}" if prefix else key
        out.update(flatten_metrics(sub, path))
    return out


def _jsonable(value):
    """Best-effort conversion of figure structures to JSON-ready data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value):
        return _jsonable(dataclasses.asdict(value))
    return repr(value)


# -- provenance --------------------------------------------------------------

def costs_fingerprint() -> str:
    """A stable hash over the calibrated cost model.

    Any change to ``repro.hw.costs`` — a constant, a step itemization —
    changes this fingerprint, so a baseline records exactly which cost
    model produced it.
    """
    from repro.hw import costs
    parts = []
    for name in sorted(vars(costs)):
        if name.startswith("_"):
            continue
        value = getattr(costs, name)
        if isinstance(value, bool) or callable(value) \
                or isinstance(value, type):
            continue
        if isinstance(value, (int, float, str, list, tuple, dict)) \
                or dataclasses.is_dataclass(value):
            parts.append(f"{name}={_jsonable(value)!r}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=pathlib.Path(__file__).resolve().parents[3])
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    """The artifact provenance block (fingerprint, python, commit)."""
    import sys
    from repro.hw import fastpath
    return {
        "costs_fingerprint": costs_fingerprint(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "git_commit": _git_commit(),
        "determinism": "seeded simulation (staticcheck SC001)",
        # Simulated figures are fastpath-invariant (pinned by
        # tests/fastpath); wall-clock throughput is not, so the gate
        # skips throughput.* when baseline and current modes differ.
        "fastpath": fastpath.mode_name(),
    }


# -- artifact assembly -------------------------------------------------------

def throughput_block(spec, telemetry_doc: dict | None, wall_seconds: float,
                     *, bare_cycles: float | None = None) -> dict:
    """The wall-clock speed digest: cycles per wall-second plus shares.

    ``sim_cycles_per_wall_second`` is the headline metric ROADMAP item 1
    locks in; the per-subsystem wall shares (from the ``.self_wall_ns``
    span counters, so nesting never double-counts) say *where* the host
    seconds went.  ``harness`` is wall time outside any span — figure
    shaping, artifact assembly, interpreter overhead.

    Benchmarks that drive hardware models with bare cycle counters (no
    Machine/Telemetry — the sink's ``register_cycles`` path) pass
    ``bare_cycles`` and no ``telemetry_doc``: all wall time is charged to
    ``harness`` since no span observed it.
    """
    from repro.telemetry.export import wall_ns_by_subsystem

    if telemetry_doc is not None:
        total_cycles = telemetry_doc["combined"]["total_cycles"]
        wall_ns = wall_ns_by_subsystem(telemetry_doc)
    else:
        total_cycles = bare_cycles or 0
        wall_ns = {}
    span_wall = sum(wall_ns.values())
    total_ns = wall_seconds * 1e9
    wall_ns = dict(sorted(wall_ns.items()))
    wall_ns["harness"] = max(total_ns - span_wall, 0.0)
    shares = {sub: ns / total_ns if total_ns else 0.0
              for sub, ns in wall_ns.items()}
    return {
        "wall_seconds": wall_seconds,
        "sim_cycles": total_cycles,
        "sim_cycles_per_wall_second":
            total_cycles / wall_seconds if wall_seconds else 0.0,
        # The gate's direction-aware band travels with the baseline so
        # `check` uses the band in force when it was recorded.
        "tolerance": spec.throughput_tolerance,
        "direction": "higher_is_better",
        "wall_ns_by_subsystem": wall_ns,
        "wall_share_by_subsystem": shares,
    }


def latency_block(telemetry_doc: dict) -> dict | None:
    """Per-enclave p50/p95/p99 cycle latencies for the edge-call spans.

    Deterministic (cycle domain), so these metrics sit under the normal
    tolerance band — including the zero band of the exact tables.
    """
    from repro.telemetry.export import latency_summaries

    summary = latency_summaries(telemetry_doc)
    return summary or None


def build_artifact(spec, figures, telemetry_doc: dict | None,
                   profile_doc: dict | None,
                   fingerprints: dict[str, str] | None = None, *,
                   wall_seconds: float | None = None,
                   bare_cycles: float | None = None,
                   timeline_doc: dict | None = None,
                   requests_doc: dict | None = None) -> dict:
    """Assemble one ``BENCH_<name>.json`` document.

    ``fingerprints`` maps machine labels to ``Machine.state_hash()``
    values; the gate compares them with *exact equality* (no tolerance
    band), turning the bench gate into a cross-run determinism gate.
    ``wall_seconds`` is the host wall-clock duration of the benchmark's
    ``run()``; when given (and telemetry captured cycles), the artifact
    gains the ``throughput`` block and its direction-aware gated metric.
    ``timeline_doc`` (``--timeline``) and ``requests_doc``
    (``--requests``) ride along informationally: the gate compares only
    ``metrics`` and ``fingerprints``, so neither block ever gates and
    baselines recorded without them stay green.
    """
    from repro.profiler import profile_summary

    figures = _jsonable(figures)
    metrics = flatten_metrics(figures)

    telemetry_digest = None
    throughput = None
    latency = None
    if telemetry_doc is not None and telemetry_doc["machines"]:
        combined = telemetry_doc["combined"]
        telemetry_digest = {
            "machines": len(telemetry_doc["machines"]),
            "total_cycles": combined["total_cycles"],
            "by_subsystem": combined["by_subsystem"],
        }
        metrics["telemetry.total_cycles"] = float(combined["total_cycles"])
        for sub, cycles in combined["by_subsystem"].items():
            metrics[f"telemetry.by_subsystem.{sub}"] = float(cycles)
        if wall_seconds is not None and wall_seconds > 0:
            throughput = throughput_block(spec, telemetry_doc, wall_seconds)
            metrics["throughput.sim_cycles_per_wall_second"] = \
                float(throughput["sim_cycles_per_wall_second"])
        latency = latency_block(telemetry_doc)
        if latency is not None:
            metrics.update(flatten_metrics(latency, "latency"))
    elif (bare_cycles and wall_seconds is not None and wall_seconds > 0):
        # No machines, but the run registered bare cycle counters with
        # the sink (e.g. fig11's memory-latency sweep): the throughput
        # gate still applies, with all wall time attributed to harness.
        throughput = throughput_block(spec, None, wall_seconds,
                                      bare_cycles=bare_cycles)
        metrics["throughput.sim_cycles_per_wall_second"] = \
            float(throughput["sim_cycles_per_wall_second"])

    profile_digest = None
    if profile_doc is not None and profile_doc["machines"]:
        profile_digest = profile_summary(profile_doc)
        metrics["profile.total_span_cycles"] = \
            float(profile_digest["total_span_cycles"])

    return {
        "version": ARTIFACT_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "kind": ARTIFACT_KIND,
        "name": spec.name,
        "title": spec.title,
        "bench_kind": spec.kind,
        "tolerance": spec.tolerance,
        "provenance": provenance(),
        "figures": figures,
        "metrics": metrics,
        "fingerprints": dict(fingerprints) if fingerprints else {},
        "telemetry": telemetry_digest,
        "throughput": throughput,
        "latency": latency,
        "profile": profile_digest,
        "timeline": timeline_doc,
        "requests": requests_doc,
    }


def artifact_version(document: dict) -> int:
    """The schema version of a loaded artifact (1 when pre-versioning).

    Version-2 artifacts carry the explicit ``artifact_version`` field;
    version-1 baselines only have ``version``.
    """
    return int(document.get("artifact_version",
                            document.get("version", 1)))


def validate_artifact(document) -> None:
    """Raise ``ValueError`` unless ``document`` is a bench artifact."""
    if not isinstance(document, dict):
        raise ValueError("artifact: expected an object")
    if document.get("version") not in SUPPORTED_ARTIFACT_VERSIONS:
        raise ValueError(
            f"artifact: unsupported version {document.get('version')!r} "
            f"(supported: {SUPPORTED_ARTIFACT_VERSIONS})")
    if document.get("kind") != ARTIFACT_KIND:
        raise ValueError(
            f"artifact: unexpected kind {document.get('kind')!r}")
    for key in ("name", "title", "bench_kind"):
        if not isinstance(document.get(key), str):
            raise ValueError(f"artifact: missing string field {key!r}")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("artifact: missing non-empty metrics object")
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"artifact: non-numeric metric {key!r}")
    fingerprints = document.get("fingerprints", {})
    if not isinstance(fingerprints, dict):
        raise ValueError("artifact: fingerprints must be an object")
    for key, value in fingerprints.items():
        if not isinstance(value, str):
            raise ValueError(
                f"artifact: non-string fingerprint {key!r}")
    throughput = document.get("throughput")
    if throughput is not None:
        if not isinstance(throughput, dict):
            raise ValueError("artifact: throughput must be an object")
        rate = throughput.get("sim_cycles_per_wall_second")
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
                or rate <= 0:
            raise ValueError(
                f"artifact: throughput.sim_cycles_per_wall_second must "
                f"be a positive number, got {rate!r}")


def write_artifact(path: str | pathlib.Path, document: dict
                   ) -> pathlib.Path:
    """Validate and write one artifact; returns the path."""
    validate_artifact(document)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | pathlib.Path) -> dict:
    """Read and validate one ``BENCH_<name>.json`` artifact."""
    document = json.loads(pathlib.Path(path).read_text())
    validate_artifact(document)
    return document
