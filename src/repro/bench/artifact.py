"""``BENCH_<name>.json`` artifacts: the machine-readable result record.

One artifact per benchmark run, containing

* ``figures`` — the JSON-ready figure values, shaped by the registry's
  figure function (series plus the x-axis they are plotted over),
* ``metrics`` — every numeric leaf of ``figures`` flattened to a
  dot-path, plus what the records give the gate: the cycle digest
  (``telemetry.total_cycles``, ``telemetry.by_subsystem.*``), the
  per-enclave latency percentiles (``latency.*``) and
  ``profile.total_span_cycles`` — the exact set the regression gate
  compares with tolerance bands,
* ``machines`` — one record per simulated machine
  (:func:`repro.telemetry.export.machine_record`): cycles by category,
  metrics registry, hardware collectors, span counts and frame table,
* ``profile`` — the combined frame table (:mod:`repro.profiler`),
* ``requests`` — the full request-trace document of a ``--requests``
  run (never gated; no side file copies it),
* ``provenance`` — cost-model fingerprint, python version, git commit.

The records and the request document have no side file: the artifact is
their only copy, and :func:`validate_artifact` checks them on every
write and load.

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

from repro.profiler import combined_profile
from repro.telemetry.export import combined_cycles, latency_summaries
from repro.telemetry.schema import (check_frames, check_record,
                                    validate_requests)

# The layout version: ``validate_artifact`` refuses any other.
ARTIFACT_VERSION = 5
ARTIFACT_KIND = "hyperenclave-bench"


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
    return {
        "costs_fingerprint": costs_fingerprint(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "git_commit": _git_commit(),
        "determinism": "seeded simulation (staticcheck SC001)",
    }


# -- artifact assembly -------------------------------------------------------

def build_artifact(spec, figures, records: list[dict] = (),
                   fingerprints: dict[str, str] | None = None, *,
                   requests_doc: dict | None = None) -> dict:
    """Assemble one ``BENCH_<name>.json`` document.

    ``records`` (:func:`repro.telemetry.export.machine_records`) are
    stored whole; the gate reads the cycle digest, the latency
    percentiles and the combined ``profile.total_span_cycles`` derived
    from them.  ``fingerprints`` maps machine labels to
    ``Machine.state_hash()`` values; the gate compares them with *exact
    equality* (no tolerance band), turning the bench gate into a
    cross-run determinism gate.
    ``requests_doc`` (``--requests``) rides along informationally: the
    gate compares only ``metrics`` and ``fingerprints``, so the block
    never gates and baselines recorded without it stay green.
    """
    figures = _jsonable(figures)
    metrics = flatten_metrics(figures)
    profile = None
    if records:
        cycles = combined_cycles(records)
        metrics["telemetry.total_cycles"] = float(cycles["total"])
        for sub, value in cycles["by_subsystem"].items():
            metrics[f"telemetry.by_subsystem.{sub}"] = float(value)
        metrics.update(flatten_metrics(latency_summaries(records),
                                       "latency"))
        profile = combined_profile(records)
        metrics["profile.total_span_cycles"] = \
            float(profile["total_span_cycles"])

    return {
        "version": ARTIFACT_VERSION,
        "kind": ARTIFACT_KIND,
        "name": spec.name,
        "title": spec.title,
        "bench_kind": spec.kind,
        "tolerance": spec.tolerance,
        "provenance": provenance(),
        "figures": figures,
        "metrics": metrics,
        "fingerprints": dict(fingerprints) if fingerprints else {},
        "machines": list(records),
        "profile": profile,
        "requests": requests_doc,
    }


def validate_artifact(document) -> None:
    """Raise ``ValueError`` unless ``document`` is a bench artifact."""
    if not isinstance(document, dict):
        raise ValueError("artifact: expected an object")
    if document.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"artifact: unsupported version {document.get('version')!r} "
            f"(supported: {ARTIFACT_VERSION})")
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
    machines = document.get("machines")
    if not isinstance(machines, list):
        raise ValueError("artifact: missing machines list")
    for i, record in enumerate(machines):
        check_record(record, f"artifact.machines[{i}]")
    profile = document.get("profile")
    if profile is not None:
        if not isinstance(profile, dict):
            raise ValueError("artifact: profile must be an object")
        check_frames(profile.get("frames"), "artifact.profile.frames")
    if document.get("requests") is not None:
        validate_requests(document["requests"])


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
