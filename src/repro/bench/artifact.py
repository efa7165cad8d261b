"""``BENCH_<name>.json`` artifacts: the machine-readable result record.

One artifact per benchmark run, containing

* ``figures`` — the JSON-ready figure values, shaped by the registry's
  figure function (series plus the x-axis they are plotted over),
* ``metrics`` — every numeric leaf of ``figures`` flattened to a
  dot-path, plus the telemetry digest (``telemetry.total_cycles``,
  ``telemetry.by_subsystem.*``) and ``profile.total_span_cycles`` — the
  exact set the regression gate compares with tolerance bands,
* ``telemetry`` — the cycle digest,
* ``profile`` — the exact cycle profile (:mod:`repro.profiler`): every
  machine's frame table plus the combined one; no side file copies it,
* ``requests`` — the full request-trace document of a ``--requests``
  run (never gated; no side file copies it),
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

from repro.telemetry.schema import validate_requests

# Version 4 dropped the sampled EPC series block; version 3 made
# ``profile`` the full frame table.
ARTIFACT_VERSION = 4
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

def latency_block(telemetry_doc: dict) -> dict | None:
    """Per-enclave p50/p95/p99 cycle latencies for the edge-call spans.

    Deterministic (cycle domain), so these metrics sit under the normal
    tolerance band — including the zero band of the exact tables.
    """
    from repro.telemetry.export import latency_summaries

    summary = latency_summaries(telemetry_doc)
    return summary or None


def build_artifact(spec, figures, telemetry_doc: dict | None,
                   profile: dict | None,
                   fingerprints: dict[str, str] | None = None, *,
                   requests_doc: dict | None = None) -> dict:
    """Assemble one ``BENCH_<name>.json`` document.

    ``profile`` (:func:`repro.profiler.profile_document`) is stored
    whole; only its combined total, ``profile.total_span_cycles``,
    gates.  ``fingerprints`` maps machine labels to
    ``Machine.state_hash()`` values; the gate compares them with *exact
    equality* (no tolerance band), turning the bench gate into a
    cross-run determinism gate.
    ``requests_doc`` (``--requests``) rides along informationally: the
    gate compares only ``metrics`` and ``fingerprints``, so the block
    never gates and baselines recorded without it stay green.
    """
    figures = _jsonable(figures)
    metrics = flatten_metrics(figures)

    telemetry_digest = None
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
        latency = latency_block(telemetry_doc)
        if latency is not None:
            metrics.update(flatten_metrics(latency, "latency"))

    if profile is not None:
        metrics["profile.total_span_cycles"] = \
            float(profile["combined"]["total_span_cycles"])

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
        "telemetry": telemetry_digest,
        "latency": latency,
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
    # The artifact is the only copy of the profile and request
    # documents, so they are held to their schemas here, on every write
    # and every load.
    if document.get("profile") is not None:
        _check_profile(document["profile"])
    if document.get("requests") is not None:
        validate_requests(document["requests"])


def _check_profile(profile) -> None:
    """Raise ``ValueError`` unless ``profile`` is a profile block."""
    if not isinstance(profile, dict) \
            or not isinstance(profile.get("machines"), list):
        raise ValueError("artifact: profile missing machines list")
    combined = profile.get("combined")
    if not isinstance(combined, dict) \
            or not isinstance(combined.get("frames"), list):
        raise ValueError("artifact: profile missing combined.frames")
    for section in profile["machines"] + [combined]:
        for frame in section["frames"]:
            stack = frame.get("stack")
            if not isinstance(stack, list) or not stack:
                raise ValueError(
                    f"artifact: profile frame has bad stack {stack!r}")
            for field in ("calls", "cycles", "self_cycles"):
                if not isinstance(frame.get(field), (int, float)):
                    raise ValueError(
                        f"artifact: profile frame {stack} missing {field}")


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
