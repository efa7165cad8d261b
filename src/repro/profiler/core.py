"""Exact cycle-attribution profiles over the telemetry span tree.

Unlike a sampling profiler, this one is *exact*: every span, as it
closes, folds the precise simulated-cycle interval it covered into the
frame of the exact ancestor stack it opened under
(:attr:`repro.telemetry.Telemetry.frames`), so the frame table is a
complete accounting — the self-cycles of all frames sum to the cycles of
all root spans, bit for bit, however many spans the run closed (the
bounded span ring only feeds the Chrome trace).

The profiler only *reads* that table; it charges nothing to the
simulated clock, so profiles can be taken on calibrated benchmark runs
without perturbing Table 1/2 (pinned by
``tests/profiler/test_profiler_invariants.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.core import Telemetry, UnclosedSpanError

PROFILE_VERSION = 1
PROFILE_KIND = "hyperenclave-cycle-profile"


@dataclass
class FrameStats:
    """Aggregated cycles for one unique call stack."""

    stack: tuple[str, ...]
    calls: int = 0
    cycles: int = 0          # inclusive: this frame plus its children
    self_cycles: int = 0     # exclusive: minus enclosed child spans

    def as_dict(self) -> dict:
        return {"stack": list(self.stack), "calls": self.calls,
                "cycles": self.cycles, "self_cycles": self.self_cycles}


def machine_profile(telemetry: Telemetry, label: str = "machine", *,
                    strict: bool = True) -> dict:
    """One machine's exact cycle profile as a JSON-ready dict.

    Raises :class:`~repro.telemetry.UnclosedSpanError` when spans are
    still open (their cycles are not yet attributed); ``strict=False``
    profiles the closed spans anyway and reports the open names.
    """
    open_names = telemetry.open_span_names()
    if open_names and strict:
        raise UnclosedSpanError(
            f"profiling {label!r} with {len(open_names)} span(s) still "
            f"open: {' > '.join(open_names)}")

    frames = telemetry.frames
    return {
        "label": label,
        "total_span_cycles": telemetry.root_cycles,
        "spans_recorded": sum(calls for calls, _, _ in frames.values()),
        "open_spans": open_names,
        "frames": [FrameStats(path, *frames[path]).as_dict()
                   for path in sorted(frames)],
        "by_enclave": dict(telemetry.self_by_enclave),
    }


def _merge_frames(machines: list[dict]) -> list[dict]:
    merged: dict[tuple[str, ...], FrameStats] = {}
    for snap in machines:
        for frame in snap["frames"]:
            key = tuple(frame["stack"])
            stats = merged.get(key)
            if stats is None:
                stats = merged[key] = FrameStats(key)
            stats.calls += frame["calls"]
            stats.cycles += frame["cycles"]
            stats.self_cycles += frame["self_cycles"]
    return [merged[key].as_dict() for key in sorted(merged)]


def profile_document(items: list[tuple[str, Telemetry]], *,
                     strict: bool = True) -> dict:
    """The full profile: per-machine sections plus a combined frame table.

    ``combined`` merges frames by stack across machines; its self-cycle
    sum equals the sum of every machine's root-span cycles.
    """
    machines = [machine_profile(tel, label, strict=strict)
                for label, tel in items]
    return {
        "version": PROFILE_VERSION,
        "kind": PROFILE_KIND,
        "machines": machines,
        "combined": {
            "total_span_cycles": sum(m["total_span_cycles"]
                                     for m in machines),
            "frames": _merge_frames(machines),
        },
    }


def profile_summary(document: dict, n: int = 10) -> dict:
    """The compact digest embedded in ``BENCH_*.json`` artifacts."""
    combined = document["combined"]
    top = sorted(combined["frames"],
                 key=lambda f: (-f["self_cycles"], f["stack"]))[:n]
    return {
        "total_span_cycles": combined["total_span_cycles"],
        "machines": len(document["machines"]),
        "top_self": [{"stack": ";".join(f["stack"]),
                      "self_cycles": f["self_cycles"],
                      "calls": f["calls"]} for f in top],
    }


def validate_profile(document) -> None:
    """Raise ``ValueError`` unless ``document`` is a profile document."""
    if not isinstance(document, dict):
        raise ValueError("profile: expected an object")
    if document.get("version") != PROFILE_VERSION:
        raise ValueError(
            f"profile: unsupported version {document.get('version')!r}")
    if document.get("kind") != PROFILE_KIND:
        raise ValueError(f"profile: unexpected kind {document.get('kind')!r}")
    for where in ("machines", ):
        if not isinstance(document.get(where), list):
            raise ValueError(f"profile: missing {where} list")
    combined = document.get("combined")
    if not isinstance(combined, dict) or "frames" not in combined:
        raise ValueError("profile: missing combined.frames")
    for section in document["machines"] + [combined]:
        for frame in section["frames"]:
            stack = frame.get("stack")
            if not isinstance(stack, list) or not stack:
                raise ValueError(f"profile: bad frame stack {stack!r}")
            for field in ("calls", "cycles", "self_cycles"):
                if not isinstance(frame.get(field), (int, float)):
                    raise ValueError(
                        f"profile: frame {stack} missing {field}")


def self_total(section: dict) -> int:
    """Sum of self-cycles over one section's frames (== root cycles)."""
    return sum(frame["self_cycles"] for frame in section["frames"])
