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

The profile has one home: the ``profile`` block of a ``BENCH_<name>.json``
artifact, which :func:`repro.bench.artifact.validate_artifact` checks.

* :func:`profile_document` — per-machine frame tables plus a combined one;
* :func:`write_collapsed` — flamegraph-ready collapsed stacks
  (``<name>.collapsed`` under ``python -m repro.bench run --artifacts``);
* :func:`rank_deltas` / :func:`diff_report` — where the cycles moved
  between two runs (``python -m repro.bench diff A B``).

Profiles hold simulated cycles only.  Host time per layer is
``perfbench/run.py --trace 1``'s job.  See docs/OBSERVABILITY.md for a
"reading a cycle profile" walkthrough.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from repro.telemetry.core import Telemetry, UnclosedSpanError


# -- building --------------------------------------------------------------

def _frame(stack, calls, cycles, self_cycles) -> dict:
    """One unique call stack's cycles: ``cycles`` is inclusive (this
    frame plus its children), ``self_cycles`` exclusive."""
    return {"stack": list(stack), "calls": calls, "cycles": cycles,
            "self_cycles": self_cycles}


def machine_profile(telemetry: Telemetry, label: str = "machine") -> dict:
    """One machine's exact cycle profile as a JSON-ready dict.

    Raises :class:`~repro.telemetry.UnclosedSpanError` when spans are
    still open: their cycles are not yet attributed.
    """
    open_names = telemetry.open_span_names()
    if open_names:
        raise UnclosedSpanError(
            f"profiling {label!r} with {len(open_names)} span(s) still "
            f"open: {' > '.join(open_names)}")
    frames = telemetry.frames
    return {
        "label": label,
        "total_span_cycles": telemetry.root_cycles,
        "spans_recorded": sum(calls for calls, _, _ in frames.values()),
        "frames": [_frame(path, *frames[path]) for path in sorted(frames)],
        "by_enclave": dict(telemetry.self_by_enclave),
    }


def _merge_frames(machines: list[dict]) -> list[dict]:
    merged: dict[tuple[str, ...], list] = {}
    for snap in machines:
        for frame in snap["frames"]:
            totals = merged.setdefault(tuple(frame["stack"]), [0, 0, 0])
            totals[0] += frame["calls"]
            totals[1] += frame["cycles"]
            totals[2] += frame["self_cycles"]
    return [_frame(stack, *merged[stack]) for stack in sorted(merged)]


def profile_document(items: list[tuple[str, Telemetry]]) -> dict:
    """The profile: per-machine sections plus a combined frame table.

    ``combined`` merges frames by stack across machines; its self-cycle
    sum equals the sum of every machine's root-span cycles.
    """
    machines = [machine_profile(tel, label) for label, tel in items]
    return {
        "machines": machines,
        "combined": {
            "total_span_cycles": sum(m["total_span_cycles"]
                                     for m in machines),
            "frames": _merge_frames(machines),
        },
    }


def self_total(section: dict) -> int:
    """Sum of self-cycles over one section's frames (== root cycles)."""
    return sum(frame["self_cycles"] for frame in section["frames"])


# -- collapsed stacks --------------------------------------------------------
#
# One line per unique stack, semicolon-joined frames, a space, and the
# integer self-cycle count (``table1;sdk.ecall;world.eenter 184320``):
# the input format of flamegraph.pl, speedscope, inferno and
# d3-flame-graph.  Counts are *self* cycles, so flamegraph widths show
# inclusive cycles per frame.

def collapsed_lines(profile: dict) -> list[str]:
    """Render a profile as collapsed-stack lines.

    Every stack is rooted at its machine label, so a multi-machine run
    shows one tower per machine.
    """
    lines: list[str] = []
    for snap in profile["machines"]:
        label = snap["label"].replace(";", "_").replace(" ", "_")
        for frame in snap["frames"]:
            if frame["self_cycles"] <= 0:
                continue
            stack = ";".join([label] + frame["stack"])
            lines.append(f"{stack} {int(frame['self_cycles'])}")
    return lines


def write_collapsed(path: str | pathlib.Path, profile: dict
                    ) -> pathlib.Path:
    """Write the collapsed-stack file; returns the path."""
    path = pathlib.Path(path)
    lines = collapsed_lines(profile)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Parse collapsed-stack text back into ``{stack: count}``.

    The round-trip partner of :func:`collapsed_lines`; tests use it to
    prove the emitted file is well-formed for downstream tooling.
    """
    out: dict[tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_part, _, count_part = line.rpartition(" ")
        if not stack_part or not count_part.isdigit():
            raise ValueError(f"collapsed line {lineno}: {line!r}")
        key = tuple(stack_part.split(";"))
        out[key] = out.get(key, 0) + int(count_part)
    return out


# -- diffing ---------------------------------------------------------------

@dataclass
class FrameDelta:
    """One stack's cycle movement between a base and a current run."""

    stack: tuple[str, ...]
    base_self: int
    cur_self: int
    base_calls: int
    cur_calls: int

    @property
    def delta(self) -> int:
        return self.cur_self - self.base_self


def rank_deltas(base: dict, current: dict) -> list[FrameDelta]:
    """Every combined frame of two profiles, by |self-cycle delta|.

    The frame tables are complete, so a stack missing from one side
    spent no cycles there and counts as zero.
    """
    base_frames, cur_frames = ({tuple(f["stack"]): f
                                for f in doc["combined"]["frames"]}
                               for doc in (base, current))
    deltas = []
    for stack in sorted(base_frames.keys() | cur_frames.keys()):
        b = base_frames.get(stack)
        c = cur_frames.get(stack)
        deltas.append(FrameDelta(
            stack=stack,
            base_self=int(b["self_cycles"]) if b else 0,
            cur_self=int(c["self_cycles"]) if c else 0,
            base_calls=int(b["calls"]) if b else 0,
            cur_calls=int(c["calls"]) if c else 0))
    deltas.sort(key=lambda d: (-abs(d.delta), d.stack))
    return deltas


def diff_report(base: dict, current: dict, n: int = 10) -> str:
    """The total's movement and the ``n`` frames that moved most."""
    base_total = base["combined"]["total_span_cycles"]
    cur_total = current["combined"]["total_span_cycles"]
    out = ["Profile diff: top self-cycle deltas", "=" * 40,
           f"total span cycles: {base_total:,} -> {cur_total:,} "
           f"({cur_total - base_total:+,})", ""]
    moved = [f"  {d.delta:>+14,}  {';'.join(d.stack)}  "
             f"(self {d.base_self:,} -> {d.cur_self:,}, "
             f"calls {d.base_calls} -> {d.cur_calls})"
             for d in rank_deltas(base, current) if d.delta != 0][:n]
    out.extend(moved or ["no frame moved a single cycle"])
    return "\n".join(out)
