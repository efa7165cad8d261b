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

Each machine's frame table lives in its record
(:func:`repro.telemetry.export.machine_record`); a ``BENCH_<name>.json``
artifact carries those records and, as its ``profile`` block, the
combined table built here.

* :func:`combined_profile` — every record's frames merged by stack;
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

from repro.telemetry.export import frame_row


# -- building --------------------------------------------------------------

def combined_profile(records: list[dict]) -> dict:
    """The combined frame table: every record's frames merged by stack.

    Its self-cycle sum equals the sum of every machine's root-span
    cycles, ``total_span_cycles``.
    """
    merged: dict[tuple[str, ...], list] = {}
    for record in records:
        for frame in record["frames"]:
            totals = merged.setdefault(tuple(frame["stack"]), [0, 0, 0])
            totals[0] += frame["calls"]
            totals[1] += frame["cycles"]
            totals[2] += frame["self_cycles"]
    return {
        "total_span_cycles": sum(r["total_span_cycles"] for r in records),
        "frames": [frame_row(stack, *merged[stack])
                   for stack in sorted(merged)],
    }


def self_total(section: dict) -> int:
    """Sum of self-cycles over one frame table (== root cycles)."""
    return sum(frame["self_cycles"] for frame in section["frames"])


# -- collapsed stacks --------------------------------------------------------
#
# One line per unique stack, semicolon-joined frames, a space, and the
# integer self-cycle count (``table1;sdk.ecall;world.eenter 184320``):
# the input format of flamegraph.pl, speedscope, inferno and
# d3-flame-graph.  Counts are *self* cycles, so flamegraph widths show
# inclusive cycles per frame.

def collapsed_lines(records: list[dict]) -> list[str]:
    """Render the records' frame tables as collapsed-stack lines.

    Every stack is rooted at its machine label, so a multi-machine run
    shows one tower per machine.
    """
    lines: list[str] = []
    for record in records:
        label = record["label"].replace(";", "_").replace(" ", "_")
        for frame in record["frames"]:
            if frame["self_cycles"] <= 0:
                continue
            stack = ";".join([label] + frame["stack"])
            lines.append(f"{stack} {int(frame['self_cycles'])}")
    return lines


def write_collapsed(path: str | pathlib.Path, records: list[dict]
                    ) -> pathlib.Path:
    """Write the collapsed-stack file; returns the path."""
    path = pathlib.Path(path)
    lines = collapsed_lines(records)
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
    """Every frame of two combined profiles, by |self-cycle delta|.

    The frame tables are complete, so a stack missing from one side
    spent no cycles there and counts as zero.
    """
    base_frames, cur_frames = ({tuple(f["stack"]): f
                                for f in profile["frames"]}
                               for profile in (base, current))
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
    base_total = base["total_span_cycles"]
    cur_total = current["total_span_cycles"]
    out = ["Profile diff: top self-cycle deltas", "=" * 40,
           f"total span cycles: {base_total:,} -> {cur_total:,} "
           f"({cur_total - base_total:+,})", ""]
    moved = [f"  {d.delta:>+14,}  {';'.join(d.stack)}  "
             f"(self {d.base_self:,} -> {d.cur_self:,}, "
             f"calls {d.base_calls} -> {d.cur_calls})"
             for d in rank_deltas(base, current) if d.delta != 0][:n]
    out.extend(moved or ["no frame moved a single cycle"])
    return "\n".join(out)
