"""Profile diffing: where did the cycles move between two runs?

Compares two profile documents frame-by-frame (matching on the exact
stack) and ranks the largest self-cycle deltas — the first thing to look
at when the bench gate reports a regression.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiler.core import validate_profile


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

    def as_dict(self) -> dict:
        return {"stack": list(self.stack), "base_self": self.base_self,
                "cur_self": self.cur_self, "delta": self.delta,
                "base_calls": self.base_calls, "cur_calls": self.cur_calls}


def _frame_table(document: dict) -> dict[tuple[str, ...], dict]:
    return {tuple(frame["stack"]): frame
            for frame in document["combined"]["frames"]}


def rank_deltas(base_frames: dict[tuple[str, ...], dict],
                cur_frames: dict[tuple[str, ...], dict]
                ) -> list[FrameDelta]:
    """Every stack in either frame table, sorted by |self-cycle delta|.

    A frame is any mapping with ``self_cycles`` and ``calls``; a stack
    missing from one table counts as zero there.
    """
    deltas = []
    for stack in sorted(set(base_frames) | set(cur_frames)):
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


def diff_profiles(base: dict, current: dict) -> list[FrameDelta]:
    """Every stack seen in either profile, sorted by |self-cycle delta|."""
    validate_profile(base)
    validate_profile(current)
    return rank_deltas(_frame_table(base), _frame_table(current))


def delta_lines(deltas: list[FrameDelta], n: int) -> list[str]:
    """One line per frame that moved, for the first ``n`` of them."""
    return [f"  {d.delta:>+14,}  {';'.join(d.stack)}  "
            f"(self {d.base_self:,} -> {d.cur_self:,}, "
            f"calls {d.base_calls} -> {d.cur_calls})"
            for d in deltas if d.delta != 0][:n]


def diff_report(base: dict, current: dict, n: int = 15) -> str:
    """A human-readable top-N cycle-delta digest."""
    deltas = diff_profiles(base, current)
    base_total = base["combined"]["total_span_cycles"]
    cur_total = current["combined"]["total_span_cycles"]
    out = ["Profile diff: top self-cycle deltas", "=" * 40,
           f"total span cycles: {base_total:,} -> {cur_total:,} "
           f"({cur_total - base_total:+,})", ""]
    out.extend(delta_lines(deltas, n)
               or ["no frame moved a single cycle"])
    return "\n".join(out)
