"""Replay a journal and bisect to the first divergence.

Replay re-executes the journal's scenario under a fresh recorder and
compares the two journals (``python -m repro.bench replay JOURNAL``).
The checkpoint hash chain makes the search logarithmic: chain values
are cumulative, so equality at checkpoint *k* proves the runs agreed on
every checkpoint up to *k*, and binary search finds the first
disagreeing checkpoint.  The event window between it and
the previous checkpoint is then scanned event-by-event for the first
mismatching (seq, cycle, kind, detail, cause) tuple — the exact first
divergent event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flightrec.journal import Journal, JournalEvent


@dataclass
class Divergence:
    """Where and how two runs first disagreed."""

    kind: str                       # "event" | "state" | "length"
    machine: int
    description: str
    baseline_event: JournalEvent | None = None
    replay_event: JournalEvent | None = None
    checkpoint_index: int | None = None
    baseline_window: list[str] = field(default_factory=list)
    replay_window: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"DIVERGENCE ({self.kind}): {self.description}"]
        if self.checkpoint_index is not None:
            lines.append(
                f"  first disagreeing checkpoint: #{self.checkpoint_index}")
        if self.baseline_event is not None:
            lines.append(f"  baseline event: {self.baseline_event}")
        if self.replay_event is not None:
            lines.append(f"  replay event:   {self.replay_event}")
        if self.baseline_window:
            lines.append("  baseline window:")
            lines.extend(f"    {line}" for line in self.baseline_window)
        if self.replay_window:
            lines.append("  replay window:")
            lines.extend(f"    {line}" for line in self.replay_window)
        return "\n".join(lines)


@dataclass
class ReplayResult:
    """The outcome of one replay."""

    journal: Journal                # the baseline (recorded) journal
    replayed: Journal
    divergence: Divergence | None
    replay_error: str | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.replay_error is None

    def render(self, *, verbose: bool = False) -> str:
        base, rep = self.journal, self.replayed
        lines = [
            f"scenario:    {base.header['scenario']}",
            f"events:      baseline={len(base.events)} "
            f"replay={len(rep.events)}",
            f"checkpoints: baseline={len(base.checkpoints)} "
            f"replay={len(rep.checkpoints)}",
        ]
        if self.replay_error:
            lines.append(f"replay raised: {self.replay_error}")
        if self.divergence is None:
            lines.append("replay OK: zero divergence "
                         "(every checkpoint chain and event matches)")
        else:
            lines.append(self.divergence.render())
        if verbose and base.summary:
            lines.append(f"baseline summary: {base.summary}")
        return "\n".join(lines)


# -- divergence search -------------------------------------------------------

def _first_divergent_checkpoint(base: Journal, rep: Journal) -> int | None:
    """Binary search for the first checkpoint whose chains disagree.

    Valid because chains are cumulative: agreement at k implies
    agreement at every checkpoint before k.  Returns None when the
    common prefix fully agrees.
    """
    n = min(len(base.checkpoints), len(rep.checkpoints))
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if base.checkpoints[mid].chain != rep.checkpoints[mid].chain:
            hi = mid
        else:
            lo = mid + 1
    return lo if lo < n else None


def _window_bounds(journal: Journal, cp_index: int) -> tuple[int, int, int]:
    """(machine, lo_seq, hi_seq) for the events a checkpoint covers."""
    cp = journal.checkpoints[cp_index]
    lo_seq = 0
    for earlier in reversed(journal.checkpoints[:cp_index]):
        if earlier.machine == cp.machine:
            lo_seq = earlier.seq + 1
            break
    return cp.machine, lo_seq, cp.seq


def _first_event_mismatch(base_events: list[JournalEvent],
                          rep_events: list[JournalEvent]
                          ) -> tuple[int, JournalEvent | None,
                                     JournalEvent | None] | None:
    """Index + both sides of the first positional mismatch, else None."""
    for i, (b, r) in enumerate(zip(base_events, rep_events)):
        if b.key() != r.key():
            return i, b, r
    if len(base_events) != len(rep_events):
        i = min(len(base_events), len(rep_events))
        b = base_events[i] if i < len(base_events) else None
        r = rep_events[i] if i < len(rep_events) else None
        return i, b, r
    return None


def _event_windows(base_events, rep_events, index: int,
                   window: int) -> tuple[list[str], list[str]]:
    lo = max(index - window, 0)
    hi = index + window + 1
    mark = {index}

    def fmt(events):
        return [("=> " if i in mark else "   ") + str(e)
                for i, e in enumerate(events[lo:hi], start=lo)]
    return fmt(base_events), fmt(rep_events)


def find_divergence(base: Journal, rep: Journal, *,
                    window: int = 8) -> Divergence | None:
    """The first point where two journals of the same scenario disagree."""
    cp_index = _first_divergent_checkpoint(base, rep)
    if cp_index is not None:
        machine, lo_seq, hi_seq = _window_bounds(base, cp_index)
        base_events = base.events_between(lo_seq, hi_seq, machine)
        rep_events = rep.events_between(lo_seq, hi_seq, machine)
        mismatch = _first_event_mismatch(base_events, rep_events)
        if mismatch is not None:
            i, b, r = mismatch
            bw, rw = _event_windows(base_events, rep_events, i, window)
            what = b or r
            return Divergence(
                kind="event", machine=machine,
                description=(f"first divergent event is seq "
                             f"#{what.seq} ({what.kind}) in the window "
                             f"of checkpoint #{cp_index} "
                             f"(seq {lo_seq}..{hi_seq})"),
                baseline_event=b, replay_event=r,
                checkpoint_index=cp_index,
                baseline_window=bw, replay_window=rw)
        bcp = base.checkpoints[cp_index]
        rcp = rep.checkpoints[cp_index]
        bw, rw = _event_windows(base_events, rep_events,
                                len(base_events) - 1, window)
        return Divergence(
            kind="state", machine=machine,
            description=(f"checkpoint #{cp_index} state hashes differ "
                         f"({bcp.state_hash[:16]}… vs "
                         f"{rcp.state_hash[:16]}…) but every event in "
                         f"its window matches: a silent state "
                         f"divergence between seq {lo_seq} and "
                         f"{hi_seq}"),
            checkpoint_index=cp_index,
            baseline_window=bw, replay_window=rw)

    # The common checkpoint prefix agrees; look at the full event
    # streams (divergence after the last checkpoint, or a truncated
    # run).
    mismatch = _first_event_mismatch(base.events, rep.events)
    if mismatch is not None:
        i, b, r = mismatch
        bw, rw = _event_windows(base.events, rep.events, i, window)
        what = b or r
        kind = "event" if b is not None and r is not None else "length"
        return Divergence(
            kind=kind, machine=what.machine,
            description=(f"first divergent event is stream position {i} "
                         f"(seq #{what.seq}, {what.kind}), after the "
                         f"last agreeing checkpoint"),
            baseline_event=b, replay_event=r,
            baseline_window=bw, replay_window=rw)
    if len(base.checkpoints) != len(rep.checkpoints):
        return Divergence(
            kind="length", machine=0,
            description=(f"checkpoint counts differ "
                         f"({len(base.checkpoints)} vs "
                         f"{len(rep.checkpoints)}) with identical "
                         f"events — one run took extra checkpoints"))
    return None


# -- replay ------------------------------------------------------------------

def replay_journal(journal: Journal, *, window: int = 8,
                   perturb=None) -> ReplayResult:
    """Re-execute a journal's scenario and locate the first divergence.

    The re-execution is captured like any recorded run
    (:func:`repro.flightrec.scenario.observed`), but a crash is caught
    here and kept as ``replay_error`` (a diverged run may crash, and
    bisection still wants its partial journal), so the crash path of
    ``observed`` never runs on replay; only a sanitizer violation writes
    its own bundle.  ``perturb`` is an optional context manager (see
    :mod:`repro.flightrec.perturb`) active during it — the test hook
    proving bisection localizes an injected fault.
    """
    import contextlib

    from repro.flightrec.recorder import FlightRecorder
    from repro.flightrec.scenario import observed, resolve
    header = journal.header
    fn = resolve(header["scenario"])
    error = None
    rec = FlightRecorder(header["scenario"], header.get("args"),
                         checkpoint_every=header.get("checkpoint_every",
                                                     1024))
    with observed(rec):
        try:
            with (perturb if perturb is not None
                  else contextlib.nullcontext()):
                figures = fn(dict(header.get("args") or {}))
        except Exception as exc:        # a diverged run may crash; keep
            figures = None              # the partial journal for bisection
            error = f"{type(exc).__name__}: {exc}"
    replayed = rec.finish(figures)
    divergence = find_divergence(journal, replayed, window=window)
    return ReplayResult(journal=journal, replayed=replayed,
                        divergence=divergence, replay_error=error)
