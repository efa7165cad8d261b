"""The flight recorder: machine attachment, taps, checkpoint cadence.

A :class:`FlightRecorder` rides on a telemetry sink
(``with repro.flightrec.scenario.observed(recorder):``): every
:class:`~repro.hw.machine.Machine` the sink captures is attached once,
under the sink's label for it.  Attachment enables the machine's
telemetry (spans and the trace ring observe the simulated clock — they
never charge cycles) and installs a *tap* on the trace ring, so the
journal sees every event even after the bounded ring wraps.

Every ``checkpoint_every`` journaled events the recorder folds
``Machine.state_hash()`` into the journal's hash chain.  The hash is a
pure read of simulator state — recording perturbs no cycle count, which
the zero-perturbation test pins.
"""

from __future__ import annotations

from repro.flightrec.journal import Journal, JournalEvent

DEFAULT_CHECKPOINT_EVERY = 1024


def _config_document(config) -> dict:
    """A MachineConfig as JSON-ready data (tpm_seed becomes hex)."""
    import dataclasses
    doc = dataclasses.asdict(config)
    doc["tpm_seed"] = config.tpm_seed.hex()
    return doc


class FlightRecorder:
    """Record one scenario run into a :class:`Journal`."""

    def __init__(self, scenario: str, args: dict | None = None, *,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY) -> None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        from repro.bench.artifact import costs_fingerprint
        self.checkpoint_every = checkpoint_every
        self.journal = Journal({
            "scenario": scenario,
            "args": args or {},
            "checkpoint_every": checkpoint_every,
            "provenance": {"costs_fingerprint": costs_fingerprint()},
            "machines": [],
        })
        self._machines: list = []          # slot index -> Machine
        self._since_checkpoint: list[int] = []
        self._finished = False

    @property
    def machines(self) -> list:
        return list(self._machines)

    def attach_machine(self, machine, label: str) -> int:
        """Start journaling one machine; returns its slot index."""
        slot = len(self._machines)
        self._machines.append(machine)
        self._since_checkpoint.append(0)
        self.journal.header["machines"].append({
            "label": label,
            "config": _config_document(machine.config),
        })
        machine.telemetry.enable()
        ring = machine.trace

        def on_event(event, _slot=slot, _machine=machine,
                     _ring=ring) -> None:
            self.journal.add_event(JournalEvent(
                _slot, event.seq, event.cycle, event.kind, event.detail,
                event.cause))
            self._since_checkpoint[_slot] += 1
            if self._since_checkpoint[_slot] >= self.checkpoint_every:
                self._since_checkpoint[_slot] = 0
                self.journal.add_checkpoint(
                    _slot, event.seq, event.cycle, _machine.state_hash())

        ring.tap(on_event)
        return slot

    def relabel(self, machine, label: str) -> None:
        """Rename an attached machine in the journal header."""
        slot = self._machines.index(machine)
        self.journal.header["machines"][slot]["label"] = label

    def finish(self, figures=None) -> Journal:
        """Take final checkpoints and summarize; idempotent."""
        if self._finished:
            return self.journal
        self._finished = True
        from repro.hw import statehash
        machines_summary = []
        for slot, machine in enumerate(self._machines):
            ring = machine.trace
            self.journal.add_checkpoint(
                slot, max(ring.total_recorded - 1, 0),
                int(machine.cycles.read()), machine.state_hash())
            machines_summary.append({
                "label": self.journal.header["machines"][slot]["label"],
                "total_cycles": machine.cycles.total,
                "events": ring.total_recorded,
                "state_hash": machine.state_hash(),
            })
        self.journal.summary = {
            "machines": machines_summary,
            "total_events": len(self.journal.events),
        }
        if figures is not None:
            self.journal.summary["figures_digest"] = \
                statehash.digest(_jsonable_figures(figures))
        return self.journal


def _jsonable_figures(figures):
    from repro.bench.artifact import _jsonable
    return _jsonable(figures)
