"""Forensic bundles: the post-mortem record of a failing run.

When a :class:`SanitizerViolation` is raised, or a captured run dies on
an unhandled fault, the platform emits one bundle per machine: the
machine state hash and per-component fingerprint, a deep state dump
(CPU context, TLB entries, full page-table walks via the machine's dump
providers), the telemetry span stack that was open at the time, the last
N journal events, and a metrics snapshot.  Bundles are indented JSON, so
the dump reads in the file itself; ``python -m repro.bench report
<bundle>`` renders the rest as tables.

Emission is opt-in: it happens only while the active telemetry sink
carries a flight recorder or ``REPRO_FORENSICS_DIR`` is set (CI sets it
so failing jobs upload bundles as artifacts).  The happy path pays
nothing.
"""

from __future__ import annotations

import json
import os
import pathlib

BUNDLE_VERSION = 1
BUNDLE_KIND = "hyperenclave-forensics"
DEFAULT_EVENT_TAIL = 64

FORENSICS_DIR_ENV = "REPRO_FORENSICS_DIR"

_emitted = 0


def forensics_dir() -> pathlib.Path:
    """Where bundles land (the CI artifact directory when set)."""
    return pathlib.Path(os.environ.get(FORENSICS_DIR_ENV) or "forensics")


def build_bundle(machine, error: BaseException | None = None, *,
                 events=None, label: str = "machine") -> dict:
    """Assemble one bundle document for ``machine``.

    ``events`` overrides the event tail (the recorder passes its
    lossless journal tail); by default the machine's own trace ring
    supplies the last events it still holds.
    """
    if events is None:
        events = [str(e) for e in machine.trace.events()[-DEFAULT_EVENT_TAIL:]]
    error_doc = None
    if error is not None:
        error_doc = {
            "type": type(error).__name__,
            "message": str(error),
            "code": getattr(error, "code", None),
        }
    from repro.flightrec.recorder import _config_document
    return {
        "version": BUNDLE_VERSION,
        "kind": BUNDLE_KIND,
        "label": label,
        "error": error_doc,
        "state_hash": machine.state_hash(),
        "state_fingerprint": machine.state_fingerprint(),
        "config": _config_document(machine.config),
        "cycles": {"total": machine.cycles.total,
                   "by_category": machine.cycles.breakdown()},
        "open_spans": machine.telemetry.open_span_names(),
        "trace_stats": machine.trace.stats(),
        "events": events,
        "metrics": machine.telemetry.registry.snapshot(),
        "hardware": machine.telemetry.hardware_stats(),
        "dump": machine.state_dump(),
    }


def write_bundle(document: dict,
                 directory: str | pathlib.Path | None = None
                 ) -> pathlib.Path:
    """Write one bundle; the filename folds in the state hash."""
    global _emitted
    _emitted += 1
    directory = pathlib.Path(directory) if directory else forensics_dir()
    directory.mkdir(parents=True, exist_ok=True)
    name = (f"forensic-{_emitted:03d}-{document['label']}"
            f"-{document['state_hash'][:12]}.json")
    path = directory / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path


def load_bundle(path: str | pathlib.Path) -> dict:
    """Read a forensic bundle from disk, validating its kind."""
    document = json.loads(pathlib.Path(path).read_text())
    if document.get("kind") != BUNDLE_KIND:
        raise ValueError(f"not a forensic bundle: {path}")
    return document


# -- emission hooks ----------------------------------------------------------

def _active_recorder():
    from repro.telemetry import sink
    active = sink.current()
    return None if active is None else active.recorder


def emission_enabled() -> bool:
    """Bundles are emitted iff recording is on or CI asked for them."""
    return _active_recorder() is not None \
        or bool(os.environ.get(FORENSICS_DIR_ENV))


def emit_for_machine(machine, error: BaseException | None = None
                     ) -> pathlib.Path | None:
    """Write one bundle for ``machine`` if emission is enabled.

    The bundle carries the active sink's label for the machine.  When
    the sink's recorder journals the machine, the event tail comes from
    the lossless journal instead of the (possibly wrapped) trace ring.
    The first bundle written for an exception is attached to it as
    ``forensic_bundle``, and its machine as ``forensic_machine``.
    """
    if not emission_enabled():
        return None
    from repro.telemetry import sink
    active = sink.current()
    label, events = "machine", None
    if active is not None:
        label = next((name for name, m in active.machines()
                      if m is machine), label)
        rec = active.recorder
        if rec is not None and machine in rec.machines:
            slot = rec.machines.index(machine)
            events = [str(e) for e in rec.journal.events
                      if e.machine == slot][-DEFAULT_EVENT_TAIL:]
    path = write_bundle(build_bundle(machine, error, events=events,
                                     label=label))
    if error is not None and getattr(error, "forensic_bundle", None) is None:
        try:
            error.forensic_bundle = str(path)
            error.forensic_machine = machine
        except AttributeError:
            pass                     # exceptions with __slots__
    return path
