"""The process-wide telemetry sink: collect every machine a run creates.

A :class:`TelemetrySink` tracks ``(label, Telemetry)`` pairs while it is
active.  :class:`~repro.hw.machine.Machine` consults :func:`current` at
construction time and registers its telemetry hub automatically, so *any*
workload — a benchmark, a test, an app driver — captures every machine it
touches without per-call-site plumbing.  Call sites that know a better
name (the benchmark conftest labels machines by enclave mode) re-register
the same hub and simply upgrade its label: registration is idempotent by
telemetry identity.

The sink is the only process-wide capture hook: a request tracer (an
option of the sink) and a flight recorder (put on it by
``repro.flightrec.scenario.observed``) are attached to each machine
when it registers and relabeled with it, so the artifact, the journal
and a forensic bundle all name a machine the same way.  This is the
backend behind ``python -m repro.bench run|check``.
"""

from __future__ import annotations

from repro.telemetry.core import Telemetry
from repro.telemetry.export import snapshot_document, write_telemetry

_ACTIVE: "TelemetrySink | None" = None


class TelemetrySink:
    """Collects the telemetry hubs of every machine a run creates."""

    def __init__(self, *, trace_requests: bool = False) -> None:
        self._items: list[tuple[str, Telemetry]] = []
        self._labels: set[str] = set()
        self._index: dict[int, int] = {}    # id(telemetry) -> items index
        self._machines: dict[int, object] = {}  # id(telemetry) -> Machine
        # When true, every machine registered here gets a request tracer
        # (repro.telemetry.requests).
        self._trace_requests = trace_requests
        # When set (by repro.flightrec.scenario.observed), a
        # FlightRecorder that journals every machine registered here.
        self.recorder = None

    def _dedupe(self, label: str) -> str:
        base, n = label, 1
        while label in self._labels:
            n += 1
            label = f"{base}-{n}"
        self._labels.add(label)
        return label

    def register(self, label: str, telemetry: Telemetry,
                 machine=None) -> str:
        """Track one machine's telemetry (enabling it).

        Re-registering an already-tracked hub renames it (explicit
        labels beat the auto-generated ``machine-N`` ones) instead of
        duplicating the entry.  Returns the de-duplicated label used.
        """
        slot = self._index.get(id(telemetry))
        if slot is not None:
            self._labels.discard(self._items[slot][0])
        label = self._dedupe(label)
        if slot is None:
            telemetry.enable()
            self._index[id(telemetry)] = len(self._items)
            self._items.append((label, telemetry))
        else:
            self._items[slot] = (label, telemetry)
        if machine is not None:
            self._machines[id(telemetry)] = machine
            if self._trace_requests:
                from repro.telemetry.requests import \
                    attach_machine as attach_tracer
                attach_tracer(machine)
            if self.recorder is not None \
                    and machine not in self.recorder.machines:
                self.recorder.attach_machine(machine, label)
        if telemetry.requests is not None:
            telemetry.requests.label = label
        machine = self._machines.get(id(telemetry))
        if self.recorder is not None and machine in self.recorder.machines:
            self.recorder.relabel(machine, label)
        return label

    def auto_register(self, telemetry: Telemetry, machine=None) -> str:
        """The machine-construction hook: register under ``machine-N``."""
        return self.register(f"machine-{len(self._items) + 1}", telemetry,
                             machine=machine)

    def unregister(self, telemetry: Telemetry) -> bool:
        """Stop tracking one hub (disabling it); frees its label.

        Returns True when the hub was tracked.  Symmetric with
        :meth:`register`'s enable, so a machine handed back to a caller
        leaves no residual observation cost and the label can be reused.
        """
        slot = self._index.pop(id(telemetry), None)
        if slot is None:
            return False
        label, _ = self._items.pop(slot)
        self._labels.discard(label)
        machine = self._machines.pop(id(telemetry), None)
        if machine is not None and self._trace_requests:
            from repro.telemetry.requests import \
                detach_machine as detach_tracer
            detach_tracer(machine)
        self._index = {id(tel): i for i, (_, tel) in enumerate(self._items)}
        telemetry.disable()
        return True

    def machines(self) -> list[tuple[str, object]]:
        """The registered ``(label, Machine)`` pairs, in creation order.

        Only machines registered through the construction hook (or with
        an explicit ``machine=``) appear; bare-telemetry registrations
        have no machine to fingerprint.
        """
        out = []
        for label, telemetry in self._items:
            machine = self._machines.get(id(telemetry))
            if machine is not None:
                out.append((label, machine))
        return out

    def state_fingerprints(self) -> dict[str, str]:
        """label -> Machine.state_hash() for every tracked machine."""
        return {label: machine.state_hash()
                for label, machine in self.machines()}

    @property
    def items(self) -> list[tuple[str, Telemetry]]:
        """The registered ``(label, telemetry)`` pairs, in creation order."""
        return list(self._items)

    def request_tracers(self) -> list:
        """The attached request tracers, in registration order."""
        return [telemetry.requests for _, telemetry in self._items
                if telemetry.requests is not None]

    def requests_document(self) -> dict | None:
        """The requests JSON document, or None when nothing traced."""
        from repro.telemetry.requests import requests_document
        return requests_document(self.request_tracers())

    def document(self) -> dict:
        """The snapshot document for everything registered so far."""
        return snapshot_document(self._items)

    def write(self, snapshot_path) -> tuple:
        """Write snapshot + Chrome trace; returns both paths."""
        return write_telemetry(snapshot_path, self._items)


def activate(sink: TelemetrySink | None) -> None:
    """Make ``sink`` the process-wide active sink (None clears it)."""
    global _ACTIVE
    _ACTIVE = sink


def current() -> TelemetrySink | None:
    """The active sink, or None when telemetry capture is not requested."""
    return _ACTIVE


class capture:
    """Context manager activating a fresh sink for the enclosed run::

        with sink.capture() as s:
            run_experiment()
        document = s.document()

    The sink that was active before is active again afterwards.
    """

    def __init__(self, trace_requests: bool = False) -> None:
        self.sink = TelemetrySink(trace_requests=trace_requests)
        self._outer: TelemetrySink | None = None

    def __enter__(self) -> TelemetrySink:
        self._outer = current()
        activate(self.sink)
        return self.sink

    def __exit__(self, exc_type, exc, tb) -> bool:
        activate(self._outer)
        return False
