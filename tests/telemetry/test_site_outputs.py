"""Pinned observer output: every instrumented site, hashed.

One deterministic scenario reaches every instrumented site at least
once with all three observers on: telemetry enabled (spans and metrics),
a request tracer attached, and a flight recorder journaling the trace
ring.  It covers

* ``create_enclave`` and the kernel's ``mmap`` of the marshalling buffer;
* an ECALL with an OCALL and ocall->ecall re-entry;
* a two-phase ``#UD`` (AEX, signal, ERESUME, the tRTS exception path);
* demand-page faults, and swap-out and swap-in on a tiny EPC;
* ``enclave_mprotect`` on a 2-CPU machine (hypercall and TLB shootdown),
  issued from an OCALL so it lands inside a traced request.

Five outputs are pinned as sha256 literals: the requests document, the
journal's events and checkpoint chain, the span records, the metric
snapshot, and the CPU state each ring event sees.  The last is what a
flight-recorder checkpoint landing on that event would fold for the
CPU, so it pins where each event fires relative to the state changes
around it (a checkpoint only lands on every 256th event).  Everything
here is simulated and must not move when instrumentation is
restructured.

A deliberate change to what an observer writes moves these digests.
Regenerate them with::

    PYTHONPATH=src python -m tests.telemetry.test_site_outputs

which prints the five new literals to paste into ``EXPECTED``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.flightrec.recorder import FlightRecorder
from repro.flightrec.scenario import observed
from repro.hw.phys import PAGE_SIZE
from repro.monitor.structs import PagePerm
from repro.platform import TeePlatform
from repro.telemetry.requests import attach_machine, requests_document
from tests.telemetry.test_requests import REGION_VA, TINY, _load

SWEEP_PAGES = 2048                 # 8 MB > the ~6 MB EPC of TINY

EXPECTED = {
    "event_states":
        "68e2f02602eacd16144fb204eeb2ac98ede4e4f826435d279b6c75f7ae806a0f",
    "requests":
        "b7a32810083ad826ca04db6c7f1a23fced3a4f26d319a51908938d2aff10dbf7",
    "journal":
        "c37d7b5117993183a0a0f1a60a9452ec5f0b4a5660dba43ec459e893d60e3712",
    "spans":
        "c241d134501a85f42054036d73c6841c4b1222a08ce193cd808cc8935dbc9966",
    "metrics":
        "8eb321510c66159dddc92466711e5927794a34ac77ba19b7ca2116a4e573e624",
}


def run_scenario() -> dict:
    """Run the scenario; returns each observer's raw output."""
    protect: list[int] = []
    recorder = FlightRecorder("test:site-outputs", checkpoint_every=256)
    with observed(recorder):
        platform = TeePlatform.hyperenclave(replace(TINY, num_cpus=2))
    machine = platform.machine
    tracer = attach_machine(machine, label="sites")
    cpu_states: list[str] = []
    machine.trace.tap(
        lambda event: cpu_states.append(machine.cpu.state_digest()))
    handle = _load(platform, heap=8 * 1024 * 1024)
    monitor = platform.monitor
    eid = handle.enclave_id

    def ocall_nop():
        while protect:
            monitor.enclave_mprotect(eid, protect.pop(), 1, PagePerm.R)
        return 0

    handle.register_ocall("ocall_nop", ocall_nop)
    assert handle.ecall("outer") == 42
    assert handle.ecall("faulty") == 7
    monitor.reserve_region(eid, REGION_VA, SWEEP_PAGES * PAGE_SIZE)
    assert handle.ecall("touch_pages", n=SWEEP_PAGES) > 0
    protect.append(REGION_VA + (SWEEP_PAGES - 1) * PAGE_SIZE)
    assert handle.ecall("inner", x=1) == 2
    assert handle.ecall("touch_pages", n=SWEEP_PAGES) > 0
    journal = recorder.finish()
    return {
        "requests": requests_document([tracer]),
        "journal": journal,
        "spans": list(machine.telemetry.spans),
        "metrics": machine.telemetry.registry.snapshot(),
        "event_states": cpu_states,
    }


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(outputs: dict) -> dict:
    """The five pinned digests of one scenario run."""
    journal = outputs["journal"]
    return {
        "requests": _sha(outputs["requests"]),
        "journal": _sha({
            "events": [list(event.key()) for event in journal.events],
            "checkpoints": [cp.as_list() for cp in journal.checkpoints],
        }),
        "spans": _sha([
            [r.name, r.labels, r.start_cycle, r.dur_cycles, r.self_cycles,
             r.error]
            for r in outputs["spans"]]),
        "metrics": _sha(outputs["metrics"]),
        "event_states": _sha(outputs["event_states"]),
    }


@pytest.fixture(scope="module")
def outputs():
    return run_scenario()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_observer_output_is_pinned(outputs, name):
    assert digests(outputs)[name] == EXPECTED[name]


def _segments(segments):
    for segment in segments:
        yield segment
        yield from _segments(segment["segments"])


def test_every_site_row_fired(outputs):
    """Each row of the site table wrote each of its outputs at least
    once, so the scenario cannot quietly stop covering a site.  (The
    ``ecall`` row's segment is the nested ocall->ecall re-entry.)"""
    from repro.hw.cycles import SITES
    spans = {record.name for record in outputs["spans"]}
    events = outputs["journal"].events
    kinds = {event.kind for event in events}
    scopes = {scope.split("#")[0] for event in events
              for scope in event.cause.split("/")}
    segments = {segment["kind"]
                for trace in outputs["requests"]["traces"]
                for request in trace["requests"]
                for segment in _segments(request["segments"])}
    for name, site in SITES.items():
        assert site.span is None or site.span in spans, name
        assert site.event is None or site.event in kinds, name
        assert site.segment is None or site.segment in segments, name
        head = site.cause and site.cause.split("{")[0]
        assert not head or any(s.startswith(head) for s in scopes), name


if __name__ == "__main__":
    for key, value in sorted(digests(run_scenario()).items()):
        print(f'    "{key}":\n        "{value}",')
