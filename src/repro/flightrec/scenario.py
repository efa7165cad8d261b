"""Scenario resolution and the one capture path.

A journal header names its scenario by id so replay can re-run the exact
workload:

* ``bench:<name>`` — a benchmark from the ``repro.bench`` registry
  (``run_experiment()`` of ``benchmarks/bench_<name>.py``);
* anything else — a scenario registered programmatically with
  :func:`register` (tests use this to record custom workloads).

Scenario functions take one ``args`` dict and return their figures; the
machines they build register with the active telemetry sink, whose
flight recorder journals them, so a scenario needs no recorder plumbing
of its own.  :func:`observed` is the one way a run is captured —
``python -m repro.bench run``, :func:`run_recorded` and replay all go
through it — and the one place a crash of a recorded or benchmark run
leaves forensic bundles.  Replay keeps its own exception handling (a
diverged re-run may crash, and bisection wants its partial journal),
so that crash path never runs on replay.
"""

from __future__ import annotations

import contextlib

from repro.flightrec import forensics
from repro.flightrec.journal import Journal
from repro.flightrec.recorder import DEFAULT_CHECKPOINT_EVERY, FlightRecorder
from repro.telemetry import sink as telemetry_sink

_SCENARIOS: dict[str, object] = {}


class ScenarioError(ValueError):
    """An unknown or unrunnable scenario id."""


def register(name: str, fn) -> None:
    """Register a programmatic scenario (``fn(args) -> figures``)."""
    _SCENARIOS[name] = fn


def unregister(name: str) -> None:
    """Remove a programmatic scenario; unknown names are a no-op."""
    _SCENARIOS.pop(name, None)


def resolve(scenario: str):
    """The callable for one scenario id."""
    if scenario.startswith("bench:"):
        bench = scenario[len("bench:"):]
        from repro.bench.registry import REGISTRY
        from repro.bench.runner import _ensure_benchmarks_importable
        spec = REGISTRY.get(bench)
        if spec is None:
            raise ScenarioError(f"unknown benchmark scenario {bench!r}")
        _ensure_benchmarks_importable()
        return lambda args: spec.run()
    fn = _SCENARIOS.get(scenario)
    if fn is None:
        raise ScenarioError(f"unknown scenario {scenario!r}")
    return fn


@contextlib.contextmanager
def observed(recorder: FlightRecorder | None = None):
    """Run the enclosed block under a sink with ``recorder`` on it.

    The sink is the active one (so a caller's sampler or tracer sees the
    run too), else a fresh one made active for the block.  It captures
    every machine the block builds and ``recorder`` journals each of
    them.  On an unhandled exception one forensic bundle is written
    (when emission is enabled) for each machine registered inside the
    block before the exception propagates; the machine whose bundle the
    exception already carries (a sanitizer violation writes its own) is
    skipped.
    """
    outer = telemetry_sink.current()
    sink = outer if outer is not None else telemetry_sink.TelemetrySink()
    previous = sink.recorder
    start = len(sink.machines())
    telemetry_sink.activate(sink)
    if recorder is not None:
        sink.recorder = recorder
    try:
        yield sink
    except Exception as exc:
        done = getattr(exc, "forensic_machine", None)
        for _, machine in sink.machines()[start:]:
            if machine is not done:
                forensics.emit_for_machine(machine, exc)
        raise
    finally:
        sink.recorder = previous
        telemetry_sink.activate(outer)


def run_recorded(scenario: str, args: dict | None = None, *,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 ) -> tuple[Journal, object]:
    """Run one scenario under a fresh recorder; returns (journal, figures).

    The run is captured by :func:`observed`, so a crashed recording
    still leaves forensic evidence.
    """
    fn = resolve(scenario)
    rec = FlightRecorder(scenario, args, checkpoint_every=checkpoint_every)
    with observed(rec):
        figures = fn(dict(args or {}))
    return rec.finish(figures), figures
