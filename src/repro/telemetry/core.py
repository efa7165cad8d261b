"""The per-machine telemetry hub: spans, events, metrics, collectors.

One :class:`Telemetry` instance hangs off every :class:`~repro.hw.machine.
Machine`.  It owns

* the :class:`~repro.hw.trace.TraceBuffer` event ring (the pre-existing
  tracing surface, kept as the raw-event backend),
* a :class:`~repro.telemetry.metrics.MetricsRegistry`,
* the cycle-accurate span API, and
* pull-based hardware collectors (TLB, LLC, encryption engine, paging)
  sampled at snapshot time.

Spans *observe* the simulated clock — they never charge cycles — so
enabling telemetry cannot perturb a calibrated benchmark.  Disabled,
``span()`` is a single branch returning a shared no-op context manager
and ``event()`` a single branch, so the disabled path stays bit-identical
to a build without telemetry.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.hw.cycles import subsystem_for_category
from repro.hw.trace import TraceBuffer
from repro.telemetry.metrics import MetricsRegistry, _label_key


def cycles_by_subsystem(breakdown: dict[str, int | float]
                        ) -> dict[str, int | float]:
    """Aggregate a per-category cycle breakdown into subsystems."""
    out: dict[str, int | float] = {}
    for category, cycles in breakdown.items():
        sub = subsystem_for_category(category)
        out[sub] = out.get(sub, 0) + cycles
    return out


class UnclosedSpanError(RuntimeError):
    """A snapshot was exported while spans were still open.

    An open span has not yet folded its cycles into its parent's
    self-cycle accounting, so any profile or snapshot taken now would
    silently misattribute cycles.  This is the runtime counterpart of
    staticcheck rule SC007 (spans must be context-managed).
    """


@dataclass(slots=True)
class SpanRecord:
    """One completed span (feeds the Chrome trace exporter).

    ``path`` is the exact ancestor stack (root first, this span last) at
    the moment the span opened — the profiler's collapsed-stack frames
    come straight from it, no sampling or reconstruction involved.
    """

    name: str
    labels: dict
    start_cycle: int
    dur_cycles: int
    self_cycles: int
    start_wall_ns: int
    dur_wall_ns: int
    depth: int
    error: bool
    path: tuple[str, ...] = ()
    # Host wall-time spent in this span minus enclosed child spans: the
    # wall-domain twin of ``self_cycles``, feeding the wall/efficiency
    # profiler (repro.profiler.wall).
    self_wall_ns: int = 0


class _NullSpan:
    """The shared disabled-path span: enter/exit are no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _CauseScope:
    """Context manager pushing a causal label onto the trace ring."""

    __slots__ = ("_ring", "_label")

    def __init__(self, ring: TraceBuffer, label: str) -> None:
        self._ring = ring
        self._label = label

    def __enter__(self) -> "_CauseScope":
        self._ring.push_cause(self._label)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._ring.pop_cause()
        return False


class Span:
    """A cycle-accurate, nesting measurement window.

    On exit the span aggregates into the registry under its subsystem
    (the ``name`` prefix before the first dot): call count, total
    cycles, *self* cycles (total minus enclosed child spans), a log-scale
    cycle histogram, and host wall-clock nanoseconds.
    """

    __slots__ = ("_telemetry", "name", "labels", "start_cycle",
                 "_start_wall", "_child_cycles", "_child_wall", "_depth",
                 "_path")

    def __init__(self, telemetry: "Telemetry", name: str,
                 labels: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self.labels = labels

    def __enter__(self) -> "Span":
        tel = self._telemetry
        self._child_cycles = 0
        self._child_wall = 0
        stack = tel._stack
        self._depth = len(stack)
        self._path = ((stack[-1]._path + (self.name,)) if stack
                      else (self.name,))
        stack.append(self)
        # repro-lint: disable=SC001 -- host wall time is reported next to
        # the span's cycles and never feeds the simulated clock
        self._start_wall = time.perf_counter_ns()
        self.start_cycle = int(tel.cycles.total)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tel = self._telemetry
        dur = int(tel.cycles.total) - self.start_cycle
        # repro-lint: disable=SC001 -- host wall time is reported next to
        # the span's cycles and never feeds the simulated clock
        dur_wall = time.perf_counter_ns() - self._start_wall
        stack = tel._stack
        # Unwind robustly: an exception may have skipped child exits.
        while stack:
            top = stack.pop()
            if top is self:
                break
        self_cycles = max(dur - self._child_cycles, 0)
        self_wall = max(dur_wall - self._child_wall, 0)
        if stack:
            stack[-1]._child_cycles += dur
            stack[-1]._child_wall += dur_wall
        labels = self.labels
        # The seven metrics a span feeds are fixed per (name, labels);
        # interning each through the registry on every exit dominates
        # span overhead, so the resolved cells are memoized on the
        # Telemetry (cleared alongside the registry in reset()).
        key = (self.name if not labels
               else (self.name, _label_key(labels)))
        metrics = tel._span_metrics.get(key)
        if metrics is None:
            subsystem, _, short = self.name.partition(".")
            short = short or subsystem
            reg = tel.registry
            metrics = (
                reg.counter(subsystem, short + ".calls", **labels),
                reg.counter(subsystem, short + ".cycles", **labels),
                reg.counter(subsystem, short + ".self_cycles", **labels),
                # Wall-domain metrics ride the same enabled-only path as
                # the cycle metrics: the single branch in
                # Telemetry.span() is the only disabled-path cost.
                # self_wall_ns counters sum exactly to root-span wall time.
                reg.counter(subsystem, short + ".wall_ns", **labels),
                reg.counter(subsystem, short + ".self_wall_ns", **labels),
                reg.histogram(subsystem, short + ".cycles_hist", **labels),
                reg.histogram(subsystem, short + ".wall_ns_hist", **labels),
            )
            tel._span_metrics[key] = metrics
        calls, cyc, self_cyc, wall, self_w, cyc_hist, wall_hist = metrics
        # Direct cell mutation: all increments here are non-negative by
        # construction (max() above), matching Counter.inc semantics.
        calls.value += 1
        cyc.value += dur
        self_cyc.value += self_cycles
        wall.value += dur_wall
        self_w.value += self_wall
        cyc_hist.observe(dur)
        wall_hist.observe(dur_wall)
        tel.spans.append(SpanRecord(
            self.name, labels, self.start_cycle, dur, self_cycles,
            self._start_wall, dur_wall, self._depth, exc_type is not None,
            self._path, self_wall))
        return False


class Telemetry:
    """The observability hub for one simulated machine."""

    def __init__(self, cycles, *, ring_capacity: int = 4096,
                 span_capacity: int = 65536) -> None:
        self.cycles = cycles
        self.registry = MetricsRegistry()
        self.ring = TraceBuffer(ring_capacity)
        self.ring.attach(cycles)
        self.ring.on_drop = self._on_ring_drop
        self.enabled = False
        self.spans: deque[SpanRecord] = deque(maxlen=span_capacity)
        self._stack: list[Span] = []
        self._collectors: dict[str, Callable[[], dict]] = {}
        self._paging: dict[str, object] = {}
        # (name[, sorted-labels]) -> the 7 metric cells a span feeds on
        # exit; see Span.__exit__.
        self._span_metrics: dict = {}
        # Cycle-domain timeline sampler (repro.telemetry.timeline);
        # attached by the sink or attach_machine, None when off.
        self.timeline = None
        # Request tracer (repro.telemetry.requests); same attach
        # discipline, None when off.
        self.requests = None

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        """Turn on spans, metrics, and the event ring."""
        self.enabled = True
        self.ring.enable()

    def disable(self) -> None:
        self.enabled = False
        self.ring.disable()

    def reset(self) -> None:
        """Drop all recorded data (metrics, spans, ring events)."""
        self.registry.clear()
        self._span_metrics.clear()
        self.spans.clear()
        self._stack.clear()
        self.ring.clear()

    # -- the hot-path API ----------------------------------------------------

    def span(self, name: str, **labels):
        """A cycle-accurate span; a shared no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, labels)

    def open_span_names(self) -> list[str]:
        """Names of spans currently open, outermost first.

        Exporters call this to refuse snapshotting mid-span (see
        :class:`UnclosedSpanError`); it is always safe to call.
        """
        return [span.name for span in self._stack]

    def event(self, kind: str, detail="") -> None:
        """Record a raw event into the ring.

        ``detail`` may be a callable, evaluated only when the ring is
        enabled — call-sites never pay for f-string construction on the
        disabled path.
        """
        if not self.ring.enabled:
            return
        self.ring.record(kind, detail() if callable(detail) else detail)

    def count(self, subsystem: str, name: str, amount: int | float = 1,
              **labels) -> None:
        """Bump a counter iff telemetry is enabled (single branch off)."""
        if self.enabled:
            self.registry.counter(subsystem, name, **labels).inc(amount)

    def cause(self, label: str):
        """Enter a causal scope that tags every ring event inside it.

        The SDK pushes ``ecall:<name>`` / ``ocall:<name>`` scopes so
        events recorded kernel- and monitor-side inherit the edge call
        that caused them.  A shared no-op when the ring is disabled
        (single branch), mirroring :meth:`span`.
        """
        if not self.ring.enabled:
            return NULL_SPAN
        return _CauseScope(self.ring, label)

    def _on_ring_drop(self, n: int) -> None:
        """Ring wrap-around: surface the loss as a metric, not silence."""
        self.registry.counter("trace", "dropped_events").inc(n)

    # -- hardware collectors -------------------------------------------------

    def add_collector(self, name: str, fn: Callable[[], dict]) -> None:
        """Register a pull-based stats source sampled at snapshot time."""
        self._collectors[name] = fn

    def paging_stats(self, domain: str):
        """The shared paging-stat sink for one page-table domain."""
        from repro.hw.paging import PagingStats
        stats = self._paging.get(domain)
        if stats is None:
            stats = PagingStats()
            self._paging[domain] = stats
        return stats

    def hardware_stats(self) -> dict[str, dict]:
        """Sample every registered collector (plus paging domains)."""
        out = {name: dict(fn()) for name, fn in self._collectors.items()}
        if self._paging:
            out["paging"] = {domain: stats.as_dict()
                             for domain, stats in self._paging.items()}
        return out
